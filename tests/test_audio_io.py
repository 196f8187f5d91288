import json
import struct
import wave
from types import SimpleNamespace

import numpy as np
import pytest

from blockbeam.audio_io import (
    MultichannelSignal,
    load_network,
    read_wav,
    write_wav,
)
from blockbeam.errors import ConfigError, DataError, FormatError, SizeError, UnsupportedEncodingError
from blockbeam.pipeline import PipelineConfig, run
from blockbeam.stft import analyze


def write_pcm16_reference(path, samples_int16, sample_rate=16000):
    """Independent pcm16 writer built on the stdlib wave module."""
    n_ch, n = samples_int16.shape
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(n_ch)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(samples_int16.T.astype("<i2").tobytes())


def read_pcm16_reference(path):
    with wave.open(str(path), "rb") as fh:
        n_ch = fh.getnchannels()
        raw = fh.readframes(fh.getnframes())
    flat = np.frombuffer(raw, dtype="<i2")
    return flat.reshape(-1, n_ch).T


class TestReadWav:
    def test_two_channel_zeros(self, tmp_path):
        path = tmp_path / "zeros.wav"
        write_pcm16_reference(path, np.zeros((2, 100), dtype=np.int16))
        sig = read_wav(path)
        assert sig.channel_count == 2
        assert sig.sample_rate == 16000
        assert np.all(sig.samples == 0.0)

    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "full.wav"
        write_pcm16_reference(path, np.array([[32767, -32768, 16384]], dtype=np.int16))
        sig = read_wav(path)
        assert sig.samples[0, 0] == 32767 / 32768
        assert sig.samples[0, 1] == -1.0
        assert sig.samples[0, 2] == 0.5

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a riff container at all")
        with pytest.raises(FormatError):
            read_wav(path)

    def test_unsupported_encoding(self, tmp_path):
        # 8 bit PCM is a valid WAV encoding outside the supported set
        path = tmp_path / "u8.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(16000)
            fh.writeframes(bytes([0, 128, 255, 64]))
        with pytest.raises(UnsupportedEncodingError):
            read_wav(path)


class TestWriteWav:
    def test_pcm16_clipping_rule(self, tmp_path):
        path = tmp_path / "clip.wav"
        sig = MultichannelSignal(np.array([[2.0, -1.0, 0.0]]), 16000)
        write_wav(sig, path, encoding="pcm16")
        stored = read_pcm16_reference(path)
        assert stored[0, 0] == 32767
        assert stored[0, 1] == -32768
        assert stored[0, 2] == 0

    def test_float32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        original = rng.uniform(-1, 1, size=(3, 500)).astype(np.float32)
        sig = MultichannelSignal(original, 16000)
        path = tmp_path / "rt.wav"
        write_wav(sig, path, encoding="float32")
        back = read_wav(path)
        assert back.channel_count == 3
        assert np.array_equal(back.samples.astype(np.float32), original)

    def test_pcm16_round_trip_error_bound(self, tmp_path):
        rng = np.random.default_rng(8)
        samples = rng.uniform(-0.99, 0.99, size=(2, 400))
        sig = MultichannelSignal(samples, 16000)
        path = tmp_path / "rt16.wav"
        write_wav(sig, path, encoding="pcm16")
        back = read_wav(path)
        assert np.max(np.abs(back.samples - samples)) <= 1.0 / 32768

    def test_non_finite_rejected(self, tmp_path):
        sig = MultichannelSignal(np.array([[0.0, np.nan]]), 16000)
        with pytest.raises(DataError):
            write_wav(sig, tmp_path / "bad.wav")

    def test_unknown_encoding_rejected(self, tmp_path):
        sig = MultichannelSignal(np.zeros((1, 10)), 16000)
        with pytest.raises(UnsupportedEncodingError, match="pcm24"):
            write_wav(sig, tmp_path / "x.wav", encoding="pcm24")
        assert not (tmp_path / "x.wav").exists()

    def test_unwritable_path(self, tmp_path):
        sig = MultichannelSignal(np.zeros((1, 10)), 16000)
        with pytest.raises(OSError):
            write_wav(sig, tmp_path / "no" / "such" / "dir.wav")


def chunk(name: bytes, body: bytes) -> bytes:
    """One RIFF chunk, with the pad byte that follows an odd-sized body."""
    return struct.pack("<4sI", name, len(body)) + body + b"\0" * (len(body) % 2)


def riff(*chunks: bytes, form: bytes = b"RIFF") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return form + struct.pack("<I", len(body)) + body


def fmt_body(tag=1, channels=2, bits=16, align=None, rate=16000) -> bytes:
    """The 16-byte WAVEFORMAT fields; block align follows the others unless given."""
    align = channels * bits // 8 if align is None else align
    return struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)


def extensible_fmt(code, channels, bits, guid_tail=b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"):
    """A 40-byte WAVE_FORMAT_EXTENSIBLE body whose sub-format GUID holds `code`."""
    return fmt_body(0xFFFE, channels, bits) + struct.pack("<HHI", 22, bits, 0) + struct.pack("<H", code) + guid_tail


def scipy_read_reference(path):
    """(rate, samples) as read_wav gave them on scipy.io.wavfile: int16 / 32768,
    float32 widened to float64, one row per channel."""
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    samples = data.astype(np.float64) / 32768.0 if data.dtype == np.int16 else data.astype(np.float64)
    return rate, samples[np.newaxis, :] if samples.ndim == 1 else samples.T


# three stereo frames of 16 bit PCM
FRAMES = np.arange(-3, 3, dtype="<i2").tobytes()


class TestRiffCodec:
    """read_wav/write_wav against scipy.io.wavfile, the codec they replace."""

    @pytest.mark.parametrize("n", [0, 1, 7, 51200])
    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_write_matches_scipy_bytes_and_reads_back_as_before(self, tmp_path, encoding, n):
        from scipy.io import wavfile

        rng = np.random.default_rng(n)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
        for channels in range(1, 9):
            samples = rng.uniform(-1.2, 1.2, (channels, n))
            write_wav(MultichannelSignal(samples, 16000), ours, encoding)
            if encoding == "pcm16":
                data = np.round(np.clip(samples, -1.0, 1.0 - 1.0 / 32768) * 32768).astype(np.int16)
            else:
                data = samples.astype(np.float32)
            wavfile.write(theirs, 16000, data[0] if channels == 1 else data.T)
            assert ours.read_bytes() == theirs.read_bytes(), (encoding, channels, n)
            rate, want = scipy_read_reference(theirs)
            got = read_wav(theirs)
            assert got.sample_rate == rate == 16000
            assert got.samples.dtype == np.float64 and np.array_equal(got.samples, want)

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(riff(chunk(b"fmt ", extensible_fmt(1, 3, 16)), chunk(b"data", bytes(range(60)))), id="extensible-pcm16"),
            pytest.param(
                riff(
                    chunk(b"fmt ", extensible_fmt(3, 2, 32)),
                    chunk(b"fact", struct.pack("<I", 3)),
                    chunk(b"data", np.array([0.5, -1.5, 1e-30, 3.0, -0.0, 7.25], dtype="<f4").tobytes()),
                ),
                id="extensible-float32",
            ),
            pytest.param(
                riff(chunk(b"fmt ", fmt_body()), chunk(b"LIST", b"INFOabc"), chunk(b"data", FRAMES)), id="odd-list-chunk"
            ),
        ],
    )
    def test_read_matches_scipy(self, tmp_path, body):
        path = tmp_path / "in.wav"
        path.write_bytes(body)
        rate, want = scipy_read_reference(path)
        got = read_wav(path)
        assert got.sample_rate == rate and np.array_equal(got.samples, want)

    def test_read_matches_scipy_on_wave_module_files(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "wave.wav"
        write_pcm16_reference(path, rng.integers(-32768, 32768, (3, 101)).astype(np.int16), sample_rate=8000)
        rate, want = scipy_read_reference(path)
        got = read_wav(path)
        assert got.sample_rate == rate == 8000 and np.array_equal(got.samples, want)

    @pytest.mark.parametrize(
        "body,error,match",
        [
            pytest.param(b"", FormatError, "not a RIFF/WAVE", id="empty"),
            pytest.param(riff(chunk(b"fmt ", fmt_body()), chunk(b"data", FRAMES), form=b"RIFX"), FormatError, "RIFX", id="rifx"),
            pytest.param(riff(chunk(b"fmt ", fmt_body()), chunk(b"data", FRAMES), form=b"RF64"), FormatError, "RF64", id="rf64"),
            pytest.param(b"RIFF" + struct.pack("<I", 4) + b"AVI ", FormatError, "not a RIFF/WAVE", id="riff-avi"),
            pytest.param(
                riff(chunk(b"fmt ", fmt_body()), struct.pack("<4sI", b"LIST", 100) + b"INFO"),
                FormatError, "runs past the end", id="chunk-past-end",
            ),
            pytest.param(
                riff(chunk(b"fmt ", fmt_body()), struct.pack("<4sI", b"data", 16) + FRAMES),
                FormatError, "runs past the end", id="data-past-end",
            ),
            pytest.param(riff(chunk(b"data", FRAMES)), FormatError, "fmt chunk", id="no-fmt"),
            pytest.param(riff(chunk(b"data", FRAMES), chunk(b"fmt ", fmt_body())), FormatError, "fmt chunk", id="data-before-fmt"),
            pytest.param(riff(chunk(b"fmt ", fmt_body()), chunk(b"LIST", b"INFO")), FormatError, "data chunk", id="no-data"),
            pytest.param(riff(chunk(b"fmt ", fmt_body()[:14]), chunk(b"data", FRAMES)), FormatError, "16 bytes", id="short-fmt"),
            pytest.param(
                riff(chunk(b"fmt ", fmt_body(channels=0)), chunk(b"data", FRAMES)), FormatError, "0 channels", id="zero-channels"
            ),
            pytest.param(
                riff(chunk(b"fmt ", fmt_body(align=3)), chunk(b"data", FRAMES)), FormatError, "block align 3", id="block-align"
            ),
            pytest.param(
                riff(chunk(b"fmt ", fmt_body()), chunk(b"data", FRAMES[:10])),
                FormatError, "whole number of frames", id="partial-frame",
            ),
            pytest.param(
                riff(chunk(b"fmt ", fmt_body(1, 1, 8)), chunk(b"data", FRAMES)), UnsupportedEncodingError, "0x1, 8 bit", id="pcm8"
            ),
            pytest.param(
                riff(chunk(b"fmt ", fmt_body(1, 2, 24)), chunk(b"data", FRAMES)), UnsupportedEncodingError, "0x1, 24 bit", id="pcm24"
            ),
            pytest.param(
                riff(chunk(b"fmt ", fmt_body(1, 1, 32)), chunk(b"data", FRAMES)), UnsupportedEncodingError, "0x1, 32 bit", id="pcm32"
            ),
            pytest.param(
                riff(chunk(b"fmt ", fmt_body(3, 1, 64)), chunk(b"data", FRAMES)), UnsupportedEncodingError, "0x3, 64 bit", id="float64"
            ),
            pytest.param(
                riff(chunk(b"fmt ", fmt_body(6, 2, 8)), chunk(b"data", FRAMES)), UnsupportedEncodingError, "0x6, 8 bit", id="a-law"
            ),
            pytest.param(
                riff(chunk(b"fmt ", fmt_body(7, 2, 8)), chunk(b"data", FRAMES)), UnsupportedEncodingError, "0x7, 8 bit", id="mu-law"
            ),
            pytest.param(
                riff(chunk(b"fmt ", extensible_fmt(1, 2, 24)), chunk(b"data", FRAMES)),
                UnsupportedEncodingError, "0x1, 24 bit", id="extensible-pcm24",
            ),
            pytest.param(
                riff(chunk(b"fmt ", extensible_fmt(1, 2, 16, guid_tail=bytes(14))), chunk(b"data", FRAMES)),
                UnsupportedEncodingError, "0xfffe, 16 bit", id="extensible-unknown-guid",
            ),
        ],
    )
    def test_broken_and_unsupported_files(self, tmp_path, body, error, match):
        path = tmp_path / "bad.wav"
        path.write_bytes(body)
        with pytest.raises(FormatError, match=match) as exc:
            read_wav(path)
        assert type(exc.value) is error

    @pytest.mark.parametrize("encoding,channels", [("pcm16", 32767), ("float32", 16383)])
    def test_widest_frame_matches_scipy_bytes(self, tmp_path, encoding, channels):
        from scipy.io import wavfile

        data = np.zeros((2, channels), dtype=np.int16 if encoding == "pcm16" else np.float32)
        write_wav(MultichannelSignal(data.T, 16000), tmp_path / "ours.wav", encoding)
        wavfile.write(tmp_path / "scipy.wav", 16000, data)
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    @pytest.mark.parametrize(
        "encoding,channels,n,match",
        [
            ("pcm16", 32768, 0, "32768 channels of 16 bit samples exceed"),
            ("float32", 16384, 0, "16384 channels of 32 bit samples exceed"),
            ("pcm16", 1, 2**31, "4 GiB"),
            ("float32", 1, 2**30, "4 GiB"),
            ("float32", 4, 2**28 - 3, "4 GiB"),  # the smallest: 58 + 2**32 - 48 bytes
        ],
    )
    def test_header_limits_refused_before_the_file_is_created(self, tmp_path, encoding, channels, n, match):
        # a stand-in that holds only a shape, so the refusal comes before any
        # sample is read and nothing of the file's size is allocated
        signal = SimpleNamespace(samples=SimpleNamespace(shape=(channels, n)), sample_rate=16000)
        with pytest.raises(SizeError, match=match):
            write_wav(signal, tmp_path / "big.wav", encoding)
        assert not (tmp_path / "big.wav").exists()


def network_dict(dims, acts, seed=0):
    rng = np.random.default_rng(seed)
    layers = []
    for (d_in, d_out), act in zip(zip(dims[:-1], dims[1:]), acts):
        layers.append(
            {
                "w": rng.standard_normal((d_out, d_in)).tolist(),
                "b": rng.standard_normal(d_out).tolist(),
                "act": act,
            }
        )
    return {"layers": layers, "mean": [0.0] * dims[0], "std": [1.0] * dims[0]}


class TestLoadNetwork:
    def test_reference_topology(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(network_dict([257, 1024, 1024, 257], ["relu", "relu", "sigmoid"])))
        net = load_network(path)
        assert len(net.layers) == 3
        assert [l.activation for l in net.layers] == ["relu", "relu", "sigmoid"]
        assert net.input_dim == 257
        assert net.output_dim == 257

    def test_identity_single_layer(self, tmp_path):
        path = tmp_path / "id.json"
        d = {
            "layers": [{"w": np.zeros((257, 257)).tolist(), "b": [0.0] * 257, "act": "sigmoid"}],
            "mean": [0.0] * 257,
            "std": [1.0] * 257,
        }
        path.write_text(json.dumps(d))
        net = load_network(path)
        assert net.input_dim == net.output_dim == 257

    def test_bias_length_mismatch(self, tmp_path):
        d = network_dict([4, 3], ["sigmoid"])
        d["layers"][0]["b"] = [0.0, 0.0]  # 2 != 3 rows
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(FormatError):
            load_network(path)

    def test_dimension_chain_violation(self, tmp_path):
        d = network_dict([4, 3, 2], ["relu", "sigmoid"])
        d["layers"][1]["w"] = np.zeros((2, 5)).tolist()  # expects 3 inputs
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(d))
        with pytest.raises(FormatError):
            load_network(path)

    def test_missing_field(self, tmp_path):
        d = network_dict([4, 3], ["sigmoid"])
        del d["std"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(d))
        with pytest.raises(FormatError):
            load_network(path)

    def test_nonpositive_std(self, tmp_path):
        d = network_dict([4, 3], ["sigmoid"])
        d["std"][1] = 0.0
        path = tmp_path / "std.json"
        path.write_text(json.dumps(d))
        with pytest.raises(FormatError):
            load_network(path)

    @pytest.mark.parametrize(
        "field,index,value",
        [
            ("std", 1, float("nan")),
            ("std", 0, float("inf")),
            ("mean", 2, float("nan")),
            ("mean", 3, float("-inf")),
            ("w", (0, 1), float("nan")),
            ("w", (2, 3), float("inf")),
            ("w", (1, 0), 1e39),  # finite in JSON, inf in float32
            ("b", 0, float("nan")),
            ("b", 2, float("-inf")),
            ("b", 1, -1e39),
        ],
    )
    def test_non_finite_entries_rejected(self, tmp_path, field, index, value):
        # json reads the tokens NaN, Infinity and -Infinity that dumps writes
        d = network_dict([4, 3], ["sigmoid"])
        if field in ("mean", "std"):
            d[field][index] = value
        elif field == "w":
            d["layers"][0]["w"][index[0]][index[1]] = value
        else:
            d["layers"][0]["b"][index] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(d))
        with pytest.raises(FormatError, match="finite"):
            load_network(path)

    def test_unknown_activation(self, tmp_path):
        d = network_dict([4, 3], ["tanh"])
        path = tmp_path / "act.json"
        path.write_text(json.dumps(d))
        with pytest.raises(FormatError):
            load_network(path)

    @pytest.mark.parametrize("layers", [5, True, 2.5])
    def test_layers_not_a_list_rejected(self, tmp_path, layers):
        d = network_dict([4, 3], ["sigmoid"])
        d["layers"] = layers
        path = tmp_path / "layers.json"
        path.write_text(json.dumps(d))
        with pytest.raises(FormatError, match="layers must be a non-empty list"):
            load_network(path)

    @pytest.mark.parametrize(
        "fault,message",
        [
            ("empty layer list", "empty"),
            ("non-numeric weights", "layer 0 weights: not a numeric array"),
            ("1-D weights", "layer 0 weights: expected 2-dimensional"),
            ("2-D bias", "layer 0 bias: expected 1-dimensional"),
            ("no activation", "layer 0 missing field 'act'"),
            ("short mean", r"normalization length \(3, 4\) != input dim 4"),
            ("long std", r"normalization length \(4, 5\) != input dim 4"),
        ],
    )
    def test_malformed_entries_rejected(self, tmp_path, fault, message):
        d = network_dict([4, 3], ["sigmoid"])
        layer = d["layers"][0]
        if fault == "empty layer list":
            d["layers"] = []
        elif fault == "non-numeric weights":
            layer["w"] = [["a", "b", "c", "d"]] * 3
        elif fault == "1-D weights":
            layer["w"] = [0.0] * 4
        elif fault == "2-D bias":
            layer["b"] = [[0.0] * 3]
        elif fault == "no activation":
            del layer["act"]
        elif fault == "short mean":
            d["mean"] = d["mean"][:3]
        else:
            d["std"] = d["std"] + [1.0]
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(d))
        with pytest.raises(FormatError, match=message):
            load_network(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_network(path)


class TestMultichannelSignal:
    def test_channel_count_follows_matrix(self):
        sig = MultichannelSignal(np.zeros((3, 10)), 8000)
        assert sig.channel_count == 3
        assert sig.n_samples == 10

    def test_one_dimensional_promoted(self):
        sig = MultichannelSignal(np.zeros(10), 8000)
        assert sig.channel_count == 1

    def test_bad_rank_rejected(self):
        with pytest.raises(SizeError):
            MultichannelSignal(np.zeros((2, 2, 2)), 8000)

    def test_bad_rate_rejected(self):
        # a rate is a whole number of hertz >= 1: nothing is truncated
        for rate in (0, 16000.7, True, "16000"):
            with pytest.raises(ConfigError, match="sample_rate"):
                MultichannelSignal(np.zeros((1, 4)), rate)

    def test_no_channels_rejected(self):
        # a (0, N) matrix used to give a (257, F, 0) spectrogram from analyze
        # and a reference-channel ConfigError from run
        with pytest.raises(SizeError):
            analyze(MultichannelSignal(np.zeros((0, 16000)), 16000))
        with pytest.raises(SizeError):
            run(MultichannelSignal(np.zeros((0, 16000)), 16000), PipelineConfig())
