import json
import wave

import numpy as np
import pytest

from blockbeam.audio_io import (
    MultichannelSignal,
    load_network,
    read_wav,
    write_wav,
)
from blockbeam.errors import DataError, FormatError, SizeError, UnsupportedEncodingError
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

    def test_unwritable_path(self, tmp_path):
        sig = MultichannelSignal(np.zeros((1, 10)), 16000)
        with pytest.raises(OSError):
            write_wav(sig, tmp_path / "no" / "such" / "dir.wav")


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
        with pytest.raises(DataError):
            MultichannelSignal(np.zeros((1, 4)), 0)

    def test_no_channels_rejected(self):
        # a (0, N) matrix used to give a (257, F, 0) spectrogram from analyze
        # and a reference-channel ConfigError from run
        with pytest.raises(SizeError):
            analyze(MultichannelSignal(np.zeros((0, 16000)), 16000))
        with pytest.raises(SizeError):
            run(MultichannelSignal(np.zeros((0, 16000)), 16000), PipelineConfig())
