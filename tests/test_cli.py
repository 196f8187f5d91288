import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import blockbeam
from blockbeam.audio_io import MultichannelSignal, read_wav, write_wav
from blockbeam.cli import EXIT_IO, build_parser, main

# the flag that once let any beamformer/post-filter/VAD combination through;
# argparse now rejects it as unknown
REMOVED_OVERRIDE = "--allow-any-pairing"


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """Simulated mixture written through the CLI."""
    out_dir = tmp_path_factory.mktemp("sim")
    config = out_dir / "mix.json"
    config.write_text(
        json.dumps(
            {
                "channels": 4,
                "duration_s": 1.6,
                "snr_db": 5.0,
                "noise": "pink",
                "seed": 3,
                "delays": [0, 2, 5, 7],
            }
        )
    )
    code = main(["simulate", "--config", str(config), "--out-dir", str(out_dir)])
    assert code == 0
    return out_dir


class TestSimulateCommand:
    def test_outputs_exist_and_are_consistent(self, sim_dir):
        mixture = read_wav(sim_dir / "mixture.wav")
        clean = read_wav(sim_dir / "clean.wav")
        noise = read_wav(sim_dir / "noise.wav")
        assert mixture.channel_count == 4
        assert np.allclose(
            mixture.samples, clean.samples + noise.samples, atol=1e-6
        )  # float32 storage
        rtf = json.loads((sim_dir / "rtf.json").read_text())
        assert rtf["n_fft"] == 512
        assert len(rtf["segments"]) == 1
        assert len(rtf["segments"][0]["rtf_real"]) == 257

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "text,code,message",
        [
            pytest.param("{not json", 3, "invalid JSON", id="invalid-json"),
            pytest.param("[1, 2]", 2, "expected a JSON object", id="top-level-list"),
            pytest.param('{"segments": [{"start_s": 0.0}]}', 2, "'delays'", id="segment-without-delays"),
            pytest.param('{"channels": "x"}', 2, "channels", id="channels-not-int"),
            pytest.param('{"duration_s": -1}', 2, "duration_s", id="negative-duration"),
            pytest.param('{"segments": [1]}', 2, "malformed", id="segment-not-object"),
            pytest.param('{"segments": []}', 2, "segments", id="empty-segments"),
            pytest.param(
                '{"channels": 2, "segments": [{"delays": [0, 1]}, {"start_s": 0.05, "delays": [0, 1, 2]}]}', 2,
                "segment 1 describes 3 channels, expected 2", id="segment-of-another-channel-count",
            ),
            pytest.param('{"segments": [{"firs": [1.0, 0.5]}]}', 2, "malformed", id="firs-not-matrix"),
            # a delay is a whole number of samples: a fraction is not cut to
            # its integer part and a negative delay does not wrap round
            pytest.param('{"channels": 2, "delays": [0, 2.7]}', 2, "delays[1]", id="fractional-delay"),
            pytest.param('{"channels": 3, "delays": [0, -1, 3]}', 2, "delays[1]", id="negative-delay"),
            pytest.param(
                '{"channels": 2, "delays": [0, 2.7], "decay": {"taps": 2}}', 2, "delays[1]",
                id="fractional-delay-with-decay",
            ),
            # the other integer fields follow the same rule
            pytest.param('{"channels": 2.5}', 2, "channels", id="fractional-channels"),
            pytest.param('{"seed": 1.5}', 2, "seed", id="fractional-seed"),
            pytest.param('{"sample_rate": 16000.7}', 2, "sample_rate", id="fractional-sample-rate"),
            # the simulator works at the frame grid's rate only, as enhance does
            pytest.param('{"sample_rate": 8000}', 2, "input rate 8000 != 16000", id="another-sample-rate"),
            pytest.param('{"decay": {"taps": 2.9}}', 2, "decay.taps", id="fractional-decay-taps"),
            # the real-valued fields are finite numbers, never a bool
            pytest.param('{"snr_db": true}', 2, "snr_db", id="bool-snr"),
            pytest.param('{"duration_s": true}', 2, "duration_s", id="bool-duration"),
            pytest.param('{"decay": {"factor": true}}', 2, "decay.factor", id="bool-decay-factor"),
            pytest.param('{"decay": {"factor": NaN}}', 2, "decay.factor", id="nan-decay-factor"),
            pytest.param(
                '{"segments": [{"start_s": true, "delays": [0, 2, 4, 6]}]}', 2, "segments[0].start_s",
                id="bool-start",
            ),
            # a start too late for a sample index ended in an OverflowError traceback
            pytest.param(
                '{"segments": [{"delays": [0, 2, 4, 6]}, {"start_s": 1e300, "delays": [0, 2, 4, 6]}]}', 2,
                "malformed", id="start-beyond-sample-index",
            ),
        ],
    )
    def test_malformed_config_exit_code(self, tmp_path, capsys, text, code, message):
        # invalid JSON is a data error; valid JSON that describes no mixture
        # is a configuration error
        config = tmp_path / "mix.json"
        config.write_text(text)
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert "error:" in err and message in err
        assert not (tmp_path / "out").exists()

    def test_duration_shorter_than_ramp_names_minimum(self, tmp_path, capsys):
        config = tmp_path / "mix.json"
        config.write_text('{"duration_s": 0.002}')
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "at least 0.004 s" in err and "broadcast" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field,value",
        [
            pytest.param("noise", "file", id="noise-file-as-string"),
            pytest.param("noise", {"path": "n.wav"}, id="noise-object-without-file"),
            pytest.param("noise", "brown", id="unknown-noise"),
            pytest.param("source", "band_limited", id="unknown-source"),
            pytest.param("source", {"file": 3}, id="source-file-not-a-path"),
        ],
    )
    def test_unknown_source_or_noise_is_config_error(self, tmp_path, capsys, field, value):
        # only the documented values pass: "white", "pink" or {"file": path}
        # for the noise, "modulated" or {"file": path} for the source
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({"duration_s": 0.1, field: value}))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert f'"{field}" must be' in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_noise_file_is_read(self, tmp_path):
        noise = np.random.default_rng(0).standard_normal((4, 1600))
        write_wav(MultichannelSignal(noise, 16000), tmp_path / "n.wav")
        config = tmp_path / "mix.json"
        # keys beside "file" are ignored
        noise_conf = {"file": str(tmp_path / "n.wav"), "comment": "four-channel noise"}
        config.write_text(json.dumps({"duration_s": 0.1, "snr_db": 0.0, "noise": noise_conf}))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0
        written = read_wav(tmp_path / "out" / "noise.wav").samples
        # the stems are scaled copies of the file's noise
        scale = np.sum(written * noise) / np.sum(noise**2)
        assert scale > 0 and np.allclose(written, scale * noise, rtol=0, atol=1e-6)

    def test_noise_file_at_another_rate_is_config_error(self, tmp_path, capsys):
        # an 8 kHz noise file is not mixed into a 16 kHz mixture
        write_wav(MultichannelSignal(np.full((4, 800), 0.1), 8000), tmp_path / "n.wav")
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({"duration_s": 0.1, "noise": {"file": str(tmp_path / "n.wav")}}))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert "noise rate 8000 != sample_rate 16000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_multichannel_source_file_rejected(self, tmp_path, capsys):
        # a stereo dry source is refused, not cut to its first channel
        write_wav(MultichannelSignal(np.full((2, 1600), 0.1), 16000), tmp_path / "dry.wav")
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({"source": {"file": str(tmp_path / "dry.wav")}}))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert "1-channel" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_source_file_at_another_rate_is_config_error(self, tmp_path, capsys):
        # an 8 kHz dry source is refused, not relabelled 16 kHz and played
        # at twice its speed
        write_wav(MultichannelSignal(np.full((1, 1600), 0.1), 8000), tmp_path / "dry.wav")
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({"source": {"file": str(tmp_path / "dry.wav")}}))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert "source rate 8000 != sample_rate 16000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_source_file_with_white_noise(self, tmp_path):
        # the default noise is white; channel 0's FIR is a pure delay of 0
        dry = 0.1 * np.random.default_rng(1).standard_normal((1, 3200))
        write_wav(MultichannelSignal(dry, 16000), tmp_path / "dry.wav")
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({"source": {"file": str(tmp_path / "dry.wav")}}))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0
        clean = read_wav(tmp_path / "out" / "clean.wav")
        assert clean.samples.shape == (4, 3200)
        assert np.array_equal(clean.samples[0], read_wav(tmp_path / "dry.wav").samples[0])
        noise = read_wav(tmp_path / "out" / "noise.wav").samples
        assert noise.shape == (4, 3200) and np.all(np.std(noise, axis=1) > 0)

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_pink_noise_for_a_too_short_source_names_minimum(self, tmp_path, capsys, n_samples):
        write_wav(MultichannelSignal(np.full((1, n_samples), 0.1), 16000), tmp_path / "dry.wav")
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({"source": {"file": str(tmp_path / "dry.wav")}, "noise": "pink"}))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        assert "pink noise needs at least 2 samples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_samples", [0, 1, 100, None], ids=["file-0", "file-1", "file-100", "built-in-10ms"])
    def test_source_shorter_than_one_frame_names_minimum(self, tmp_path, capsys, n_samples):
        # with white noise, which any length allows, a source under one STFT
        # frame is refused instead of giving a mixture that enhance refuses
        if n_samples is None:
            conf, name, n_samples = {"duration_s": 0.01}, "built-in source", 160
        else:
            write_wav(MultichannelSignal(np.full((1, n_samples), 0.1), 16000), tmp_path / "dry.wav")
            conf, name = {"source": {"file": str(tmp_path / "dry.wav")}}, "dry.wav"
        config = tmp_path / "mix.json"
        config.write_text(json.dumps(conf))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert name in err and f"{n_samples} samples, under one frame (512)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [{}, {"decay": {"taps": 2}}], ids=["delay", "decaying"])
    def test_empty_delays_name_the_field(self, tmp_path, capsys, extra):
        config = tmp_path / "mix.json"
        config.write_text(json.dumps({"duration_s": 0.1, "delays": [], **extra}))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "delays must list one delay per channel" in err and "malformed" not in err
        assert not (tmp_path / "out").exists()


class TestEnhanceCommand:
    def test_oracle_mvdr_end_to_end(self, sim_dir, tmp_path):
        out = tmp_path / "enhanced.wav"
        diag = tmp_path / "diag.json"
        code = main(
            [
                "enhance",
                "--input", str(sim_dir / "mixture.wav"),
                "--output", str(out),
                "--beamformer", "mvdr",
                "--block-ms", "800",
                "--vad", "oracle",
                "--clean", str(sim_dir / "clean.wav"),
                "--noise", str(sim_dir / "noise.wav"),
                "--postfilter", "wiener",
                "--ref-channel", "1",
                "--t-mu", "0.05",
                "--dump-diagnostics", str(diag),
            ]
        )
        assert code == 0
        enhanced = read_wav(out)
        assert enhanced.channel_count == 1
        payload = json.loads(diag.read_text())
        assert payload["beamformer"] == "mvdr"
        assert len(payload["blocks"]) == 2  # 197 frames -> 100 + 97
        assert payload["blocks"][0]["active_channels"] == [0, 1, 2, 3]
        assert "timings_s" in payload["blocks"][0]

    def test_batch_mode_and_dumps(self, sim_dir, tmp_path):
        # one diagnostics record per block: the 1.6 s input is one batch
        # block or two 800 ms blocks
        for block_ms, n_blocks in (("batch", 1), ("800", 2)):
            out_dir = tmp_path / block_ms
            out_dir.mkdir()
            argv = [
                "enhance",
                "--input", str(sim_dir / "mixture.wav"),
                "--output", str(out_dir / "enh.wav"),
                "--beamformer", "irtf",
                "--block-ms", block_ms,
                "--vad", "none",
                "--postfilter", "none",
            ]
            assert main([*argv, "--dump-diagnostics", str(out_dir / "diag.json")]) == 0
            payload = json.loads((out_dir / "diag.json").read_text())
            assert payload["block_frames"] == ("batch" if block_ms == "batch" else 100)
            assert len(payload["blocks"]) == n_blocks
        # the record is the one per-block output: argparse rejects the
        # former CSV dumps as unknown, before anything is written
        for removed in ("--dump-mask", "--dump-rtf"):
            argv = ["enhance", "--input", str(sim_dir / "mixture.wav"), "--output", str(tmp_path / "gone.wav")]
            with pytest.raises(SystemExit) as exc:
                main([*argv, removed, str(tmp_path / "x.csv")])
            assert exc.value.code == 2
        assert not (tmp_path / "gone.wav").exists()
        assert not list(tmp_path.glob("x*.csv"))

    def test_diagnostics_name_active_microphones(self, sim_dir, tmp_path):
        # channel 1 is dead, so each block's record names microphones 0, 2
        # and 3, the 0-based channels that its RTFs and beam belong to
        mixture = read_wav(sim_dir / "mixture.wav")
        samples = mixture.samples.copy()
        samples[1] = 0.0
        write_wav(MultichannelSignal(samples, mixture.sample_rate), tmp_path / "dead.wav")
        code = main(
            [
                "enhance",
                "--input", str(tmp_path / "dead.wav"),
                "--output", str(tmp_path / "enh.wav"),
                "--beamformer", "mvdr",
                "--postfilter", "wiener",
                "--block-ms", "batch",
                "--vad", "none",
                "--dump-diagnostics", str(tmp_path / "diag.json"),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "diag.json").read_text())
        assert [block["active_channels"] for block in payload["blocks"]] == [[0, 2, 3]]
        assert payload["blocks"][0]["passthrough"] is False

    def test_network_vad_weights(self, sim_dir, tmp_path):
        weights = tmp_path / "net.json"
        weights.write_text(
            json.dumps(
                {
                    "layers": [
                        {"w": np.zeros((257, 257)).tolist(), "b": [4.0] * 257, "act": "sigmoid"}
                    ],
                    "mean": [0.0] * 257,
                    "std": [1.0] * 257,
                }
            )
        )
        out = tmp_path / "net_out.wav"
        code = main(
            [
                "enhance",
                "--input", str(sim_dir / "mixture.wav"),
                "--output", str(out),
                "--vad", "network",
                "--vad-weights", str(weights),
                "--postfilter", "wiener",
            ]
        )
        assert code == 0
        assert read_wav(out).channel_count == 1

    def test_non_finite_network_weights_are_io_error(self, sim_dir, tmp_path, capsys):
        # 1e39 is a finite JSON number that overflows the float32 weights
        w = np.zeros((257, 257))
        w[0, 0] = 1e39
        weights = tmp_path / "overflow.json"
        weights.write_text(
            json.dumps(
                {
                    "layers": [{"w": w.tolist(), "b": [4.0] * 257, "act": "sigmoid"}],
                    "mean": [0.0] * 257,
                    "std": [1.0] * 257,
                }
            )
        )
        out = tmp_path / "o.wav"
        code = main(
            [
                "enhance",
                "--input", str(sim_dir / "mixture.wav"),
                "--output", str(out),
                "--vad", "network",
                "--vad-weights", str(weights),
            ]
        )
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "non-finite weights" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("layers", [5, True])
    def test_network_layers_not_a_list_is_io_error(self, sim_dir, tmp_path, capsys, layers):
        weights = tmp_path / "net.json"
        weights.write_text(json.dumps({"layers": layers, "mean": [0.0] * 257, "std": [1.0] * 257}))
        out = tmp_path / "o.wav"
        argv = ["enhance", "--input", str(sim_dir / "mixture.wav"), "--output", str(out)]
        assert main([*argv, "--vad", "network", "--vad-weights", str(weights)]) == EXIT_IO
        assert "layers must be a non-empty list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_in,n_out", [(257, 10), (257, 514), (100, 257)])
    def test_network_of_another_size_is_config_error(self, sim_dir, tmp_path, capsys, n_in, n_out):
        # checked before any block runs, with both sizes named
        weights = tmp_path / "net.json"
        layer = {"w": np.zeros((n_out, n_in)).tolist(), "b": [0.0] * n_out, "act": "sigmoid"}
        weights.write_text(json.dumps({"layers": [layer], "mean": [0.0] * n_in, "std": [1.0] * n_in}))
        out = tmp_path / "o.wav"
        argv = ["enhance", "--input", str(sim_dir / "mixture.wav"), "--output", str(out)]
        assert main([*argv, "--vad", "network", "--vad-weights", str(weights)]) == 2
        err = capsys.readouterr().err
        assert f"maps {n_in} bins to {n_out}, not 257 to 257" in err and "Traceback" not in err
        assert not out.exists()

    def test_network_vad_without_weights_is_config_error(self, sim_dir, tmp_path):
        code = main(
            [
                "enhance",
                "--input", str(sim_dir / "mixture.wav"),
                "--output", str(tmp_path / "o.wav"),
                "--vad", "network",
            ]
        )
        assert code == 2

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(
            ["enhance", "--input", str(tmp_path / "missing.wav"), "--output", str(tmp_path / "o.wav")]
        )
        assert code == 3

    def test_zero_rate_header_is_config_error(self, tmp_path, capsys):
        # the header's rate follows the number rule of every other rate
        wav = tmp_path / "zero.wav"
        write_wav(MultichannelSignal(np.zeros((2, 1600)), 16000), wav)
        header = bytearray(wav.read_bytes())
        header[24:32] = bytes(8)  # sample rate and byte rate
        wav.write_bytes(bytes(header))
        assert main(["enhance", "--input", str(wav), "--output", str(tmp_path / "o.wav")]) == 2
        assert "sample_rate must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    def test_invalid_pairing_is_config_error(self, sim_dir, tmp_path):
        code = main(
            [
                "enhance",
                "--input", str(sim_dir / "mixture.wav"),
                "--output", str(tmp_path / "o.wav"),
                "--beamformer", "gev",
                "--postfilter", "wiener",
            ]
        )
        assert code == 2

    def test_gev_without_vad_is_config_error(self, sim_dir, tmp_path):
        args = [
            "enhance",
            "--input", str(sim_dir / "mixture.wav"),
            "--output", str(tmp_path / "o.wav"),
            "--beamformer", "gev",
            "--postfilter", "ban",
            "--vad", "none",
        ]
        assert main(args) == 2
        assert not (tmp_path / "o.wav").exists()

    # at --t-mu 1 every block passes through unprocessed, so no beamformer
    # runs and only the configuration check can reject the pairing; the
    # removed override is no way round it either
    @pytest.mark.parametrize("t_mu", ["0.05", "1.0"])
    @pytest.mark.parametrize("beamformer", ["irtf", "mvdr"])
    def test_ban_without_gev_is_config_error_even_with_override(self, sim_dir, tmp_path, beamformer, t_mu):
        args = [
            "enhance",
            "--input", str(sim_dir / "mixture.wav"),
            "--output", str(tmp_path / "o.wav"),
            "--beamformer", beamformer,
            "--postfilter", "ban",
            "--t-mu", t_mu,
        ]
        assert main(args) == 2
        assert not (tmp_path / "o.wav").exists()
        with pytest.raises(SystemExit) as exc:
            main(args + [REMOVED_OVERRIDE])
        assert exc.value.code == 2
        assert not (tmp_path / "o.wav").exists()

    def test_oracle_without_stems_is_config_error(self, sim_dir, tmp_path):
        code = main(
            [
                "enhance",
                "--input", str(sim_dir / "mixture.wav"),
                "--output", str(tmp_path / "o.wav"),
                "--vad", "oracle",
            ]
        )
        assert code == 2

    def test_block_too_long_is_config_error(self, sim_dir, tmp_path):
        code = main(
            [
                "enhance",
                "--input", str(sim_dir / "mixture.wav"),
                "--output", str(tmp_path / "o.wav"),
                "--block-ms", "60000",
            ]
        )
        assert code == 2


class TestEvaluateCommand:
    def test_report_written(self, sim_dir, tmp_path):
        est = tmp_path / "est.wav"
        clean = read_wav(sim_dir / "clean.wav")
        write_wav(MultichannelSignal(clean.samples[0:1], 16000), est)
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--estimate", str(est),
                "--clean", str(sim_dir / "clean.wav"),
                "--noise", str(sim_dir / "noise.wav"),
                "--filter-len", "32",
                "--json", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        # the estimate is the clean reference stem itself
        assert report["sir_db"] > 100
        assert report["filter_len"] == 32

    def test_multichannel_estimate_rejected(self, sim_dir, tmp_path):
        code = main(
            [
                "evaluate",
                "--estimate", str(sim_dir / "mixture.wav"),
                "--clean", str(sim_dir / "clean.wav"),
                "--noise", str(sim_dir / "noise.wav"),
            ]
        )
        assert code == 2

    def test_non_finite_estimate_is_data_error(self, sim_dir, tmp_path, capsys):
        # write_wav refuses NaN, but a float32 WAV from elsewhere can hold one
        from scipy.io import wavfile

        est = tmp_path / "est.wav"
        samples = read_wav(sim_dir / "clean.wav").samples[0].astype(np.float32)
        samples[1000] = np.nan
        wavfile.write(est, 16000, samples)
        assert main(["evaluate", "--estimate", str(est), *_stem_args(sim_dir)]) == EXIT_IO
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and "sir_db" not in captured.out

    def test_ref_channel_beyond_stems_is_config_error(self, sim_dir, tmp_path, capsys):
        est = tmp_path / "est.wav"
        write_wav(MultichannelSignal(read_wav(sim_dir / "clean.wav").samples[0:1], 16000), est)
        assert main(["evaluate", "--estimate", str(est), *_stem_args(sim_dir), "--ref-channel", "5"]) == 2
        assert "--ref-channel 5 exceeds clean stem channels" in capsys.readouterr().err

    @pytest.mark.parametrize("stem", ["clean", "noise"])
    def test_stem_at_another_rate_is_config_error(self, sim_dir, tmp_path, capsys, stem):
        est = tmp_path / "est.wav"
        write_wav(MultichannelSignal(read_wav(sim_dir / "clean.wav").samples[0:1], 16000), est)
        stems = {name: sim_dir / f"{name}.wav" for name in ("clean", "noise")}
        stems[stem] = tmp_path / f"{stem}_8k.wav"
        write_wav(MultichannelSignal(read_wav(sim_dir / f"{stem}.wav").samples, 8000), stems[stem])
        argv = ["evaluate", "--estimate", str(est), "--clean", str(stems["clean"]), "--noise", str(stems["noise"])]
        assert main(argv) == 2
        assert "rate" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_csv(self, sim_dir, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--input", str(sim_dir / "mixture.wav"),
                "--clean", str(sim_dir / "clean.wav"),
                "--noise", str(sim_dir / "noise.wav"),
                "--vad", "oracle",
                "--beamformer", "irtf,gev",
                "--block-ms", "800,batch",
                "--csv", str(out_csv),
            ]
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["beamformer"] for r in rows} == {"irtf", "gev"}
        # auto pairing: wiener for irtf, ban for gev
        pairings = {(r["beamformer"], r["postfilter"]) for r in rows}
        assert ("irtf", "wiener") in pairings
        assert ("gev", "ban") in pairings
        assert all(float(r["sir_db"]) > -200 for r in rows)

    def test_gev_without_vad_rejected_before_any_run(self, sim_dir, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--input", str(sim_dir / "mixture.wav"),
                "--clean", str(sim_dir / "clean.wav"),
                "--noise", str(sim_dir / "noise.wav"),
                "--vad", "none",
                "--beamformer", "irtf,gev",
                "--csv", str(out_csv),
            ]
        )
        assert code == 2
        assert not out_csv.exists()
        assert "SIR=" not in capsys.readouterr().out

    # each stem fault is caught before the first configuration runs,
    # whatever the VAD mode
    @pytest.mark.parametrize("fault", ["one-channel-clean", "noise-at-8k", "short-noise"])
    def test_mismatched_stems_rejected_before_any_run(self, sim_dir, tmp_path, capsys, fault):
        clean, noise = (read_wav(sim_dir / f"{name}.wav") for name in ("clean", "noise"))
        if fault == "one-channel-clean":
            clean = MultichannelSignal(clean.samples[:1], clean.sample_rate)
        elif fault == "noise-at-8k":
            noise = MultichannelSignal(noise.samples, 8000)
        else:
            noise = MultichannelSignal(noise.samples[:, : noise.n_samples // 2], noise.sample_rate)
        write_wav(clean, tmp_path / "clean.wav")
        write_wav(noise, tmp_path / "noise.wav")
        out_csv = tmp_path / "sweep.csv"
        argv = [
            "sweep",
            "--input", str(sim_dir / "mixture.wav"),
            "--clean", str(tmp_path / "clean.wav"),
            "--noise", str(tmp_path / "noise.wav"),
            "--vad", "none",
            "--beamformer", "irtf",
            "--ref-channel", "2",
            "--csv", str(out_csv),
        ]
        with mock.patch("blockbeam.cli.run_with_diagnostics") as enhance:
            assert main(argv) == 2
        enhance.assert_not_called()
        assert not out_csv.exists()
        assert "SIR=" not in capsys.readouterr().out

    def test_stem_rate_error_names_the_stem(self, sim_dir, tmp_path, capsys):
        # without an oracle VAD no oracle mask is made, so the error names
        # the noise stem, not an oracle
        noise = read_wav(sim_dir / "noise.wav")
        write_wav(MultichannelSignal(noise.samples, 8000), tmp_path / "noise.wav")
        argv = [
            "sweep",
            "--input", str(sim_dir / "mixture.wav"),
            "--clean", str(sim_dir / "clean.wav"),
            "--noise", str(tmp_path / "noise.wav"),
            "--vad", "none",
            "--beamformer", "irtf",
            "--csv", str(tmp_path / "sweep.csv"),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "noise stem rate 8000" in err
        assert "oracle" not in err

    def test_without_stems_is_config_error(self, tmp_path, capsys):
        # sweep scores against the stems, so it needs them whatever the VAD;
        # the check comes before any file is read
        argv = ["sweep", "--input", str(tmp_path / "absent.wav"), "--csv", str(tmp_path / "s.csv")]
        assert main(argv) == 2
        assert "--clean and --noise" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_unknown_beamformer_is_config_error(self, sim_dir, tmp_path):
        code = main(
            [
                "sweep",
                "--input", str(sim_dir / "mixture.wav"),
                "--clean", str(sim_dir / "clean.wav"),
                "--noise", str(sim_dir / "noise.wav"),
                "--beamformer", "mwf",
                "--csv", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 2


def _stem_args(sim_dir):
    return ["--clean", str(sim_dir / "clean.wav"), "--noise", str(sim_dir / "noise.wav")]


class TestArgumentValidation:
    """--ref-channel is 1-based and --filter-len counts taps: both must be
    integers >= 1, rejected by argparse with exit code 2."""

    @pytest.mark.parametrize("value", ["0", "-1", "-5", "x"])
    @pytest.mark.parametrize("command", ["enhance", "evaluate", "sweep"])
    def test_ref_channel_below_one_rejected(self, sim_dir, tmp_path, command, value):
        argv = {
            "enhance": ["enhance", "--input", str(sim_dir / "mixture.wav"), "--output", str(tmp_path / "o.wav")],
            "evaluate": ["evaluate", "--estimate", str(sim_dir / "mixture.wav"), *_stem_args(sim_dir)],
            "sweep": ["sweep", "--input", str(sim_dir / "mixture.wav"), *_stem_args(sim_dir), "--csv", str(tmp_path / "s.csv")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--ref-channel={value}"])
        assert exc.value.code == 2
        assert not (tmp_path / "o.wav").exists() and not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_filter_len_below_one_rejected(self, sim_dir, tmp_path, command, value):
        argv = {
            "evaluate": ["evaluate", "--estimate", str(sim_dir / "mixture.wav"), *_stem_args(sim_dir)],
            "sweep": ["sweep", "--input", str(sim_dir / "mixture.wav"), *_stem_args(sim_dir), "--csv", str(tmp_path / "s.csv")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--filter-len={value}"])
        assert exc.value.code == 2


    @pytest.mark.parametrize(
        "option,value",
        [
            ("--block-ms", "nan"),
            ("--block-ms", "inf"),
            ("--block-ms", "-inf"),
            ("--t-snr", "nan"),
            ("--t-snr", "inf"),
        ],
    )
    def test_non_finite_value_is_config_error(self, sim_dir, tmp_path, capsys, option, value):
        out = tmp_path / "o.wav"
        argv = ["enhance", "--input", str(sim_dir / "mixture.wav"), "--output", str(out), "--vad", "oracle"]
        code = main([*argv, *_stem_args(sim_dir), f"{option}={value}"])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_block_ms_not_a_number_is_config_error(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "o.wav"
        argv = ["enhance", "--input", str(sim_dir / "mixture.wav"), "--output", str(out), "--block-ms", "abc"]
        assert main(argv) == 2
        assert "--block-ms must be a millisecond count or 'batch', got 'abc'" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["enhance", "sweep"])
def test_pooling_option_is_gone(sim_dir, tmp_path, command):
    # the RTF estimator reads only the median-pooled mask, so argparse
    # rejects the former --pooling option as unknown
    argv = {
        "enhance": ["enhance", "--input", str(sim_dir / "mixture.wav"), "--output", str(tmp_path / "o.wav")],
        "sweep": ["sweep", "--input", str(sim_dir / "mixture.wav"), *_stem_args(sim_dir), "--csv", str(tmp_path / "s.csv")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--pooling", "median"])
    assert exc.value.code == 2


def test_pairing_override_option_is_gone(sim_dir, tmp_path):
    # the pairings of VALID_PAIRINGS, and gev only with a VAD, are the only
    # configurations, so argparse rejects the former override as unknown
    argv = ["enhance", "--input", str(sim_dir / "mixture.wav"), "--output", str(tmp_path / "o.wav")]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--beamformer", "gev", "--postfilter", "ban", REMOVED_OVERRIDE])
    assert exc.value.code == 2
    assert not (tmp_path / "o.wav").exists()


def test_readme_documents_every_option():
    # README's "Command line" section names each subcommand's options, and
    # names no option that no subcommand has: a flag added or removed
    # without the docs fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("\n## Command line\n") :]
    section = section[: section.index("\n## ", 1)]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        option
        for parser in subcommands.choices.values()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert sorted(options - documented) == []
    assert sorted(documented - options) == []


class TestTooShortInput:
    """Input shorter than one block, or stems shorter than the estimate, is a
    configuration error (exit 2): the block length or the stem choice does
    not fit the input, while the files themselves are readable."""

    def test_input_shorter_than_one_block_exits_2(self, tmp_path, capsys):
        short = tmp_path / "short.wav"
        rng = np.random.default_rng(0)
        write_wav(MultichannelSignal(rng.standard_normal((2, 400)), 16000), short)
        code = main(["enhance", "--input", str(short), "--output", str(tmp_path / "o.wav")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o.wav").exists()

    def test_estimate_shorter_than_filter_exits_2(self, sim_dir, tmp_path, capsys):
        est = tmp_path / "est.wav"
        write_wav(MultichannelSignal(read_wav(sim_dir / "clean.wav").samples[0:1, :20], 16000), est)
        code = main(["evaluate", "--estimate", str(est), *_stem_args(sim_dir), "--filter-len", "32"])
        assert code == 2
        captured = capsys.readouterr()
        assert "shorter than the projection filter" in captured.err and "sir_db" not in captured.out

    def test_stems_shorter_than_estimate_exits_2(self, sim_dir, tmp_path):
        est = tmp_path / "est.wav"
        clean = read_wav(sim_dir / "clean.wav")
        write_wav(MultichannelSignal(np.zeros((1, clean.n_samples + 100)), 16000), est)
        code = main(["evaluate", "--estimate", str(est), *_stem_args(sim_dir)])
        assert code == 2


# every subcommand in one process: argv is the scipy mode, the output
# directory, the weight file and the mixture config
CLI_WITHOUT_SCIPY = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # `import scipy` and `import scipy.x` now raise ImportError
from blockbeam.cli import main
out, weights, config = sys.argv[2:]
stems = ["--clean", f"{out}/clean.wav", "--noise", f"{out}/noise.wav"]
mixture = ["--input", f"{out}/mixture.wav"]
codes = [
    main(["simulate", "--config", config, "--out-dir", out]),
    main(["enhance", *mixture, "--output", f"{out}/oracle.wav", "--beamformer", "mvdr", "--postfilter", "wiener",
          "--vad", "oracle", *stems]),
    main(["enhance", *mixture, "--output", f"{out}/network.wav", "--vad", "network", "--vad-weights", weights,
          "--encoding", "pcm16"]),
    main(["evaluate", "--estimate", f"{out}/oracle.wav", *stems, "--json", f"{out}/report.json"]),
    main(["sweep", *mixture, *stems, "--vad", "oracle", "--beamformer", "irtf,gev", "--block-ms", "800,batch",
          "--csv", f"{out}/sweep.csv"]),
]
print(codes)
print(sorted(m for m, module in sys.modules.items() if m.split(".")[0] == "scipy" and module is not None))
"""


def test_cli_runs_without_scipy(tmp_path):
    # with scipy unimportable every subcommand exits 0 and writes the bytes
    # it writes with scipy importable; neither run loads a scipy module
    config = tmp_path / "mix.json"
    config.write_text(json.dumps({"channels": 3, "duration_s": 1.0, "seed": 5, "delays": [0, 2, 5]}))
    rng = np.random.default_rng(0)
    weights = tmp_path / "net.json"
    layers = [
        {"w": (0.05 * rng.standard_normal((16, 257))).tolist(), "b": [0.0] * 16, "act": "relu"},
        {"w": (0.05 * rng.standard_normal((257, 16))).tolist(), "b": [1.0] * 257, "act": "sigmoid"},
    ]
    weights.write_text(json.dumps({"layers": layers, "mean": [0.0] * 257, "std": [1.0] * 257}))
    src = str(Path(blockbeam.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outputs = {}
    for mode in ("blocked", "importable"):
        out = tmp_path / mode
        out.mkdir()
        argv = [sys.executable, "-c", CLI_WITHOUT_SCIPY, mode, str(out), str(weights), str(config)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[0, 0, 0, 0, 0]", "[]"]
        outputs[mode] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(outputs["blocked"]) == [
        "clean.wav", "mixture.wav", "network.wav", "noise.wav", "oracle.wav", "report.json", "rtf.json", "sweep.csv"
    ]
    assert outputs["blocked"] == outputs["importable"]
