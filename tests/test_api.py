"""The library surface that the benchmark scripts under `benchmarks/` use.

`benchmarks/worker.py` and `benchmarks/selftest.py` import these modules and
names and pass these `PipelineConfig` keywords, and `worker.fallback_sums`
reads these keys of `BlockDiagnostics.to_json_dict()`. A change that renames
or removes any of them breaks the benchmark, so this test fails first.
"""

import dataclasses
import importlib

import numpy as np
import pytest

import blockbeam
from blockbeam import evalsim, pipeline
from blockbeam.audio_io import MultichannelSignal

USED_NAMES = {
    "blockbeam": ["__version__", "audio_io", "evalsim", "pipeline", "stft"],
    "blockbeam.audio_io": ["MultichannelSignal", "load_network", "read_wav", "write_wav"],
    "blockbeam.stft": ["StftConfig"],
    "blockbeam.evalsim": [
        "MixtureSpec",
        "decaying_firs",
        "delay_firs",
        "evaluate_estimate",
        "pink_noise",
        "simulate",
        "speech_like_source",
    ],
    "blockbeam.pipeline": ["OracleStems", "PipelineConfig", "run", "run_with_diagnostics"],
}

# the PipelineConfig keywords that the benchmark scripts pass
CONFIG_FIELDS = ["block_frames", "beamformer", "postfilter", "vad_mode"]

# the modules the benchmark's tracer wraps, one span layer each
TRACED_LAYERS = [
    "audio_io", "stft", "channel_health", "vad", "rtf", "beamform", "postfilter", "pipeline", "evalsim"
]


@pytest.mark.parametrize("module", sorted(USED_NAMES))
def test_benchmark_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in USED_NAMES[module] if not hasattr(mod, name)]
    assert missing == []


def test_benchmark_config_fields_exist():
    fields = {f.name for f in dataclasses.fields(pipeline.PipelineConfig)}
    assert set(CONFIG_FIELDS) <= fields


def test_traced_layers_import():
    for layer in TRACED_LAYERS:
        importlib.import_module(f"blockbeam.{layer}")


def test_stft_config_fields():
    cfg = blockbeam.stft.StftConfig()
    assert (cfg.frame_len, cfg.hop, cfg.n_bins) == (512, 128, 257)


def test_diagnostics_keys_and_result_fields():
    rng = np.random.default_rng(0)
    dry = evalsim.speech_like_source(1.0, 16000, rng)
    spec = evalsim.MixtureSpec(
        channel_count=4, firs=evalsim.delay_firs([0, 2, 5, 7])[np.newaxis], noise_kind="pink", snr_db=5.0
    )
    sim = evalsim.simulate(spec, dry, evalsim.pink_noise(4, dry.shape[0], rng), sample_rate=16000)
    oracle = pipeline.OracleStems(clean=sim.clean, noise=sim.noise)
    cfg = pipeline.PipelineConfig(block_frames=50, beamformer="mvdr", postfilter="wiener", vad_mode="oracle")
    assert not cfg.is_batch

    out, results = pipeline.run_with_diagnostics(sim.mixture, cfg, oracle=oracle)
    assert isinstance(out, MultichannelSignal)
    assert out.samples.shape == (1, out.n_samples)
    assert sim.mixture.duration == pytest.approx(1.0, abs=1e-3)
    for result in results:
        record = result.diagnostics.to_json_dict()
        assert isinstance(record["passthrough"], bool)
        assert isinstance(record["active_channels"], list)
        assert set(record["fallbacks"]) >= {
            "rtf_variance_guard_bins",
            "mvdr_fallback_bins",
            "gev_degenerate_bins",
            "gev_noise_loaded_bins",
            "noise_cov_loaded_bins",
        }
        assert {"rtf", "noise_est", "beamform"} <= set(record["timings_s"])

    n = out.n_samples
    report = evalsim.evaluate_estimate(out.samples[0], sim.clean.samples[0, :n], sim.noise.samples[:, :n])
    assert isinstance(report.capped, bool)
    assert np.isfinite(report.sir_db) and np.isfinite(report.sdr_db)
