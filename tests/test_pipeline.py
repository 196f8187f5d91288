import contextlib
import copy
import dataclasses
import functools
import json
import os
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockbeam import beamform, pipeline, rtf, stft
from blockbeam.audio_io import MultichannelSignal, NetworkLayer, NetworkWeights
from blockbeam.beamform import apply_weights, gev_weights, irtf_weights, mvdr_weights, noise_projection
from blockbeam.errors import ConfigError, DataError, SizeError
from blockbeam.evalsim import (
    MixtureSpec,
    decaying_firs,
    delay_firs,
    pink_noise,
    simulate,
    speech_like_source,
    white_noise,
)
from blockbeam.pipeline import (
    BlockDiagnostics,
    OracleStems,
    PipelineConfig,
    VAD_MODES,
    VALID_PAIRINGS,
    _pooled_mask,
    _stage_timer,
    partition_frames,
    process_block,
    run,
    run_with_diagnostics,
)
from blockbeam.postfilter import projected_residual, wiener_mask
from blockbeam.rtf import build_rtf_set
from blockbeam.stft import _on_threads, analyze, chunk_slices, frame_span, frames_for_duration_ms, synthesize
from blockbeam.vad import infer_mask, oracle_ibm, pool_median
from reference import estimate_noise


def gain_mixture(seed=0, duration=1.0, gains=(1.0, 0.8, 1.2, 0.9), snr_db=5.0, noise_fn=white_noise):
    """Static mixture whose channels differ only by real gains, so the
    per-bin channel relations are exact on the STFT grid."""
    rng = np.random.default_rng(seed)
    dry = speech_like_source(duration, 16000, rng)
    firs = delay_firs([0] * len(gains)) * np.asarray(gains)[:, np.newaxis]
    spec = MixtureSpec(channel_count=len(gains), firs=firs[np.newaxis], snr_db=snr_db)
    sim = simulate(spec, dry, noise_fn(len(gains), dry.shape[0], rng))
    return sim


def random_network(seed, dims=(257, 64, 48, 257)):
    """ReLU network with a sigmoid output and seeded random weights."""
    rng = np.random.default_rng(seed)
    acts = ["relu"] * (len(dims) - 2) + ["sigmoid"]
    return NetworkWeights(
        layers=[
            NetworkLayer(rng.standard_normal((d_out, d_in)) / np.sqrt(d_in), rng.standard_normal(d_out), act)
            for d_in, d_out, act in zip(dims[:-1], dims[1:], acts)
        ],
        input_mean=rng.uniform(0.0, 1.0, dims[0]),
        input_std=rng.uniform(0.5, 2.0, dims[0]),
    )


def stage_set(beamformer, postfilter, vad_mode):
    """Timed stages of one non-passthrough process_block call."""
    stages = ["failure_detection", "stft", "vad", "beamform", "postfilter"]
    if vad_mode == "oracle":
        stages.append("oracle_stft")
    if beamformer != "gev":
        stages.append("rtf")
    if beamformer == "mvdr" or postfilter == "wiener":
        stages.append("noise_est")
    return stages


class TestPipelineConfig:
    def test_invalid_pairings_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(beamformer="gev", postfilter="wiener")
        with pytest.raises(ConfigError):
            PipelineConfig(beamformer="irtf", postfilter="ban")
        with pytest.raises(ConfigError):
            PipelineConfig(beamformer="mvdr", postfilter="ban")

    def test_gev_without_vad_rejected(self):
        for postfilter in ("none", "ban"):
            with pytest.raises(ConfigError, match="gev"):
                PipelineConfig(beamformer="gev", postfilter=postfilter, vad_mode="none")
        for vad_mode in ("oracle", "network"):
            PipelineConfig(beamformer="gev", postfilter="ban", vad_mode=vad_mode)

    def test_valid_pairings(self):
        PipelineConfig(beamformer="gev", postfilter="ban")
        PipelineConfig(beamformer="irtf", postfilter="wiener")
        PipelineConfig(beamformer="mvdr", postfilter="none")

    @pytest.mark.parametrize("t_snr", [np.nan, np.inf, -np.inf])
    def test_non_finite_t_snr_rejected(self, t_snr):
        with pytest.raises(ConfigError, match="t_snr"):
            PipelineConfig(t_snr=t_snr)

    def test_block_shorter_than_two_sub_blocks_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(block_frames=19, sub_block_len=10)

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(beamformer="mwf")
        with pytest.raises(ConfigError):
            PipelineConfig(vad_mode="blstm")
        with pytest.raises(ConfigError, match="unknown postfilter"):
            PipelineConfig(postfilter="median")
        with pytest.raises(ConfigError):
            PipelineConfig(block_frames="online")
        # counts and indices must be ints: a bool or a fraction names its field
        for field, value in [
            ("ref_channel", 1.5), ("sub_block_len", 2.5), ("sub_block_len", True), ("block_frames", True)
        ]:
            with pytest.raises(ConfigError, match=f"{field} must be an int"):
                PipelineConfig(**{field: value})
        # thresholds must be numbers: a bool is not read as 1 or 0, and a
        # string names its field rather than failing a comparison
        for field, value in [("t_mu", True), ("t_snr", True), ("t_snr", False), ("t_mu", "0.5"), ("t_snr", "5")]:
            with pytest.raises(ConfigError, match=f"{field} must be a number"):
                PipelineConfig(**{field: value})

    def test_frames_for_duration(self):
        assert frames_for_duration_ms(250) == 31
        assert frames_for_duration_ms(400) == 50
        assert frames_for_duration_ms(800) == 100
        assert frames_for_duration_ms(2000) == 250
        # one check, here and for the CLI's --block-ms: positive, with a
        # finite frame count
        for duration_ms in (np.nan, np.inf, -np.inf, -5.0, 0.0, 1e308):
            with pytest.raises(ConfigError, match="positive and finite"):
                frames_for_duration_ms(duration_ms)


class TestPartitionFrames:
    def test_four_seconds_in_800ms_blocks(self):
        cfg = PipelineConfig(block_frames=100)
        parts = partition_frames(64000, cfg)
        # 497 total frames: 4 full blocks plus a 97-frame remainder block
        assert len(parts) == 5
        assert [n for _, n in parts] == [100, 100, 100, 100, 97]
        assert [s for s, _ in parts] == [0, 100, 200, 300, 400]

    def test_small_remainder_merges(self):
        cfg = PipelineConfig(block_frames=100, sub_block_len=10)
        # 106 frames: remainder 6 < 2*10 merges into the single block
        n_samples = 512 + 105 * 128
        parts = partition_frames(n_samples, cfg)
        assert parts == [(0, 106)]

    def test_batch_single_block(self):
        cfg = PipelineConfig(block_frames="batch")
        parts = partition_frames(64000, cfg)
        assert parts == [(0, 497)]

    def test_signal_shorter_than_block_rejected(self):
        cfg = PipelineConfig(block_frames=100)
        with pytest.raises(SizeError):
            partition_frames(6400, cfg)

    def test_sample_ranges_cover_frames(self):
        lo, hi = frame_span(100, 100)
        assert lo == 100 * 128
        assert hi - lo == 512 + 99 * 128


class TestProcessBlock:
    def test_noise_free_gain_mixture_recovers_source(self):
        # exact per-bin channel relations, oracle masks, no noise: the chain
        # is distortionless and the output matches the reference clean stem
        rng = np.random.default_rng(1)
        dry = speech_like_source(1.0, 16000, rng)
        firs = delay_firs([0, 0, 0]) * np.array([[1.0], [0.8], [1.2]])
        spec = MixtureSpec(channel_count=3, firs=firs[np.newaxis], snr_db=200.0)
        sim = simulate(spec, dry, white_noise(3, dry.shape[0], rng))
        cfg = PipelineConfig(block_frames=100, beamformer="irtf", postfilter="none", vad_mode="oracle")
        oracle = OracleStems(clean=sim.clean, noise=sim.noise)
        block = MultichannelSignal(sim.mixture.samples[:, :13184], 16000)
        block_oracle = OracleStems(
            clean=MultichannelSignal(sim.clean.samples[:, :13184], 16000),
            noise=MultichannelSignal(sim.noise.samples[:, :13184], 16000),
        )
        result = process_block(block, cfg, oracle=block_oracle)
        reference = analyze(block_oracle.clean.samples)[:, :, 0]
        err = np.linalg.norm(result.enhanced - reference)
        ref = np.linalg.norm(reference)
        assert 20 * np.log10(err / ref) < -60

    def test_silent_block_passthrough(self):
        cfg = PipelineConfig(block_frames=100, beamformer="irtf", postfilter="wiener", vad_mode="none")
        block = MultichannelSignal(np.zeros((3, 13184)), 16000)
        result = process_block(block, cfg)
        assert result.diagnostics.passthrough
        assert result.diagnostics.active_channels == []
        assert np.all(result.enhanced == 0)

    def test_one_channel_block_passes_through(self):
        block = MultichannelSignal(gain_mixture(seed=9, duration=1.0).mixture.samples[:1, :13184], 16000)
        result = process_block(block, PipelineConfig(block_frames=100, vad_mode="none"))
        assert result.diagnostics.passthrough
        assert result.diagnostics.active_channels == [0]
        assert np.array_equal(result.enhanced, analyze(block.samples)[:, :, 0])

    def test_dead_channel_excluded(self):
        sim = gain_mixture(seed=2, duration=1.0)
        samples = sim.mixture.samples.copy()
        rng = np.random.default_rng(3)
        samples[2] = rng.standard_normal(samples.shape[1])  # unrelated noise
        block = MultichannelSignal(samples[:, :13184], 16000)
        cfg = PipelineConfig(block_frames=100, beamformer="irtf", postfilter="none", vad_mode="none", t_mu=0.4)
        result = process_block(block, cfg)
        assert result.diagnostics.active_channels == [0, 1, 3]
        assert not result.diagnostics.passthrough

    def test_inactive_reference_falls_back(self):
        sim = gain_mixture(seed=4, duration=1.0)
        samples = sim.mixture.samples.copy()
        samples[0] = np.random.default_rng(5).standard_normal(samples.shape[1])
        block = MultichannelSignal(samples[:, :13184], 16000)
        cfg = PipelineConfig(
            block_frames=100, beamformer="irtf", postfilter="none", vad_mode="none",
            ref_channel=0, t_mu=0.4,
        )
        result = process_block(block, cfg)
        assert result.diagnostics.ref_fallback
        assert 0 not in result.diagnostics.active_channels

    def test_determinism(self):
        sim = gain_mixture(seed=6, duration=1.0)
        block = MultichannelSignal(sim.mixture.samples[:, :13184], 16000)
        oracle = OracleStems(
            clean=MultichannelSignal(sim.clean.samples[:, :13184], 16000),
            noise=MultichannelSignal(sim.noise.samples[:, :13184], 16000),
        )
        cfg = PipelineConfig(block_frames=100, beamformer="mvdr", postfilter="wiener", vad_mode="oracle")
        a = process_block(block, cfg, oracle=oracle)
        b = process_block(block, cfg, oracle=oracle)
        assert np.array_equal(a.enhanced, b.enhanced)

    def test_oracle_mode_requires_stems(self):
        sim = gain_mixture(seed=7, duration=1.0)
        block = MultichannelSignal(sim.mixture.samples[:, :13184], 16000)
        cfg = PipelineConfig(block_frames=100, vad_mode="oracle")
        with pytest.raises(ConfigError):
            process_block(block, cfg)

    def test_network_mode_requires_weights(self):
        sim = gain_mixture(seed=8, duration=1.0)
        block = MultichannelSignal(sim.mixture.samples[:, :13184], 16000)
        cfg = PipelineConfig(block_frames=100, vad_mode="network", postfilter="none")
        with pytest.raises(ConfigError):
            process_block(block, cfg)

    def test_timings_recorded(self):
        sim = gain_mixture(seed=9, duration=1.0)
        block = MultichannelSignal(sim.mixture.samples[:, :13184], 16000)
        cfg = PipelineConfig(block_frames=100, beamformer="irtf", postfilter="none", vad_mode="none")
        result = process_block(block, cfg)
        for stage in ("failure_detection", "stft", "vad", "rtf", "beamform", "postfilter"):
            assert stage in result.diagnostics.timings_s
        assert set(result.diagnostics.timings_s) == set(stage_set("irtf", "none", "none"))

    def test_keep_intermediates(self):
        # every result carries the stages' intermediates; no setting gates them
        sim = gain_mixture(seed=10, duration=1.0)
        block = MultichannelSignal(sim.mixture.samples[:, :13184], 16000)
        cfg = PipelineConfig(block_frames=100, beamformer="irtf", postfilter="none", vad_mode="none")
        result = process_block(block, cfg)
        assert result.pooled_mask is not None
        assert result.rtf is not None


class TestRun:
    def test_output_length_trim(self):
        sim = gain_mixture(seed=11, duration=2.03)
        cfg = PipelineConfig(block_frames=100, beamformer="irtf", postfilter="none", vad_mode="none")
        out = run(sim.mixture, cfg)
        n_frames = (sim.mixture.n_samples - 512) // 128 + 1
        assert out.channel_count == 1
        assert out.n_samples == 512 + (n_frames - 1) * 128

    def test_wrong_sample_rate_rejected(self):
        sig = MultichannelSignal(np.zeros((2, 8000)), 8000)
        with pytest.raises(ConfigError):
            run(sig, PipelineConfig(block_frames=100))

    def test_ref_channel_out_of_range_rejected(self):
        sim = gain_mixture(seed=20, duration=1.0)
        cfg = PipelineConfig(block_frames=100, ref_channel=7, vad_mode="none", postfilter="none")
        with pytest.raises(ConfigError):
            run(sim.mixture, cfg)

    def test_run_deterministic(self):
        sim = gain_mixture(seed=12, duration=1.5)
        oracle = OracleStems(clean=sim.clean, noise=sim.noise)
        cfg = PipelineConfig(block_frames=50, beamformer="mvdr", postfilter="wiener", vad_mode="oracle")
        a = run(sim.mixture, cfg, oracle=oracle)
        b = run(sim.mixture, cfg, oracle=oracle)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize(
        "beamformer,postfilter,vad_mode,dead_ref",
        [
            pytest.param(bf, pf, vad, False, id=f"{bf}-{pf}-{vad}")
            for bf in sorted(VALID_PAIRINGS)
            for pf in sorted(VALID_PAIRINGS[bf])
            for vad in VAD_MODES
            if (bf, vad) != ("gev", "none")
        ]
        + [pytest.param("mvdr", "wiener", "oracle", True, id="dead-reference")],
    )
    def test_block_independence(self, beamformer, postfilter, vad_mode, dead_ref):
        # every block's result is the same, bit for bit, whether the block
        # runs in the stream or standalone through process_block on the
        # same samples; a dead reference channel forces ref_fallback
        sim = gain_mixture(seed=13, duration=2.0)
        mixture = sim.mixture.samples.copy()
        if dead_ref:
            mixture[0] = 0.0
        oracle = OracleStems(clean=sim.clean, noise=sim.noise)
        network = random_network(13)
        cfg = PipelineConfig(block_frames=100, beamformer=beamformer, postfilter=postfilter, vad_mode=vad_mode)
        _, results = run_with_diagnostics(MultichannelSignal(mixture, 16000), cfg, network, oracle)
        parts = partition_frames(mixture.shape[1], cfg)
        assert len(parts) == 3
        for (start, count), joint in zip(parts, results, strict=True):
            lo, hi = frame_span(start, count)
            block = MultichannelSignal(mixture[:, lo:hi], 16000)
            block_oracle = OracleStems(
                clean=MultichannelSignal(sim.clean.samples[:, lo:hi], 16000),
                noise=MultichannelSignal(sim.noise.samples[:, lo:hi], 16000),
            )
            alone = process_block(block, cfg, network, block_oracle)
            for name in ("enhanced", "pooled_mask", "rtf"):
                a, b = getattr(alone, name), getattr(joint, name)
                assert a is b is None or (a.shape == b.shape and a.tobytes() == b.tobytes()), name
            for name in ("active_channels", "ref_fallback", "fallbacks"):
                assert getattr(alone.diagnostics, name) == getattr(joint.diagnostics, name), name
            assert joint.diagnostics.ref_fallback == dead_ref

    def test_passthrough_recovers_reference_for_identity_blocks(self):
        # an all-dead-channel recording passes the reference through; the
        # resynthesized output must match the reference channel samples
        rng = np.random.default_rng(14)
        samples = np.stack([rng.standard_normal(32000), rng.standard_normal(32000)])
        sig = MultichannelSignal(samples, 16000)
        cfg = PipelineConfig(block_frames=100, beamformer="irtf", postfilter="none", vad_mode="none", t_mu=0.9)
        out, results = run_with_diagnostics(sig, cfg)
        assert all(r.diagnostics.passthrough for r in results)
        n = out.n_samples
        assert np.allclose(out.samples[0], samples[0][:n], atol=1e-10)

    def test_batch_equals_single_block(self):
        sim = gain_mixture(seed=15, duration=1.5)
        cfg_batch = PipelineConfig(block_frames="batch", beamformer="irtf", postfilter="none", vad_mode="none")
        out_batch = run(sim.mixture, cfg_batch)
        n_frames = (sim.mixture.n_samples - 512) // 128 + 1
        cfg_block = PipelineConfig(block_frames=n_frames, beamformer="irtf", postfilter="none", vad_mode="none")
        out_block = run(sim.mixture, cfg_block)
        assert np.array_equal(out_batch.samples, out_block.samples)

    def test_silence_energy_not_amplified(self):
        sig = MultichannelSignal(np.zeros((3, 32000)), 16000)
        cfg = PipelineConfig(block_frames=100, beamformer="irtf", postfilter="wiener", vad_mode="none")
        out = run(sig, cfg)
        assert np.sum(out.samples**2) <= np.sum(sig.samples[0] ** 2)

    def test_oracle_stems_validated(self):
        sim = gain_mixture(seed=16, duration=1.0)
        short = OracleStems(
            clean=MultichannelSignal(sim.clean.samples[:, :100], 16000),
            noise=sim.noise,
        )
        cfg = PipelineConfig(block_frames=100, vad_mode="oracle")
        with pytest.raises(SizeError):
            run(sim.mixture, cfg, oracle=short)

    def test_gev_pipeline_runs(self):
        sim = gain_mixture(seed=17, duration=1.0, noise_fn=pink_noise)
        oracle = OracleStems(clean=sim.clean, noise=sim.noise)
        cfg = PipelineConfig(block_frames=100, beamformer="gev", postfilter="ban", vad_mode="oracle")
        out, results = run_with_diagnostics(sim.mixture, cfg, oracle=oracle)
        assert out.n_samples > 0
        assert np.all(np.isfinite(out.samples))

    def test_ban_postfilter_scales_gev_beam_by_its_gain(self):
        # post-filter "ban" multiplies each bin of the plain GEV beam by the
        # BAN gain that gev_weights returns with the weights
        block = MultichannelSignal(gain_mixture(seed=18, duration=1.0).mixture.samples[:, :13184], 16000)
        net = NetworkWeights(
            layers=[NetworkLayer(np.zeros((257, 257)), np.linspace(-3.0, 3.0, 257), "sigmoid")],
            input_mean=np.zeros(257),
            input_std=np.ones(257),
        )
        results = {}
        for postfilter in ("none", "ban"):
            cfg = PipelineConfig(block_frames=100, beamformer="gev", postfilter=postfilter, vad_mode="network")
            results[postfilter] = process_block(block, cfg, net)
        _, ban_gain, _, _ = gev_weights(analyze(block.samples), results["ban"].pooled_mask)
        assert not np.allclose(ban_gain, 1.0)
        assert np.allclose(results["ban"].enhanced, ban_gain[:, None] * results["none"].enhanced)

    def test_network_vad_end_to_end(self):
        # a one-layer net whose positive bias saturates the sigmoid acts as
        # an always-on detector, so the run must match vad_mode="none" with
        # the VAD override active on every bin
        net = NetworkWeights(
            layers=[NetworkLayer(np.zeros((257, 257)), np.full(257, 30.0), "sigmoid")],
            input_mean=np.zeros(257),
            input_std=np.ones(257),
        )
        sim = gain_mixture(seed=18, duration=1.0)
        cfg = PipelineConfig(block_frames=100, beamformer="irtf", postfilter="none", vad_mode="network")
        out = run(sim.mixture, cfg, network=net)
        cfg_none = PipelineConfig(block_frames=100, beamformer="irtf", postfilter="none", vad_mode="none")
        out_none = run(sim.mixture, cfg_none)
        assert np.allclose(out.samples, out_none.samples, atol=1e-9)


def test_oracle_stem_sample_rate_checked():
    sim = gain_mixture(seed=21, duration=1.0)
    wrong_rate = OracleStems(
        clean=MultichannelSignal(sim.clean.samples, 8000),
        noise=sim.noise,
    )
    cfg = PipelineConfig(block_frames=100, vad_mode="oracle")
    with pytest.raises(ConfigError, match="rate"):
        run(sim.mixture, cfg, oracle=wrong_rate)
    wrong_noise = OracleStems(clean=sim.clean, noise=MultichannelSignal(sim.noise.samples, 8000))
    with pytest.raises(ConfigError, match="rate"):
        run(sim.mixture, cfg, oracle=wrong_noise)


def stem_block(seed=32):
    """A correlated 4-channel 100-frame block and its oracle stems, each
    twice the block's length."""
    sim = gain_mixture(seed=seed, duration=2.0)
    n = 13184
    return (
        MultichannelSignal(sim.mixture.samples[:, :n], 16000),
        sim.clean.samples[:, : 2 * n],
        sim.noise.samples[:, : 2 * n],
    )


@pytest.mark.parametrize("vad_mode", VAD_MODES)
def test_process_block_rejects_stems_with_too_few_channels(vad_mode):
    # given stems are checked whatever the VAD mode, as run checks them
    block, clean, noise = stem_block()
    n = block.n_samples
    oracle = OracleStems(MultichannelSignal(clean[:2, :n], 16000), MultichannelSignal(noise[:2, :n], 16000))
    cfg = PipelineConfig(block_frames=100, vad_mode=vad_mode)
    with pytest.raises(SizeError, match="clean stem must cover"):
        process_block(block, cfg, random_network(33), oracle=oracle)


def test_process_block_reads_the_first_samples_of_longer_stems():
    block, clean, noise = stem_block()
    n = block.n_samples
    cfg = PipelineConfig(block_frames=100, vad_mode="oracle")
    exact = process_block(
        block, cfg, oracle=OracleStems(MultichannelSignal(clean[:, :n], 16000), MultichannelSignal(noise[:, :n], 16000))
    )
    longer = process_block(
        block, cfg, oracle=OracleStems(MultichannelSignal(clean, 16000), MultichannelSignal(noise, 16000))
    )
    assert np.array_equal(longer.pooled_mask, exact.pooled_mask)
    assert np.array_equal(longer.enhanced, exact.enhanced)


@pytest.mark.parametrize("vad_mode", VAD_MODES)
def test_process_block_rejects_stems_at_another_rate(vad_mode):
    block, clean, noise = stem_block()
    n = block.n_samples
    oracle = OracleStems(MultichannelSignal(clean[:, :n], 8000), MultichannelSignal(noise[:, :n], 8000))
    cfg = PipelineConfig(block_frames=100, vad_mode=vad_mode)
    with pytest.raises(ConfigError, match="rate"):
        process_block(block, cfg, random_network(33), oracle=oracle)


ENTRIES = {"process_block": process_block, "run_with_diagnostics": run_with_diagnostics, "run": run}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("vad_mode", ["oracle", "network"])
def test_missing_vad_input_is_refused_on_silent_input(vad_mode, entry):
    # the check does not depend on the data: a silent block, which passes
    # through without reaching the VAD, is refused as a loud one is
    cfg = PipelineConfig(block_frames=100, vad_mode=vad_mode)
    with pytest.raises(ConfigError, match=f"{vad_mode} VAD mode needs"):
        ENTRIES[entry](MultichannelSignal(np.zeros((3, 13184)), 16000), cfg)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("dims", [(257, 64, 10), (257, 64, 514), (100, 64, 257)], ids=str)
def test_network_of_another_size_is_refused_at_entry(dims, entry):
    # a network must map the 257 bins to 257 masks; it is checked before any
    # block runs, so a silent input is refused too
    cfg = PipelineConfig(block_frames=100, vad_mode="network")
    net = random_network(45, dims)
    for samples in (stem_block()[0].samples, np.zeros((3, 13184))):
        with pytest.raises(SizeError, match=f"maps {dims[0]} bins to {dims[-1]}, not 257 to 257"):
            ENTRIES[entry](MultichannelSignal(samples, 16000), cfg, net)


def test_batch_pass_too_short_for_the_rtf_estimator_is_refused():
    # 15 frames hold one 10-frame sub-block: irtf/mvdr are refused before
    # the block runs, on loud and silent input, by a batch pass and by
    # process_block; gev needs no RTF
    loud = MultichannelSignal(stem_block()[0].samples[:, :2304], 16000)
    assert (loud.n_samples - 512) // 128 + 1 == 15
    silent = MultichannelSignal(np.zeros((3, 2304)), 16000)
    for beamformer, postfilter in [("irtf", "wiener"), ("mvdr", "none")]:
        cfg = PipelineConfig(block_frames="batch", beamformer=beamformer, postfilter=postfilter, vad_mode="none")
        for signal in (loud, silent):
            with pytest.raises(SizeError, match="15 frames; the RTF estimator needs 2 sub-blocks"):
                run_with_diagnostics(signal, cfg)
            with pytest.raises(SizeError, match="^block has 15 frames; the RTF estimator needs 2 sub-blocks"):
                process_block(signal, cfg)
    cfg = PipelineConfig(block_frames="batch", beamformer="gev", postfilter="ban", vad_mode="network")
    (result,) = run_with_diagnostics(loud, cfg, random_network(46))[1]
    assert not result.diagnostics.passthrough
    assert not process_block(loud, cfg, random_network(46)).diagnostics.passthrough


def test_ban_gain_is_applied_in_the_postfilter_stage():
    # the BAN scaling reads the gain while the `postfilter` stage is timed
    stages, reads = [], []

    @contextlib.contextmanager
    def recording_timer(timings, name):
        stages.append(name)
        try:
            with _stage_timer(timings, name):
                yield
        finally:
            stages.pop()

    class Gain(np.ndarray):
        def __getitem__(self, key):
            reads.append(stages[-1] if stages else None)
            return np.asarray(self)[key]

    def spy(bins, mask):
        weights, ban, *counts = gev_weights(bins, mask)
        return weights, ban.view(Gain), *counts

    block, clean, noise = stem_block()
    n = block.n_samples
    oracle = OracleStems(MultichannelSignal(clean[:, :n], 16000), MultichannelSignal(noise[:, :n], 16000))
    cfg = PipelineConfig(block_frames=100, beamformer="gev", postfilter="ban", vad_mode="oracle")
    with (
        mock.patch("blockbeam.pipeline._stage_timer", recording_timer),
        mock.patch("blockbeam.pipeline.gev_weights", spy),
    ):
        process_block(block, cfg, oracle=oracle)
    assert reads == ["postfilter"]


@pytest.mark.parametrize("live_channels", [4, 1])
def test_process_block_rejects_another_rate(live_channels):
    # the enhancing path and the one-live-channel passthrough path both
    # analyze on the 16 kHz frame grid, so each rejects an 8 kHz block
    block, _, _ = stem_block()
    samples = block.samples.copy()
    samples[live_channels:] = 0.0
    cfg = PipelineConfig(block_frames=100, vad_mode="none")
    at_grid_rate = process_block(MultichannelSignal(samples, 16000), cfg)
    assert at_grid_rate.diagnostics.passthrough == (live_channels == 1)
    with pytest.raises(ConfigError, match="rate 8000"):
        process_block(MultichannelSignal(samples, 8000), cfg)


PAIRINGS = [(bf, pf) for bf in sorted(VALID_PAIRINGS) for pf in sorted(VALID_PAIRINGS[bf])]


def vad_modes_of(beamformer):
    """The VAD modes among none/oracle that a beamformer runs with: gev
    needs speech masks."""
    return ["oracle"] if beamformer == "gev" else ["none", "oracle"]


@pytest.mark.parametrize(
    "beamformer,postfilter,vad_mode",
    [(bf, pf, vad) for vad in ("none", "oracle") for bf, pf in PAIRINGS if vad in vad_modes_of(bf)],
)
def test_timing_stages_per_pairing(beamformer, postfilter, vad_mode):
    # each stage is timed under its own name: the noise estimate only when
    # MVDR or the Wiener filter uses it, the oracle-stem STFT only with
    # oracle masks, and synthesis only by run_with_diagnostics
    sim = gain_mixture(seed=22, duration=1.0)
    oracle = OracleStems(clean=sim.clean, noise=sim.noise)
    cfg = PipelineConfig(block_frames=100, beamformer=beamformer, postfilter=postfilter, vad_mode=vad_mode)
    expected = set(stage_set(beamformer, postfilter, vad_mode))
    _, results = run_with_diagnostics(sim.mixture, cfg, oracle=oracle)
    for result in results:
        assert set(result.diagnostics.timings_s) == expected | {"synthesis"}
    block = MultichannelSignal(sim.mixture.samples[:, :13184], 16000)
    block_oracle = OracleStems(
        clean=MultichannelSignal(sim.clean.samples[:, :13184], 16000),
        noise=MultichannelSignal(sim.noise.samples[:, :13184], 16000),
    )
    assert set(process_block(block, cfg, oracle=block_oracle).diagnostics.timings_s) == expected


@pytest.mark.parametrize(
    "beamformer,postfilter,block_frames",
    [
        pytest.param(bf, pf, frames, id=f"{bf}-{pf}" if frames == 100 else f"{bf}-{pf}-{frames}")
        for frames in (100, "batch")
        for bf, pf in (("irtf", "wiener"), ("mvdr", "wiener"), ("gev", "ban"))
    ],
)
def test_stage_timings_cover_wall_time(beamformer, postfilter, block_frames):
    # the Wiener stage's bin-chunk loop runs inside the `postfilter` timer;
    # a batch pass spans several chunks
    sim = gain_mixture(seed=23, duration=3.3)
    oracle = OracleStems(clean=sim.clean, noise=sim.noise)
    cfg = PipelineConfig(
        block_frames=block_frames, beamformer=beamformer, postfilter=postfilter, vad_mode="oracle"
    )
    shares = []
    for _ in range(5):
        start = time.perf_counter()
        _, results = run_with_diagnostics(sim.mixture, cfg, oracle=oracle)
        wall = time.perf_counter() - start
        timed = sum(sum(r.diagnostics.to_json_dict()["timings_s"].values()) for r in results)
        shares.append(timed / wall)
    assert len(results) == (1 if block_frames == "batch" else 4)
    assert np.median(shares) >= 0.95


@pytest.mark.parametrize("active,ref", [([0, 1, 2, 3], 0), ([0, 2, 3], 2), ([1, 3], 3)])
def test_stacked_network_masks_match_per_channel_inference(active, ref):
    net = random_network(25)
    sim = gain_mixture(seed=26, duration=1.0)
    bins = analyze(sim.mixture.samples[:, :13184])
    # the pipeline's reference-first order of the active channels
    order = [ref] + [ch for ch in active if ch != ref]
    cfg = PipelineConfig(block_frames=100, vad_mode="network")
    pooled = _pooled_mask(bins[:, :, order], cfg, net, None, order[1:], {})
    assert pooled.shape == bins.shape[:2]
    # the forward pass runs in float32, and the BLAS may sum the stacked
    # (3 x 100 columns) and per-channel (100 columns) products in different
    # orders: that moves a mask value by a few float32 ulps (eps 1.2e-7, seen
    # up to 2.1e-7). 1e-6 allows ~8 eps on values <= 1 and is still 10x
    # below the float32/float64 agreement pinned in test_vad.py. The median
    # moves no more than the input that moves most, so the bound holds for
    # the pool too
    alone = np.stack([infer_mask(net, bins[:, :, ch]) for ch in order[1:]], axis=2)
    assert np.allclose(pooled, pool_median(alone), rtol=0.0, atol=1e-6)


@pytest.mark.parametrize(
    "n_frames,n_ch,n_calls", [(1025, 2, 8), (1028, 2, 9), (1001, 4, 8), (129, 4, 1), (130, 4, 1)]
)
def test_chunked_network_masks_match_one_pass(n_frames, n_ch, n_calls):
    # the mask loop runs the network per frame chunk. OpenBLAS's float32
    # product rounds 1-3 columns differently, so a last chunk of 1-3 frames
    # (1025 frames with one non-reference channel: 1 column) is merged into
    # the one before; a last chunk of 4 columns (1028) stays. Every chunk
    # must then give the bits of one forward pass over all frames
    net = random_network(40, (257, 1024, 1024, 257))
    rng = np.random.default_rng(n_frames + n_ch)
    shape = (257, n_frames, n_ch)
    bins = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    cfg = PipelineConfig(block_frames="batch", vad_mode="network")
    with mock.patch("blockbeam.pipeline.infer_mask", wraps=infer_mask) as spy:
        pooled = _pooled_mask(bins, cfg, net, None, list(range(1, n_ch)), {})
    columns = [call.args[1].shape[1] for call in spy.call_args_list]
    assert len(columns) == n_calls
    assert sum(columns) == n_frames * (n_ch - 1)
    assert min(columns) >= 4
    one_pass = infer_mask(net, bins[:, :, 1:].reshape(257, -1)).reshape(shape[0], n_frames, n_ch - 1)
    assert np.array_equal(pooled, pool_median(one_pass)), (
        "this BLAS gives a chunk's forward pass other bits than one pass over all frames"
    )


@pytest.mark.parametrize("vad_mode", ["network", "oracle"])
def test_short_block_makes_one_vad_pass(vad_mode):
    # a block of at most 128 frames is one chunk: one forward pass, or
    # beside the mixture's analysis one of each stem per non-reference
    # channel (3 here), none per frame chunk beyond one
    sim = gain_mixture(seed=42, duration=1.0)
    mixture, clean, noise = (
        MultichannelSignal(sig.samples[:, :13184], 16000) for sig in (sim.mixture, sim.clean, sim.noise)
    )
    cfg = PipelineConfig(block_frames=100, vad_mode=vad_mode)
    with (
        mock.patch("blockbeam.pipeline.infer_mask", wraps=infer_mask) as network_spy,
        mock.patch("blockbeam.pipeline.analyze", wraps=analyze) as stft_spy,
    ):
        process_block(mixture, cfg, random_network(43), OracleStems(clean=clean, noise=noise))
    assert network_spy.call_count == (vad_mode == "network")
    assert stft_spy.call_count == (1 + 2 * 3 if vad_mode == "oracle" else 1)


@pytest.mark.parametrize("block_frames", [100, "batch"])
@pytest.mark.parametrize("beamformer", ["irtf", "mvdr"])
def test_wiener_gain_in_bin_chunks_equals_whole_block_gain(beamformer, block_frames):
    # a 397-frame batch block takes its Wiener residual and gain in four bin
    # chunks and scales the beam output in place; the output must be the
    # beam output times the whole block's wiener_mask, bit for bit
    sim = gain_mixture(seed=29, duration=3.2)
    oracle = OracleStems(clean=sim.clean, noise=sim.noise)
    results = {}
    for postfilter in ("none", "wiener"):
        cfg = PipelineConfig(
            block_frames=block_frames, beamformer=beamformer, postfilter=postfilter, vad_mode="oracle"
        )
        results[postfilter] = run_with_diagnostics(sim.mixture, cfg, oracle=oracle)[1]
    blocks = partition_frames(sim.mixture.n_samples, cfg)
    for (start, n_frames), plain, filtered in zip(blocks, results["none"], results["wiener"], strict=True):
        assert filtered.diagnostics.active_channels == [0, 1, 2, 3]
        lo, hi = frame_span(start, n_frames)
        bins = analyze(sim.mixture.samples[:, lo:hi])
        projection, noise_cov, _ = noise_projection(bins, filtered.rtf)
        weights = irtf_weights(filtered.rtf) if beamformer == "irtf" else mvdr_weights(noise_cov, filtered.rtf)[0]
        residual = projected_residual(weights, bins, projection)
        expected = plain.enhanced * wiener_mask(plain.enhanced, residual, filtered.pooled_mask)
        assert np.array_equal(filtered.enhanced, expected)


@pytest.mark.parametrize("duplicate", [False, True])
@pytest.mark.parametrize("beamformer", ["irtf", "mvdr"])
def test_wiener_residual_matches_beamformed_noise_estimate(beamformer, duplicate):
    # the pipeline folds w into the noise projection; the result must be the
    # residual of the full per-channel noise estimate. A duplicated channel
    # makes two blocking-matrix rows equal, so every bin's B Cxx B^H is
    # singular and diagonally loaded.
    samples = gain_mixture(seed=27, duration=1.0).mixture.samples[:, :13184].copy()
    if duplicate:
        samples[3] = samples[1]
    cfg = PipelineConfig(
        block_frames=100,
        beamformer=beamformer,
        postfilter="wiener",
        vad_mode="none",
    )
    with mock.patch("blockbeam.pipeline.projected_residual", wraps=projected_residual) as spy:
        result = process_block(MultichannelSignal(samples, 16000), cfg)
    assert (result.diagnostics.fallbacks["noise_cov_loaded_bins"] > 0) == duplicate
    weights, bins, projection = spy.call_args.args
    got = projected_residual(weights, bins, projection)
    expected = apply_weights(weights, estimate_noise(bins, result.rtf)[0])
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_oracle_masks_use_the_right_stem_channels():
    # reference channel 2 and a dead channel 1: only channels 0 and 3 get
    # masks, and each must come from the same channel of the stems
    sim = gain_mixture(seed=28, duration=1.0)
    n = 13184
    mixture = sim.mixture.samples[:, :n].copy()
    clean = sim.clean.samples[:, :n].copy()
    noise = sim.noise.samples[:, :n].copy()
    for stems in (mixture, clean, noise):
        stems[1] = 0.0
    oracle = OracleStems(clean=MultichannelSignal(clean, 16000), noise=MultichannelSignal(noise, 16000))
    cfg = PipelineConfig(
        block_frames=100,
        beamformer="mvdr",
        postfilter="wiener",
        vad_mode="oracle",
        ref_channel=2,
    )
    result = process_block(MultichannelSignal(mixture, 16000), cfg, oracle=oracle)
    assert result.diagnostics.active_channels == [0, 2, 3]
    assert not result.diagnostics.ref_fallback

    full_clean = analyze(oracle.clean.samples)
    full_noise = analyze(oracle.noise.samples)
    expected = pool_median(oracle_ibm(full_clean[:, :, [0, 3]], full_noise[:, :, [0, 3]], cfg.t_snr))
    assert np.array_equal(result.pooled_mask, expected)

    with mock.patch("blockbeam.pipeline._pooled_mask", return_value=expected) as patched:
        reference = process_block(MultichannelSignal(mixture, 16000), cfg, oracle=oracle)
    patched.assert_called_once()
    assert patched.call_args.args[4] == [0, 3]
    assert np.array_equal(result.enhanced, reference.enhanced)


def test_rtf_is_returned_in_active_channel_order():
    # the stages see channel 2 first; BlockResult.rtf maps the columns back
    sim = gain_mixture(seed=31, duration=1.0)
    block = MultichannelSignal(sim.mixture.samples[:, :13184], 16000)
    oracle = OracleStems(
        clean=MultichannelSignal(sim.clean.samples[:, :13184], 16000),
        noise=MultichannelSignal(sim.noise.samples[:, :13184], 16000),
    )
    cfg = PipelineConfig(block_frames=100, postfilter="none", vad_mode="oracle", ref_channel=2)
    result = process_block(block, cfg, oracle=oracle)
    active = result.diagnostics.active_channels
    assert active == [0, 1, 2, 3]
    assert result.rtf.shape == (257, len(active))
    assert np.all(result.rtf[:, active.index(2)] == 1.0)

    # column j of the estimate belongs to channel order[j]
    order = [2, 0, 1, 3]
    estimate, _ = build_rtf_set(analyze(block.samples)[:, :, order], result.pooled_mask)
    expected = np.empty_like(estimate)
    expected[:, order] = estimate
    assert np.array_equal(result.rtf, expected)


def test_blocks_are_synthesized_once():
    # the enhanced frames of all blocks are overlap-added as one spectrogram,
    # so a seam gets the same weighted overlap-add as a block's interior
    sim = gain_mixture(seed=29, duration=2.0)
    oracle = OracleStems(clean=sim.clean, noise=sim.noise)
    cfg = PipelineConfig(block_frames=50, beamformer="mvdr", postfilter="wiener", vad_mode="oracle")
    out, results = run_with_diagnostics(sim.mixture, cfg, oracle=oracle)
    assert len(results) == 5
    frames = np.concatenate([r.enhanced for r in results], axis=1)
    assert np.array_equal(out.samples, synthesize(frames[:, :, None]))


# every beamformer/post-filter pairing with oracle masks, and without a VAD
# where the beamformer allows it
SETTINGS = [(bf, pf, vad_mode) for bf, pf in PAIRINGS for vad_mode in vad_modes_of(bf)]


def setting_id(setting):
    # the trailing "median" names the RTF mask, which is always the median pool
    return "-".join(setting) + "-median"


PROPERTY_REF = 1


@functools.lru_cache(maxsize=None)
def property_mixture():
    rng = np.random.default_rng(30)
    dry = speech_like_source(2.0, 16000, rng)
    firs = decaying_firs([0, 2, 5, 7], rng, extra_taps=4, decay=0.6)
    spec = MixtureSpec(channel_count=4, firs=firs[np.newaxis], snr_db=5.0)
    sim = simulate(spec, dry, pink_noise(4, dry.shape[0], rng))
    return sim.mixture.samples, sim.clean.samples, sim.noise.samples


def enhance_setting(setting, mixture, clean, noise, ref_channel):
    beamformer, postfilter, vad_mode = setting
    cfg = PipelineConfig(
        block_frames=50,
        beamformer=beamformer,
        postfilter=postfilter,
        vad_mode=vad_mode,
        ref_channel=ref_channel,
    )
    oracle = OracleStems(MultichannelSignal(clean, 16000), MultichannelSignal(noise, 16000))
    return run(MultichannelSignal(mixture, 16000), cfg, oracle=oracle).samples[0]


@functools.lru_cache(maxsize=None)
def property_reference(setting):
    return enhance_setting(setting, *property_mixture(), PROPERTY_REF)


@pytest.mark.parametrize("setting", SETTINGS, ids=setting_id)
@settings(max_examples=3)
@given(exponent=st.floats(-20.0, 20.0))
def test_output_is_scale_equivariant(setting, exponent):
    # y(alpha x) = alpha y(x), with the oracle stems scaled alongside
    alpha = 10.0**exponent
    y = property_reference(setting)
    y_scaled = enhance_setting(setting, *(alpha * a for a in property_mixture()), PROPERTY_REF)
    assert np.linalg.norm(y_scaled / alpha - y) <= 1e-9 * np.linalg.norm(y)


@pytest.mark.parametrize("setting", SETTINGS, ids=setting_id)
@settings(max_examples=3)
@given(order=st.permutations(range(4)))
def test_output_is_independent_of_channel_order(setting, order):
    # channel j of the permuted recording is channel order[j] of the original
    y = property_reference(setting)
    y_permuted = enhance_setting(
        setting, *(a[list(order)] for a in property_mixture()), list(order).index(PROPERTY_REF)
    )
    assert np.linalg.norm(y_permuted - y) <= 1e-9 * np.linalg.norm(y)


@pytest.mark.parametrize("setting", SETTINGS, ids=setting_id)
@settings(max_examples=2)
@given(order=st.permutations(range(4)))
def test_dead_and_duplicate_channels_give_finite_output(setting, order):
    # channel order[0] is silent and channel order[1] is a copy of channel
    # order[2], in the mixture and in both stems
    dead, copy, source = order[:3]
    arrays = [a.copy() for a in property_mixture()]
    for a in arrays:
        a[dead] = 0.0
        a[copy] = a[source]
    mixture, clean, noise = arrays
    beamformer, postfilter, vad_mode = setting
    cfg = PipelineConfig(
        block_frames=50,
        beamformer=beamformer,
        postfilter=postfilter,
        vad_mode=vad_mode,
        ref_channel=PROPERTY_REF,
    )
    oracle = OracleStems(MultichannelSignal(clean, 16000), MultichannelSignal(noise, 16000))
    out, results = run_with_diagnostics(MultichannelSignal(mixture, 16000), cfg, oracle=oracle)
    assert np.all(np.isfinite(out.samples))
    for result in results:
        assert dead not in result.diagnostics.active_channels
        assert np.all(np.isfinite(result.enhanced))


@pytest.mark.parametrize("duplicate", [False, True])
def test_gev_noise_loading_is_counted(duplicate):
    # a copied channel makes every GEV noise covariance singular, so its
    # Cholesky factor needs diagonal loading; distinct channels need none
    mixture, clean, noise = (a.copy() for a in property_mixture())
    if duplicate:
        for a in (mixture, clean, noise):
            a[2] = a[1]
    cfg = PipelineConfig(block_frames=50, beamformer="gev", postfilter="ban", vad_mode="oracle")
    oracle = OracleStems(MultichannelSignal(clean, 16000), MultichannelSignal(noise, 16000))
    _, results = run_with_diagnostics(MultichannelSignal(mixture, 16000), cfg, oracle=oracle)
    records = [r.diagnostics.to_json_dict()["fallbacks"] for r in results]
    loaded = [rec["gev_noise_loaded_bins"] for rec in records]
    if duplicate:
        # mask-degenerate bins are whitened by the identity and counted apart
        assert all(0 < n <= 257 - rec["gev_degenerate_bins"] for n, rec in zip(loaded, records))
    else:
        assert loaded == [0] * len(results)


def test_duplicated_channel_loads_every_solved_gev_bin():
    # every noise covariance is singular, so every bin that reaches the
    # solver is loaded, whatever sign the rounding gives its least eigenvalue
    mixture, clean, noise = (a.copy() for a in property_mixture())
    for a in (mixture, clean, noise):
        a[2] = a[1]
    cfg = PipelineConfig(block_frames=100, beamformer="gev", postfilter="ban", vad_mode="oracle")
    oracle = OracleStems(MultichannelSignal(clean, 16000), MultichannelSignal(noise, 16000))
    _, results = run_with_diagnostics(MultichannelSignal(mixture, 16000), cfg, oracle=oracle)
    records = [r.diagnostics.to_json_dict()["fallbacks"] for r in results]
    assert [rec["gev_noise_loaded_bins"] for rec in records] == [257 - rec["gev_degenerate_bins"] for rec in records]


@pytest.mark.parametrize("beamformer,postfilter", PAIRINGS)
@settings(max_examples=3)
@given(data=st.data())
def test_block_changes_only_its_own_span(beamformer, postfilter, data):
    # noise added to the samples that only block j reads, [hi_{j-1}, lo_{j+1}),
    # leaves every output sample outside block j's span [lo_j, hi_j) as it was
    mixture, clean, noise = property_mixture()
    cfg = PipelineConfig(block_frames=50, beamformer=beamformer, postfilter=postfilter, vad_mode="oracle")
    blocks = partition_frames(mixture.shape[1], cfg)
    spans = [frame_span(start, count) for start, count in blocks]
    j = data.draw(st.integers(0, len(spans) - 1), label="block")
    lo, hi = spans[j]
    own_lo = spans[j - 1][1] if j > 0 else 0
    own_hi = spans[j + 1][0] if j + 1 < len(spans) else mixture.shape[1]
    bump = np.zeros_like(mixture)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    bump[:, own_lo:own_hi] = 0.1 * rng.standard_normal((mixture.shape[0], own_hi - own_lo))

    def enhance(mix, noi):
        oracle = OracleStems(MultichannelSignal(clean, 16000), MultichannelSignal(noi, 16000))
        return run(MultichannelSignal(mix, 16000), cfg, oracle=oracle).samples[0]

    y = enhance(mixture, noise)
    y_bumped = enhance(mixture + bump, noise + bump)
    assert np.array_equal(y_bumped[:lo], y[:lo])
    assert np.array_equal(y_bumped[hi:], y[hi:])
    assert not np.array_equal(y_bumped[lo:hi], y[lo:hi])


def reverberant_mixture(seed, duration):
    rng = np.random.default_rng(seed)
    dry = speech_like_source(duration, 16000, rng)
    firs = decaying_firs([0, 2, 5, 7], rng, extra_taps=8, decay=0.7)
    spec = MixtureSpec(channel_count=4, firs=firs[np.newaxis], snr_db=5.0)
    return simulate(spec, dry, pink_noise(4, dry.shape[0], rng))


BOUNDED_PAIRINGS = [("irtf", "wiener"), ("irtf", "none"), ("mvdr", "wiener"), ("gev", "ban"), ("gev", "none")]


BOUNDED_CASES = [
    pytest.param(bf, pf, vad, id=f"{bf}-{pf}" if vad == "oracle" else f"{bf}-{pf}-novad")
    for vad in ("oracle", "none")
    for bf, pf in BOUNDED_PAIRINGS
    if vad in vad_modes_of(bf)
] + [pytest.param(bf, pf, "network", id=f"{bf}-{pf}-network") for bf, pf in BOUNDED_PAIRINGS[:4]]


@pytest.mark.parametrize("beamformer,postfilter,vad_mode", BOUNDED_CASES)
def test_batch_working_set_is_bounded(beamformer, postfilter, vad_mode):
    # a batch pass holds the mixture spectrogram plus chunk-sized
    # temporaries: every VAD mode makes and pools its masks per analysis
    # chunk (with the 257-1024-1024-257 network too: its stacked input and
    # activations are chunk-sized), the covariance sums run per bin chunk,
    # the Wiener residual and gain are formed a bin chunk at a time and
    # scale the beam output in place, and so does the BAN gain. Beside the
    # spectrogram only the pooled mask, the beam output and, for Wiener,
    # |u|^2 are block-sized, so the traced peak is 1.51-1.59x the mixture
    # spectrogram for every pairing and VAD mode. A full-length mask stack
    # or conjugated copy put it at 2.0-2.3x, full-length stem spectrograms
    # near 4x, one forward pass over all frames at 3.6x, and a Wiener gain
    # of the whole block, with its (K, L) float temporaries beside the
    # residual, at 2.14x
    sim = reverberant_mixture(seed=33, duration=8.0)
    oracle = OracleStems(clean=sim.clean, noise=sim.noise) if vad_mode == "oracle" else None
    network = random_network(44, (257, 1024, 1024, 257)) if vad_mode == "network" else None
    cfg = PipelineConfig(block_frames="batch", beamformer=beamformer, postfilter=postfilter, vad_mode=vad_mode)
    n_frames = (sim.mixture.n_samples - 512) // 128 + 1
    spectrogram_bytes = 257 * n_frames * 4 * 16
    tracemalloc.start()
    try:
        run_with_diagnostics(sim.mixture, cfg, network, oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.7 * spectrogram_bytes


@pytest.mark.parametrize("beamformer,postfilter,vad_mode", BOUNDED_CASES)
def test_batch_working_set_is_bounded_on_two_block_threads(two_block_threads, beamformer, postfilter, vad_mode):
    # the same bound with the pass's chunk loops on two threads: a second
    # chunk in flight adds chunk-sized temporaries only
    test_batch_working_set_is_bounded(beamformer, postfilter, vad_mode)


def test_batch_oracle_masks_match_whole_stem_analysis():
    # a 397-frame block spans four analysis chunks; its masks must be those
    # of the stems' full spectrograms, bit for bit
    sim = reverberant_mixture(seed=34, duration=3.2)
    cfg = PipelineConfig(block_frames="batch", postfilter="none", vad_mode="oracle", ref_channel=2)
    _, results = run_with_diagnostics(sim.mixture, cfg, oracle=OracleStems(clean=sim.clean, noise=sim.noise))
    (result,) = results
    assert result.diagnostics.active_channels == [0, 1, 2, 3]
    assert result.pooled_mask.shape == (257, 397)
    masked = [0, 1, 3]
    clean = analyze(sim.clean.samples[masked])
    noise = analyze(sim.noise.samples[masked])
    assert np.array_equal(result.pooled_mask, pool_median(oracle_ibm(clean, noise, cfg.t_snr)))


@pytest.mark.parametrize("beamformer,postfilter", [("mvdr", "wiener"), ("gev", "ban")])
def test_diagnostics_record_is_the_dataclass(beamformer, postfilter):
    # the record writes every field under its own name and in field order,
    # the five fallback counters are there from construction, and the record
    # is a copy: changing it leaves the diagnostics as they were
    counters = [
        "rtf_variance_guard_bins",
        "mvdr_fallback_bins",
        "gev_degenerate_bins",
        "gev_noise_loaded_bins",
        "noise_cov_loaded_bins",
    ]
    assert list(BlockDiagnostics().fallbacks.items()) == [(name, 0) for name in counters]
    sim = gain_mixture(seed=23, duration=1.0)
    stems = OracleStems(clean=sim.clean, noise=sim.noise)
    cfg = PipelineConfig(block_frames=100, beamformer=beamformer, postfilter=postfilter, vad_mode="oracle")
    _, results = run_with_diagnostics(sim.mixture, cfg, oracle=stems)
    diag = results[0].diagnostics
    record = diag.to_json_dict()
    assert list(record) == [f.name for f in dataclasses.fields(BlockDiagnostics)]
    assert list(record["fallbacks"]) == counters
    assert record["timings_s"] == {stage: round(t, 6) for stage, t in diag.timings_s.items()}
    assert json.loads(json.dumps(record)) == record
    before = copy.deepcopy(diag)
    record["active_channels"].append(9)
    record["fallbacks"]["noise_cov_loaded_bins"] += 1
    record["timings_s"]["stft"] = -1.0
    record["passthrough"] = True
    assert diag == before


def test_oracle_block_working_set_is_bounded():
    # oracle masks are made one stem channel at a time, so beside the
    # mixture spectrogram a 100-frame block holds one channel's two stem
    # spectra and its mask, not every channel's: the traced peak is ~2.4x
    # the spectrogram, set by the mixture analysis itself. With all three
    # channels' stem spectra and power temporaries at once it was 3.8x
    sim = reverberant_mixture(seed=35, duration=1.0)
    n = frame_span(0, 100)[1]
    block, clean, noise = (MultichannelSignal(sig.samples[:, :n], 16000) for sig in (sim.mixture, sim.clean, sim.noise))
    spectrogram_bytes = 257 * 100 * 4 * 16
    for bf, pf in (("irtf", "wiener"), ("mvdr", "wiener"), ("gev", "ban")):
        cfg = PipelineConfig(block_frames=100, beamformer=bf, postfilter=pf, vad_mode="oracle")
        tracemalloc.start()
        try:
            process_block(block, cfg, oracle=OracleStems(clean=clean, noise=noise))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * spectrogram_bytes, (bf, pf, peak / spectrogram_bytes)


# ---------------------------------------------------------------- block threads


@pytest.fixture
def block_threads(monkeypatch):
    """One BLAS thread per call, so run_with_diagnostics enhances blocks on
    every usable CPU; tests that need two blocks in flight at once skip
    below 2 CPUs."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cpus = len(os.sched_getaffinity(0))
    return cpus


@pytest.mark.parametrize(
    "openblas,omp,threads",
    [(None, None, 1), ("1", None, 4), ("2", "1", 2), (" 3 ", None, 1), ("8", None, 1), ("0", "1", 4),
     ("x", "2,1", 2), ("-1", None, 1), ("", "", 1)],
)
@pytest.mark.parametrize("affinity", [True, False])
def test_block_threads_leave_each_blas_call_its_threads(monkeypatch, openblas, omp, threads, affinity):
    # 4 usable CPUs over the threads one BLAS call takes, read as OpenBLAS
    # reads them; without sched_getaffinity the CPU count stands in
    for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert pipeline._block_threads() == threads


@contextlib.contextmanager
def block_hook(hook):
    """Call hook(samples) before each block that run_with_diagnostics
    enhances, on the thread that enhances it; yields the wrapper's records
    {id(result): (thread ident, elapsed seconds)}."""
    enhance = pipeline._enhance_block
    records = {}

    def wrapper(samples, *args):
        hook(samples)
        start = time.perf_counter()
        result = enhance(samples, *args)
        records[id(result)] = (threading.get_ident(), time.perf_counter() - start)
        return result

    with mock.patch("blockbeam.pipeline._enhance_block", wrapper):
        yield records


@contextlib.contextmanager
def chunk_loops():
    """Record (calling function, items, threads) of every `_in_order` loop;
    a loop started through `_on_threads` is its caller's."""
    loops, in_order = [], stft._in_order

    def spy(work, items):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_on_threads":
            caller = caller.f_back
        loops.append((caller.f_code.co_name, len(items), min(stft._THREADS.get(), len(items))))
        return in_order(work, items)

    with contextlib.ExitStack() as stack:
        for module in (stft, beamform, rtf, pipeline):
            stack.enter_context(mock.patch.object(module, "_in_order", spy))
        yield loops


# The loops that fan out in a one-block mvdr+wiener pass of several chunks
ONE_BLOCK_LOOPS = {"analyze", "_pooled_mask", "build_rtf_set", "sample_covariance", "_enhance_block", "synthesize"}


def start_sample(samples, signal):
    """First sample of the block view `samples` within `signal`."""
    return (samples.ctypes.data - signal.samples.ctypes.data) // samples.itemsize


def dying_mixture():
    """312 frames, so 31-, 50- and 100-frame blocks all end in a merged
    remainder; channel 1 dies at 0.5 s and channels 2 and 3 at 1.25 s,
    leaving blocks of 4, 3 and 1 live channels (passthrough)."""
    sim = reverberant_mixture(seed=36, duration=2.6)
    n = frame_span(0, 312)[1]
    mixture, clean, noise = (sig.samples[:, :n].copy() for sig in (sim.mixture, sim.clean, sim.noise))
    mixture[1, 8000:] = 0.0
    mixture[2:, 20000:] = 0.0
    oracle = OracleStems(clean=MultichannelSignal(clean, 16000), noise=MultichannelSignal(noise, 16000))
    return MultichannelSignal(mixture, 16000), oracle


@pytest.mark.parametrize("block_frames", [31, 50, 100])
@pytest.mark.parametrize(
    "beamformer,postfilter,vad_mode",
    [
        (bf, pf, vad)
        for bf, pf in (("irtf", "wiener"), ("mvdr", "wiener"), ("gev", "ban"))
        for vad in VAD_MODES
        if (bf, vad) != ("gev", "none")
    ],
)
def test_concurrent_blocks_equal_a_serial_reference(block_threads, beamformer, postfilter, vad_mode, block_frames):
    # blocks enhanced on several threads give the bits of process_block over
    # each block's span followed by one synthesis, diagnostics included
    signal, oracle = dying_mixture()
    network = random_network(37)
    cfg = PipelineConfig(block_frames=block_frames, beamformer=beamformer, postfilter=postfilter, vad_mode=vad_mode)
    threads_before = threading.active_count()
    out, results = run_with_diagnostics(signal, cfg, network, oracle)
    assert threading.active_count() == threads_before
    parts = partition_frames(signal.n_samples, cfg)
    assert parts[-1][1] > block_frames
    reference = []
    for start, count in parts:
        lo, hi = frame_span(start, count)
        block, clean, noise = (
            MultichannelSignal(x[:, lo:hi], 16000) for x in (signal.samples, oracle.clean.samples, oracle.noise.samples)
        )
        reference.append(process_block(block, cfg, network, OracleStems(clean=clean, noise=noise)))
    assert {r.diagnostics.passthrough for r in reference} == {False, True}
    assert len({len(r.diagnostics.active_channels) for r in reference}) == 3
    expected = synthesize(np.concatenate([r.enhanced for r in reference], axis=1)[:, :, None])
    assert out.samples.tobytes() == expected.tobytes()
    for alone, joint in zip(reference, results, strict=True):
        for name in ("enhanced", "pooled_mask", "rtf"):
            a, b = getattr(alone, name), getattr(joint, name)
            assert a is b is None or (a.shape == b.shape and a.tobytes() == b.tobytes()), name
        record, joint_record = alone.diagnostics.to_json_dict(), joint.diagnostics.to_json_dict()
        assert set(joint_record.pop("timings_s")) == set(record.pop("timings_s")) | {"synthesis"}
        assert joint_record == record


def test_blocks_run_concurrently_in_the_callers_context(block_threads):
    # the first two blocks wait for each other, so they run at once on two
    # threads; each sees the caller's np.errstate, and no thread outlives
    # the call
    if block_threads < 2:
        pytest.skip("needs 2 usable CPUs")
    sim = gain_mixture(seed=38, duration=3.0)
    cfg = PipelineConfig(block_frames=50, vad_mode="oracle")
    barrier, lock, seen = threading.Barrier(2, timeout=10), threading.Lock(), []

    def hook(samples):
        with lock:
            seen.append(np.geterr())
            first_two = len(seen) <= 2
        if first_two:
            barrier.wait()

    threads_before = threading.active_count()
    with np.errstate(over="ignore", divide="warn", under="call"), block_hook(hook) as records:
        expected_err = np.geterr()
        _, results = run_with_diagnostics(sim.mixture, cfg, oracle=OracleStems(clean=sim.clean, noise=sim.noise))
    assert threading.active_count() == threads_before
    assert seen == [expected_err] * len(results)
    assert len({records[id(r)][0] for r in results}) >= 2


def test_first_failing_block_in_block_order_raises(block_threads):
    # blocks 1 and 3 fail, block 1 last in wall time: block 1's error is
    # raised, as a serial loop would raise it, and every thread has joined
    sim = gain_mixture(seed=39, duration=3.0)
    cfg = PipelineConfig(block_frames=50, vad_mode="none")
    starts = [frame_span(*part)[0] for part in partition_frames(sim.mixture.n_samples, cfg)]
    assert len(starts) == 8

    def hook(samples):
        index = starts.index(start_sample(samples, sim.mixture))
        if index == 1:
            time.sleep(0.2)
        if index in (1, 3):
            raise ValueError(f"block {index}")

    threads_before = threading.active_count()
    with block_hook(hook), pytest.raises(ValueError, match="^block 1$"):
        run_with_diagnostics(sim.mixture, cfg)
    assert threading.active_count() == threads_before


def test_one_block_starts_no_thread(block_threads):
    # process_block, a one-block recording and a batch pass enhance their
    # block on the calling thread; at 100 frames every loop is one chunk,
    # so they start no thread
    sim = gain_mixture(seed=40, duration=2.0)
    n = frame_span(0, 100)[1]
    counts = []

    def hook(samples):
        counts.append((threading.active_count(), threading.get_ident()))

    one_block = MultichannelSignal(sim.mixture.samples[:, :n], 16000)
    cfg = PipelineConfig(block_frames=100, vad_mode="none")
    expected = (threading.active_count(), threading.get_ident())
    with block_hook(hook):
        run(one_block, cfg)
        run_with_diagnostics(sim.mixture, dataclasses.replace(cfg, block_frames="batch"))
        with mock.patch("threading.Thread") as thread:
            process_block(one_block, cfg)
            run(one_block, cfg)
    thread.assert_not_called()
    assert counts == [expected] * 4


@pytest.mark.parametrize("beamformer,postfilter", [("irtf", "wiener"), ("mvdr", "wiener"), ("gev", "ban")])
def test_block_timings_cover_the_blocks_own_time(block_threads, beamformer, postfilter):
    # each block's stage timers, synthesis aside, cover its own elapsed time
    # on the thread that enhanced it, though blocks overlap in wall time
    sim = gain_mixture(seed=41, duration=3.3)
    oracle = OracleStems(clean=sim.clean, noise=sim.noise)
    cfg = PipelineConfig(block_frames=100, beamformer=beamformer, postfilter=postfilter, vad_mode="oracle")
    shares = []
    for _ in range(5):
        with block_hook(lambda samples: None) as records:
            _, results = run_with_diagnostics(sim.mixture, cfg, oracle=oracle)
        shares.append(
            [
                (sum(r.diagnostics.timings_s.values()) - r.diagnostics.timings_s["synthesis"]) / records[id(r)][1]
                for r in results
            ]
        )
    assert np.all(np.median(shares, axis=0) >= 0.95)


def test_more_block_threads_than_cores_take_each_block_once(block_threads, monkeypatch):
    # eight block threads on at most two cores, switching every microsecond:
    # each block is enhanced once and lands at its own index
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    sim = gain_mixture(seed=42, duration=3.0)
    cfg = PipelineConfig(block_frames=20, sub_block_len=10, vad_mode="none", postfilter="none")
    starts = [frame_span(*part)[0] for part in partition_frames(sim.mixture.n_samples, cfg)]
    taken, lock = [], threading.Lock()

    def hook(samples):
        with lock:
            taken.append(start_sample(samples, sim.mixture))

    serial = [
        process_block(MultichannelSignal(sim.mixture.samples[:, slice(*frame_span(*part))], 16000), cfg)
        for part in partition_frames(sim.mixture.n_samples, cfg)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with block_hook(hook):
            _, results = run_with_diagnostics(sim.mixture, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == starts
    assert all(a.enhanced.tobytes() == b.enhanced.tobytes() for a, b in zip(serial, results, strict=True))


def test_more_chunk_threads_than_cores_take_each_chunk_once(block_threads, monkeypatch):
    # eight threads on at most two cores, switching every microsecond, run
    # every chunk loop of a batch pass: each chunk is done once, in its own
    # place, so the output has the one-thread bits
    sim = reverberant_mixture(seed=55, duration=3.3)
    oracle = OracleStems(clean=sim.clean, noise=sim.noise)
    for bf, pf in (("mvdr", "wiener"), ("gev", "ban")):
        cfg = PipelineConfig(block_frames="batch", beamformer=bf, postfilter=pf, vad_mode="oracle")
        with mock.patch.object(pipeline, "_block_threads", return_value=1):
            alone, _ = run_with_diagnostics(sim.mixture, cfg, oracle=oracle)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with chunk_loops() as loops:
                out, _ = run_with_diagnostics(sim.mixture, cfg, oracle=oracle)
        finally:
            sys.setswitchinterval(interval)
        assert max(t for _, _, t in loops) == 4
        assert out.samples.tobytes() == alone.samples.tobytes(), bf


@pytest.fixture
def two_block_threads(block_threads, monkeypatch):
    """Two block threads whatever the CPUs, so a one-block network run cuts
    its forward pass in two."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return 2


@pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
def test_base_exception_in_a_helpers_block_is_raised_after_the_join(two_block_threads, exc_type):
    # the caller's block waits until a helper's block has raised a
    # BaseException that is not an Exception: that one is raised, and no
    # thread outlives the call
    sim = gain_mixture(seed=43, duration=3.0)
    cfg = PipelineConfig(block_frames=50, vad_mode="none")
    main, failed = threading.get_ident(), threading.Event()

    def hook(samples):
        if threading.get_ident() != main:
            failed.set()
            raise exc_type("helper")
        assert failed.wait(timeout=10)

    threads_before = threading.active_count()
    with block_hook(hook), pytest.raises(exc_type, match="^helper$"):
        run_with_diagnostics(sim.mixture, cfg)
    assert threading.active_count() == threads_before


def interrupting(main, busy, started, item):
    """A hook that records item(*args), then on the thread `main` raises
    KeyboardInterrupt once `busy` is set, and elsewhere sets `busy` and
    keeps its item in flight for 0.2 s."""

    def hook(*args):
        started.append(item(*args))
        if threading.get_ident() == main:
            assert busy.wait(timeout=10)
            raise KeyboardInterrupt
        busy.set()
        time.sleep(0.2)

    return hook


def test_interrupt_in_the_callers_block_starts_no_other_block(two_block_threads):
    # the caller's block is interrupted while a helper enhances the other
    # of the first two: the helper finishes it and takes no other, every
    # thread joins, and the interrupt is raised
    sim = gain_mixture(seed=44, duration=3.0)
    cfg = PipelineConfig(block_frames=50, vad_mode="none")
    starts = [frame_span(*part)[0] for part in partition_frames(sim.mixture.n_samples, cfg)]
    started = []
    hook = interrupting(
        threading.get_ident(), threading.Event(), started, lambda samples: starts.index(start_sample(samples, sim.mixture))
    )
    threads_before = threading.active_count()
    with block_hook(hook), pytest.raises(KeyboardInterrupt):
        run_with_diagnostics(sim.mixture, cfg)
    assert threading.active_count() == threads_before
    assert sorted(started) == [0, 1] and len(starts) == 8


def test_interrupt_in_the_callers_vad_part_starts_no_other_part(two_block_threads):
    # a batch pass of 4 frame chunks, the first cut into two 192-column
    # parts: the caller's part is interrupted while the helper runs the
    # other, which finishes; no later chunk's part starts, and every thread
    # joins
    sim = gain_mixture(seed=45, duration=3.2)
    cfg = PipelineConfig(block_frames="batch", vad_mode="network")
    started = []
    hook = interrupting(threading.get_ident(), threading.Event(), started, lambda net, x: x.shape[1])
    threads_before = threading.active_count()
    with (
        mock.patch("blockbeam.pipeline.infer_mask", side_effect=hook),
        pytest.raises(KeyboardInterrupt),
    ):
        run(sim.mixture, cfg, random_network(46, (257, 64, 257)))
    assert threading.active_count() == threads_before
    assert started == [192, 192]


SPLIT_SHAPES = {(257, 64, 48, 257): 326, (257, 64, 257): 61, (257, 1024, 1024, 257): 4}


@functools.cache
def split_network(dims):
    return random_network(47, dims)


def split_floor(net):
    """Fewest columns of a part of a split forward pass."""
    return pipeline._SPLIT_FLOOR // min(layer.weights.size for layer in net.layers) + 1


@settings(max_examples=30)
@given(dims=st.sampled_from(sorted(SPLIT_SHAPES)), data=st.data())
def test_forward_pass_cut_above_the_floor_gives_the_bits_of_one_pass(dims, data):
    # the test networks, the parity tool's and the stream workload's: every
    # part at or above the floor, wherever the cuts fall
    net = split_network(dims)
    floor = split_floor(net)
    assert floor == SPLIT_SHAPES[dims]
    sizes = data.draw(st.lists(st.integers(floor, floor + 160), min_size=2, max_size=4))
    bounds = np.cumsum([0, *sizes])
    rng = np.random.default_rng(sizes)
    x = rng.standard_normal((257, bounds[-1])) + 1j * rng.standard_normal((257, bounds[-1]))
    parts = [infer_mask(net, x[:, lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert np.concatenate(parts, axis=1).tobytes() == infer_mask(net, x).tobytes()


@settings(max_examples=20)
@given(
    dims=st.sampled_from(sorted(SPLIT_SHAPES)),
    n_frames=st.integers(1, 300),
    n_ch=st.integers(2, 4),
    threads=st.integers(2, 4),
)
def test_split_vad_pass_equals_one_thread(dims, n_frames, n_ch, threads):
    # each frame chunk's pass is cut into min(threads, columns // floor)
    # even parts, larger first, and the pool has the bits of the one-thread
    # pass
    net = split_network(dims)
    rng = np.random.default_rng([n_frames, n_ch])
    bins = rng.standard_normal((257, n_frames, n_ch)) + 1j * rng.standard_normal((257, n_frames, n_ch))
    cfg = PipelineConfig(block_frames="batch", vad_mode="network")
    channels = list(range(1, n_ch))
    with mock.patch("blockbeam.pipeline.infer_mask", wraps=infer_mask) as spy:
        split = _on_threads(threads, _pooled_mask, bins, cfg, net, None, channels, {})
    columns = [(part.stop - part.start) * (n_ch - 1) for part in chunk_slices(n_frames)]
    parts = [max(1, min(threads, c // split_floor(net))) for c in columns]
    expected = [c // n + (j < c % n) for c, n in zip(columns, parts) for j in range(n)]
    assert [call.args[1].shape[1] for call in spy.call_args_list] == expected
    assert split.tobytes() == _pooled_mask(bins, cfg, net, None, channels, {}).tobytes()


def test_network_error_in_the_second_part_only_is_raised_after_the_join(two_block_threads):
    # columns 180 on of 300 overflow float32; the pass is cut at column 150,
    # so only the helper's part fails, with the message of one pass
    net = random_network(48, (257, 64, 257))
    rng = np.random.default_rng(48)
    bins = rng.standard_normal((257, 100, 4)) + 1j * rng.standard_normal((257, 100, 4))
    bins[:, 60:, 1:] *= 1e300
    cfg = PipelineConfig(block_frames="batch", vad_mode="network")
    with pytest.raises(DataError) as serial:
        infer_mask(net, bins[:, :, 1:].reshape(257, -1))
    threads_before = threading.active_count()
    with (
        mock.patch("blockbeam.pipeline.infer_mask", wraps=infer_mask) as spy,
        pytest.raises(DataError) as split,
    ):
        _on_threads(2, _pooled_mask, bins, cfg, net, None, [1, 2, 3], {})
    assert threading.active_count() == threads_before
    assert [call.args[1].shape[1] for call in spy.call_args_list] == [150, 150]
    assert str(split.value) == str(serial.value)


@pytest.mark.parametrize("entry", ["process_block", "one-block run", "batch pass", "100-frame blocks"])
def test_one_block_run_splits_only_its_vad_pass(two_block_threads, entry):
    # a run of one block runs every chunk loop of more than one chunk on the
    # two block threads, its cut forward passes among them; a run of several
    # blocks runs only its blocks on them, one uncut pass per block. The
    # output has the bits of a one-thread run
    sim = gain_mixture(seed=49, duration=3.3)
    net = random_network(50, (257, 64, 257))
    cfg = PipelineConfig(block_frames="batch" if entry == "batch pass" else 100, beamformer="mvdr", vad_mode="network")
    # 100 frames are 300 columns, cut in two; 397 are chunks of 384, 384 and
    # 384 columns, each cut in two, and 39, under the floor of 61, left whole
    n_frames = 100 if entry in ("process_block", "one-block run") else 397
    signal = MultichannelSignal(sim.mixture.samples[:, : frame_span(0, n_frames)[1]], 16000)
    enhance = {"process_block": process_block}.get(entry, run)
    with mock.patch.object(pipeline, "_block_threads", return_value=1):
        alone = enhance(signal, cfg, net)
    stages = ("detect_failures", "analyze", "infer_mask", "pool_median", "build_rtf_set", "noise_projection",
              "mvdr_weights", "apply_weights", "wiener_gain", "synthesize")
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        return wrapper

    with contextlib.ExitStack() as stack:
        for name in stages:
            stack.enter_context(mock.patch.object(pipeline, name, spy(name, getattr(pipeline, name))))
        loops = stack.enter_context(chunk_loops())
        out = enhance(signal, cfg, net)
    assert {name for name, _ in calls} == set(stages) - ({"synthesize"} if entry == "process_block" else set())
    vad = [ident for name, ident in calls if name == "infer_mask"]
    fanned = {caller for caller, _, threads in loops if threads > 1}
    if entry == "100-frame blocks":
        assert len(vad) == len(partition_frames(signal.n_samples, cfg)) == 4
        assert fanned == {"run_with_diagnostics"}
    else:
        # every stage is entered on the caller; only a chunk's work leaves it
        assert {name for name, ident in calls if ident != threading.get_ident()} <= {"infer_mask", "wiener_gain"}
        assert len(vad) == (7 if entry == "batch pass" else 2) and set(vad) != {threading.get_ident()}
        assert fanned == (ONE_BLOCK_LOOPS if entry == "batch pass" else {"_pooled_mask"})
    key = "enhanced" if entry == "process_block" else "samples"
    assert getattr(out, key).tobytes() == getattr(alone, key).tobytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("vad_mode", ["oracle", "network"])
@pytest.mark.parametrize("beamformer,postfilter", [("irtf", "wiener"), ("mvdr", "wiener"), ("gev", "ban")])
def test_one_block_stage_times_fit_its_wall_time(block_threads, monkeypatch, beamformer, postfilter, vad_mode, threads):
    # each stage timer is the caller's wall time, also where the stage's
    # chunks run on two threads, and the oracle stem analysis takes its busy
    # share of the VAD stage's: no value is negative, and a one-block pass's
    # stages, synthesis aside, add up to at most its wall time
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)))
    sim = reverberant_mixture(seed=51, duration=3.3)
    cfg = PipelineConfig(block_frames="batch", beamformer=beamformer, postfilter=postfilter, vad_mode=vad_mode)
    args = (random_network(52, (257, 64, 257)), OracleStems(clean=sim.clean, noise=sim.noise))
    for enhance in (process_block, run_with_diagnostics) * 2:
        start = time.perf_counter()
        result = enhance(sim.mixture, cfg, *args)
        wall = time.perf_counter() - start
        timings = (result if enhance is process_block else result[1][0]).diagnostics.timings_s
        assert min(timings.values()) >= 0.0, timings
        assert sum(timings.values()) - timings.get("synthesis", 0.0) <= wall, (timings, wall)


@pytest.mark.parametrize("threads", [2, 3, 4])
@pytest.mark.parametrize("n_frames", [129, 397])
def test_one_block_pass_on_threads_equals_one_thread(block_threads, monkeypatch, n_frames, threads):
    # a batch pass whose chunk loops run on 2-4 threads gives the one-thread
    # bits for every reachable pairing and VAD mode: output, spectrum, mask,
    # RTFs and diagnostics. 129 frames are one analysis chunk whose forward
    # pass is cut; 397 are four, with four bin chunks
    sim = reverberant_mixture(seed=53, duration=3.3)
    n = frame_span(0, n_frames)[1]
    signal, clean, noise = (MultichannelSignal(x.samples[:, :n], 16000) for x in (sim.mixture, sim.clean, sim.noise))
    args = (random_network(54, (257, 64, 257)), OracleStems(clean=clean, noise=noise))
    configs = [
        PipelineConfig(block_frames="batch", beamformer=bf, postfilter=pf, vad_mode=vad)
        for bf, pf in PAIRINGS
        for vad in VAD_MODES
        if (bf, vad) != ("gev", "none")
    ]
    assert len(configs) == 16
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)))
    for cfg in configs:
        with mock.patch.object(pipeline, "_block_threads", return_value=1):
            alone_out, (alone,) = run_with_diagnostics(signal, cfg, *args)
        with chunk_loops() as loops:
            out, (joint,) = run_with_diagnostics(signal, cfg, *args)
        assert max(t for _, _, t in loops) == (threads if n_frames > 129 or cfg.vad_mode == "network" else 1)
        assert out.samples.tobytes() == alone_out.samples.tobytes(), cfg
        for name in ("enhanced", "pooled_mask", "rtf"):
            a, b = getattr(alone, name), getattr(joint, name)
            assert a is b is None or a.tobytes() == b.tobytes(), (cfg, name)
        record, joint_record = alone.diagnostics.to_json_dict(), joint.diagnostics.to_json_dict()
        assert set(record.pop("timings_s")) == set(joint_record.pop("timings_s"))
        assert record == joint_record, cfg
