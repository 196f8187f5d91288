import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import blockbeam
from blockbeam import evalsim
from blockbeam.audio_io import MultichannelSignal, write_wav
from blockbeam.errors import ConfigError, DataError, SizeError
from blockbeam.evalsim import (
    Decomposition,
    MixtureSpec,
    decaying_firs,
    decompose,
    delay_firs,
    evaluate_blockwise,
    evaluate_estimate,
    metrics,
    pink_noise,
    simulate,
    speech_like_source,
    true_rtfs,
    white_noise,
)
from blockbeam.pipeline import OracleStems, PipelineConfig, run


def make_sim(seed=0, snr_db=5.0, delays=(0, 2, 5, 7), duration=1.0):
    rng = np.random.default_rng(seed)
    dry = speech_like_source(duration, 16000, rng)
    firs = delay_firs(list(delays))
    spec = MixtureSpec(channel_count=len(delays), firs=firs[np.newaxis], snr_db=snr_db)
    noise = white_noise(len(delays), dry.shape[0], rng)
    return simulate(spec, dry, noise), dry


class TestSimulate:
    def test_requested_snr_realized(self):
        sim, _ = make_sim(seed=1, snr_db=5.0)
        e_clean = np.sum(sim.clean.samples**2)
        e_noise = np.sum(sim.noise.samples**2)
        realized = 10 * np.log10(e_clean / e_noise)
        assert abs(realized - 5.0) < 0.01

    def test_mixture_is_sum_of_stems(self):
        sim, _ = make_sim(seed=2)
        assert np.allclose(sim.mixture.samples, sim.clean.samples + sim.noise.samples, atol=1e-15)

    def test_default_snr_is_five_db(self):
        spec = MixtureSpec(channel_count=2, firs=delay_firs([0, 1])[np.newaxis])
        assert spec.snr_db == 5.0

    def test_infinite_snr_rejected(self):
        # a setting, not data: the number rule names the field
        with pytest.raises(ConfigError, match="snr_db"):
            MixtureSpec(channel_count=2, firs=delay_firs([0, 1])[np.newaxis], snr_db=np.inf)

    def test_pure_delay_true_rtf(self):
        firs = delay_firs([0, 4])
        rtf, inv_rtf = true_rtfs(firs)
        k = np.arange(257)
        assert np.allclose(rtf[:, 1], np.exp(-1j * 2 * np.pi * k * 4 / 512))
        assert np.allclose(inv_rtf[:, 1], np.exp(1j * 2 * np.pi * k * 4 / 512))
        assert np.allclose(rtf[:, 0], 1.0)

    def test_zero_energy_stem_rejected(self):
        spec = MixtureSpec(channel_count=2, firs=delay_firs([0, 1])[np.newaxis])
        with pytest.raises(DataError):
            simulate(spec, np.zeros(4000), white_noise(2, 4000, np.random.default_rng(0)))

    def test_piecewise_trajectory_changes_rtf(self):
        rng = np.random.default_rng(3)
        dry = speech_like_source(1.0, 16000, rng)
        firs = np.stack([delay_firs([0, 2], taps=8), delay_firs([0, 6], taps=8)])
        spec = MixtureSpec(
            channel_count=2, firs=firs, segment_starts=np.array([0, 8000]), snr_db=20.0
        )
        sim = simulate(spec, dry, white_noise(2, dry.shape[0], rng))
        assert len(sim.true_rtf) == 2
        assert sim.true_rtf[1].tobytes() == true_rtfs(firs[1])[0].tobytes()
        # second segment clean stems follow the second FIR
        manual = np.convolve(dry, firs[1, 1])[: dry.shape[0]]
        assert np.allclose(sim.clean.samples[1, 8000:], manual[8000:])

    def test_fir_validation(self):
        with pytest.raises(ConfigError):
            MixtureSpec(channel_count=2, firs=np.zeros((1, 2, 4)))
        with pytest.raises(ConfigError):
            MixtureSpec(channel_count=2, firs=np.ones((1, 2, 65)))
        with pytest.raises(ConfigError):
            MixtureSpec(channel_count=3, firs=np.ones((1, 2, 4)))
        # a NaN tap would give a NaN mixture
        for value in (np.nan, np.inf):
            firs = np.ones((1, 2, 4))
            firs[0, 1, 2] = value
            with pytest.raises(DataError, match="non-finite"):
                MixtureSpec(channel_count=2, firs=firs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stem", ["dry", "noise"])
    def test_non_finite_input_rejected(self, stem, value):
        # alpha would be NaN and the whole mixture NaN
        rng = np.random.default_rng(0)
        dry = speech_like_source(0.25, 16000, rng)
        noise = white_noise(2, dry.shape[0], rng)
        (dry if stem == "dry" else noise[1])[1000] = value
        spec = MixtureSpec(channel_count=2, firs=delay_firs([0, 1])[np.newaxis])
        with pytest.raises(DataError, match="non-finite"):
            simulate(spec, dry, noise)

    @pytest.mark.parametrize(
        "dry",
        [np.ones((1, 4000)), np.ones((2, 4000)), np.ones(())],
        ids=["row", "two-rows", "scalar"],
    )
    def test_dry_source_not_1d_rejected(self, dry):
        spec = MixtureSpec(channel_count=2, firs=delay_firs([0, 1])[np.newaxis])
        with pytest.raises(SizeError, match="1-D dry source"):
            simulate(spec, dry, np.ones((2, 4000)))

    def test_empty_dry_source_rejected_before_segment_starts(self):
        # an empty source is named as such, not as a segment starting beyond it
        spec = MixtureSpec(channel_count=2, firs=delay_firs([0, 1])[np.newaxis])
        with pytest.raises(SizeError, match="at least 1 sample"):
            simulate(spec, np.ones(0), np.ones((2, 0)))

    def test_noise_shorter_than_source_rejected(self):
        spec = MixtureSpec(channel_count=2, firs=delay_firs([0, 1])[np.newaxis])
        with pytest.raises(SizeError):
            simulate(spec, np.ones(4000), np.ones((2, 1000)))

    @pytest.mark.parametrize("shape", [(3, 4000), (4000,), (1, 2, 4000)], ids=["channels", "1-D", "3-D"])
    def test_noise_of_wrong_shape_rejected(self, shape):
        spec = MixtureSpec(channel_count=2, firs=delay_firs([0, 1])[np.newaxis])
        with pytest.raises(SizeError, match=r"expected \(2, samples\)"):
            simulate(spec, np.ones(4000), np.ones(shape))

    def test_segment_start_beyond_source_rejected(self):
        firs = np.stack([delay_firs([0, 1], taps=3), delay_firs([0, 2])])
        spec = MixtureSpec(channel_count=2, firs=firs, segment_starts=[0, 4000])
        with pytest.raises(ConfigError, match="segment start beyond the end of the source"):
            simulate(spec, np.ones(4000), np.ones((2, 4000)))

    @pytest.mark.parametrize(
        "starts,message",
        [([1, 4000], "beginning at 0"), ([0], "one start per segment"), ([0, 0], "strictly increasing")],
        ids=["not-at-0", "too-few", "not-increasing"],
    )
    def test_segment_starts_validated(self, starts, message):
        firs = np.stack([delay_firs([0, 1], taps=3), delay_firs([0, 2])])
        with pytest.raises(ConfigError, match=message):
            MixtureSpec(channel_count=2, firs=firs, segment_starts=starts)

    def test_unknown_noise_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown noise kind 'brown'"):
            MixtureSpec(channel_count=2, firs=delay_firs([0, 1])[np.newaxis], noise_kind="brown")

    @pytest.mark.parametrize("delays", [[0, 2, 5, 7], [0, 1, 2, 3]])
    def test_firs_of_one_segment_need_the_segment_axis(self, delays):
        # a (channels, taps) matrix is not read as taps-many segments
        with pytest.raises(SizeError, match=r"\(segments, channels, taps\), got \(4, \d+\)"):
            MixtureSpec(channel_count=4, firs=delay_firs(delays))

    def test_true_rtfs_reject_a_spectral_null(self):
        # 1 + z^-1 is zero at the Nyquist bin
        with pytest.raises(DataError, match="near-null bin"):
            true_rtfs(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_decaying_firs_shape(self):
        firs = decaying_firs([0, 3], np.random.default_rng(4), extra_taps=3)
        assert firs.shape == (2, 7)
        assert firs[0, 0] == 1.0 and firs[1, 3] == 1.0

    @pytest.mark.parametrize(
        "make", [delay_firs, lambda d: decaying_firs(d, np.random.default_rng(4))], ids=["delay", "decaying"]
    )
    @pytest.mark.parametrize(
        "delays",
        [[0, 2.7], [0, 1.9], [0, -1, 3], [0, -2, 5], [0, True], [0, "2"]],
        ids=["fraction-2.7", "fraction-1.9", "negative-1", "negative-2", "bool", "string"],
    )
    def test_delay_not_a_whole_sample_rejected(self, make, delays):
        # a fraction is not cut to its integer part, and a negative delay
        # does not wrap round to the last tap
        with pytest.raises(ConfigError, match=r"delays\[1\] must be an integer >= 0"):
            make(delays)

    @pytest.mark.parametrize(
        "make", [delay_firs, lambda d: decaying_firs(d, np.random.default_rng(4))], ids=["delay", "decaying"]
    )
    def test_empty_delays_rejected(self, make):
        # no channel at all is named, not numpy's empty-reduction ValueError
        with pytest.raises(ConfigError, match="^delays must list one delay per channel"):
            make([])

    def test_integer_valued_float_delay_accepted(self):
        # JSON may write a whole delay as 2.0
        assert np.array_equal(delay_firs([0, 2.0]), delay_firs([0, 2]))
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        assert np.array_equal(decaying_firs([0.0, 3.0], rng_a), decaying_firs([0, 3], rng_b))

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_pink_noise_needs_two_samples(self, n_samples):
        # the 1/sqrt(f) weights of fewer samples are all zero
        with pytest.raises(SizeError, match="at least 2 samples"):
            pink_noise(2, n_samples, np.random.default_rng(0))

    def test_pink_noise_spectrum_tilts_down(self):
        x = pink_noise(1, 16384, np.random.default_rng(5))[0]
        spec = np.abs(np.fft.rfft(x)) ** 2
        low = spec[10:200].mean()
        high = spec[4000:8000].mean()
        assert low > 10 * high

    @pytest.mark.parametrize("duration_s", [0.0, 0.001, 0.002, 0.0039])
    def test_source_shorter_than_ramp_rejected(self, duration_s):
        # the 4 ms gain ramp is 64 samples at 16 kHz
        with pytest.raises(SizeError, match=r"at least 0\.004 s"):
            speech_like_source(duration_s, 16000, np.random.default_rng(0))

    def test_sources_have_pauses(self):
        # 80 ms gain segments with occasional silence drive the sub-block
        # nonstationarity the estimator needs
        x = speech_like_source(2.0, 16000, np.random.default_rng(7))
        seg_energy = np.sum(x[: 24 * 1280].reshape(24, 1280) ** 2, axis=1)
        assert seg_energy.min() < 0.01 * seg_energy.max()

    @pytest.mark.parametrize(
        "make,bound",
        [
            pytest.param(lambda rng: speech_like_source(5.0, 16000, rng), 5.0, id="speech-like"),
            pytest.param(lambda rng: pink_noise(4, 80000, rng), 2.6, id="pink"),
        ],
    )
    def test_source_working_set_is_bounded(self, make, bound):
        # the speech-like source, its gain envelope and their product are
        # each one array of the output's size, and the AR(1) recurrence holds
        # one chunk as Python floats: the traced peak is 4.0x the output
        # (10.1x with the whole source as lists of floats). Pink noise holds
        # its spectrum and the output, 2.25x (3.25x with the spectrum kept
        # beside np.std's centred copy of the output)
        tracemalloc.start()
        try:
            x = make(np.random.default_rng(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * x.nbytes


class TestDecompose:
    def test_perfect_estimate(self):
        sim, _ = make_sim(seed=6)
        target = sim.clean.samples[0]
        d = decompose(target, target, sim.noise.samples, filter_len=32)
        assert np.allclose(d.target, target, atol=1e-10)
        assert np.max(np.abs(d.interference)) < 1e-10
        assert np.max(np.abs(d.artifact)) < 1e-10

    def test_noise_estimate_has_tiny_target(self):
        # projecting independent noise onto d delayed target copies captures
        # about d/T of its energy; 10 s with an 8-tap filter sits near -43 dB
        sim, _ = make_sim(seed=7, delays=(0, 3), duration=10.0)
        estimate = sim.noise.samples[0]
        d = decompose(estimate, sim.clean.samples[0], sim.noise.samples, filter_len=8)
        target_db = 10 * np.log10(np.sum(d.target**2) / np.sum(estimate**2))
        assert target_db < -40

    def test_sum_identity_exact(self):
        rng = np.random.default_rng(8)
        sim, _ = make_sim(seed=9)
        estimate = rng.standard_normal(sim.mixture.n_samples)
        d = decompose(estimate, sim.clean.samples[0], sim.noise.samples, filter_len=32)
        assert np.allclose(d.target + d.interference + d.artifact, estimate, atol=1e-12)

    def test_idempotent(self):
        sim, _ = make_sim(seed=10)
        est = sim.mixture.samples[0]
        d1 = decompose(est, sim.clean.samples[0], sim.noise.samples, 32)
        d2 = decompose(d1.target, sim.clean.samples[0], sim.noise.samples, 32)
        assert np.allclose(d2.target, d1.target, atol=1e-9)
        assert np.max(np.abs(d2.interference)) < 1e-9

    def test_rank_deficient_basis_handled(self):
        # duplicated noise stems make the projection basis rank deficient
        sim, _ = make_sim(seed=11)
        est = sim.mixture.samples[0]
        noises = np.vstack([sim.noise.samples, sim.noise.samples])
        d = decompose(est, sim.clean.samples[0], noises, 32)
        assert np.allclose(d.target + d.interference + d.artifact, est, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(SizeError):
            decompose(np.zeros(100), np.zeros(99), np.zeros((1, 100)), 8)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("part", ["estimate", "target", "noise"])
    @pytest.mark.parametrize("call", ["decompose", "evaluate_estimate", "evaluate_blockwise"])
    def test_non_finite_input_rejected(self, call, part, value):
        # unchecked, a NaN estimate gives NaN metrics with capped=False and a
        # NaN target the -200 dB sentinels, as if the input were merely extreme
        sim, _ = make_sim(seed=12, duration=0.5)
        est, target, noises = (a.copy() for a in (sim.mixture.samples[0], sim.clean.samples[0], sim.noise.samples))
        {"estimate": est, "target": target, "noise": noises[2]}[part][3000] = value
        score = {
            "decompose": decompose,
            "evaluate_estimate": evaluate_estimate,
            "evaluate_blockwise": lambda *args: evaluate_blockwise(*args, window=2000),
        }[call]
        with pytest.raises(DataError, match="non-finite"):
            score(est, target, noises)


class TestMetrics:
    def test_perfect_estimate_hits_sentinel(self):
        d = Decomposition(
            target=np.ones(100), interference=np.zeros(100), artifact=np.zeros(100)
        )
        report = metrics(d)
        assert report.sir_db == 200.0
        assert report.sdr_db == 200.0
        assert report.sar_db == 200.0
        assert report.capped

    def test_equal_energy_zero_db(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000)
        b *= np.linalg.norm(a) / np.linalg.norm(b)
        report = metrics(Decomposition(target=a, interference=b, artifact=np.zeros(1000)))
        assert abs(report.sir_db) < 1e-9

    def test_sdr_decreases_with_artifact_energy(self):
        rng = np.random.default_rng(13)
        target = rng.standard_normal(1000)
        artifact = rng.standard_normal(1000)
        sdrs = [
            metrics(
                Decomposition(target=target, interference=np.zeros(1000), artifact=a * artifact)
            ).sdr_db
            for a in (0.01, 0.1, 0.5, 1.0, 2.0)
        ]
        assert all(x > y for x, y in zip(sdrs, sdrs[1:]))

    def test_sdr_bounded_by_sir_and_sar(self):
        rng = np.random.default_rng(14)
        d = Decomposition(
            target=rng.standard_normal(500),
            interference=0.3 * rng.standard_normal(500),
            artifact=0.2 * rng.standard_normal(500),
        )
        report = metrics(d)
        assert report.sdr_db <= report.sir_db + 1e-9
        assert report.sdr_db <= report.sar_db + 1.0  # sar cross-term tolerance

    def test_scaling_invariance(self):
        sim, _ = make_sim(seed=15)
        est = sim.mixture.samples[0]
        r1 = evaluate_estimate(est, sim.clean.samples[0], sim.noise.samples)
        r2 = evaluate_estimate(7.3 * est, 7.3 * sim.clean.samples[0], 7.3 * sim.noise.samples)
        assert r1.sir_db == pytest.approx(r2.sir_db, abs=1e-9)
        assert r1.sdr_db == pytest.approx(r2.sdr_db, abs=1e-9)

    def test_unprocessed_reference_sir_matches_mixing_snr(self):
        # with unit-gain pure-delay FIRs the per-channel SNR equals the
        # global SNR, so the reference-channel SIR sits at the mixing value
        sim, _ = make_sim(seed=16, snr_db=5.0, duration=2.0)
        report = evaluate_estimate(
            sim.mixture.samples[0], sim.clean.samples[0], sim.noise.samples
        )
        assert abs(report.sir_db - 5.0) < 0.5


class TestEvaluateBlockwise:
    def test_windowed_matches_single_on_stationary_estimate(self):
        # an estimate whose filtering never changes scores the same either way
        sim, _ = make_sim(seed=17, duration=2.0)
        est = sim.mixture.samples[0]
        single = evaluate_estimate(est, sim.clean.samples[0], sim.noise.samples)
        agg, per = evaluate_blockwise(est, sim.clean.samples[0], sim.noise.samples, window=8000)
        assert len(per) == 4
        assert agg.sir_db == pytest.approx(single.sir_db, abs=0.5)

    def test_windowed_credits_block_varying_gain(self):
        # a gain flip halfway through is fully allowed per window but is a
        # distortion for the single time-invariant projection
        sim, _ = make_sim(seed=18, duration=2.0)
        target = sim.clean.samples[0]
        est = target.copy()
        est[16000:] *= -0.5
        single = evaluate_estimate(est, target, sim.noise.samples)
        agg, _ = evaluate_blockwise(est, target, sim.noise.samples, window=16000)
        assert agg.sar_db > single.sar_db + 20

    def test_single_window_aggregate_equals_single_report(self):
        # the aggregate sums the energies metrics() uses, including the
        # target/interference cross term inside the SAR numerator
        sim, _ = make_sim(seed=0, duration=1.0)
        cfg = PipelineConfig(block_frames=50, beamformer="mvdr", postfilter="wiener", vad_mode="oracle")
        est = run(sim.mixture, cfg, oracle=OracleStems(clean=sim.clean, noise=sim.noise)).samples[0]
        single = evaluate_estimate(est, sim.clean.samples[0], sim.noise.samples)
        agg, per = evaluate_blockwise(est, sim.clean.samples[0], sim.noise.samples, window=est.shape[0])
        assert per == [single]
        assert agg == single

    def test_remainder_merges_into_last_window(self):
        sim, _ = make_sim(seed=19, duration=1.0)
        est = sim.mixture.samples[0]
        _, per = evaluate_blockwise(est, sim.clean.samples[0], sim.noise.samples, window=7000)
        assert len(per) == 2  # 16000 samples: windows of 7000 and 9000

    def test_window_shorter_than_filter_rejected(self):
        sim, _ = make_sim(seed=20, duration=1.0)
        with pytest.raises(SizeError):
            evaluate_blockwise(
                sim.mixture.samples[0], sim.clean.samples[0], sim.noise.samples, window=8
            )

    def test_estimate_shorter_than_filter_rejected_under_a_longer_window(self):
        # the window would span the whole estimate, but that is still
        # shorter than the 32-tap projection filter
        sim, _ = make_sim(seed=20, duration=1.0)
        with pytest.raises(SizeError, match="estimate of 20 samples"):
            evaluate_blockwise(
                sim.mixture.samples[0, :20], sim.clean.samples[0], sim.noise.samples, window=100
            )


def reference_delay_matrix(x, n_delays):
    """Dense truncated causal delay matrix: column d is x delayed by d samples.

    Columns at delays >= N stay zero; the dense library version raised a
    ValueError there once n_delays > N + 1 (for N >= 2).
    """
    n = x.shape[0]
    out = np.zeros((n, n_delays))
    for d in range(min(n_delays, n)):
        out[d:, d] = x[: n - d]
    return out


def reference_decompose(estimate, target_stem, noise_stems, filter_len):
    """Dense delay matrices solved by SVD least squares: the definition the
    normal-equation evaluator reproduces."""
    basis_t = reference_delay_matrix(target_stem, filter_len)
    coef, *_ = np.linalg.lstsq(basis_t, estimate, rcond=None)
    s_target = basis_t @ coef
    remainder = estimate - s_target
    if noise_stems.shape[0] > 0 and noise_stems.size > 0:
        basis_n = np.hstack([reference_delay_matrix(n, filter_len) for n in noise_stems])
        coef_n, *_ = np.linalg.lstsq(basis_n, remainder, rcond=None)
        e_interf = basis_n @ coef_n
    else:
        e_interf = np.zeros_like(remainder)
    return Decomposition(target=s_target, interference=e_interf, artifact=remainder - e_interf)


def assert_parts_match(estimate, target_stem, noise_stems, filter_len):
    ref = reference_decompose(estimate, target_stem, noise_stems, filter_len)
    got = decompose(estimate, target_stem, noise_stems, filter_len)
    scale = np.linalg.norm(estimate)
    for name in ("target", "interference", "artifact"):
        err = np.linalg.norm(getattr(got, name) - getattr(ref, name))
        assert err <= 1e-10 * scale, f"{name}: relative error {err / scale:.2e}"
    assert np.allclose(got.target + got.interference + got.artifact, estimate, rtol=0, atol=1e-12 * scale)
    return ref, got


def assert_matches_reference(estimate, target_stem, noise_stems, filter_len=32):
    ref, got = assert_parts_match(estimate, target_stem, noise_stems, filter_len)
    r_ref, r_got = metrics(ref), metrics(got)
    assert r_got.sir_db == pytest.approx(r_ref.sir_db, abs=1e-9)
    assert r_got.sdr_db == pytest.approx(r_ref.sdr_db, abs=1e-9)


def decaying_burst(n, lead, rng):
    """Random-sign burst decaying by 0.6 per sample, starting `lead` samples in."""
    return np.r_[np.zeros(lead), 0.6 ** np.arange(n - lead) * rng.choice([-1.0, 1.0], n - lead)]


class TestDecomposeMatchesDenseReference:
    def test_enhanced_pipeline_output(self):
        sim, _ = make_sim(seed=30)
        cfg = PipelineConfig(block_frames=50, beamformer="mvdr", postfilter="wiener", vad_mode="oracle")
        out = run(sim.mixture, cfg, oracle=OracleStems(clean=sim.clean, noise=sim.noise)).samples[0]
        n = out.shape[0]
        assert_matches_reference(out, sim.clean.samples[0, :n], sim.noise.samples[:, :n])

    def test_duplicated_noise_stems(self):
        sim, _ = make_sim(seed=31)
        noises = np.vstack([sim.noise.samples, sim.noise.samples[:2]])
        assert_matches_reference(sim.mixture.samples[0], sim.clean.samples[0], noises)

    def test_all_zero_noise_stem(self):
        sim, _ = make_sim(seed=32)
        noises = np.vstack([sim.noise.samples[:2], np.zeros(sim.mixture.n_samples)])
        assert_matches_reference(sim.mixture.samples[0], sim.clean.samples[0], noises)

    def test_all_zero_target_stem(self):
        sim, _ = make_sim(seed=33)
        est = sim.mixture.samples[0]
        assert_matches_reference(est, np.zeros_like(est), sim.noise.samples)
        assert not np.any(decompose(est, np.zeros_like(est), sim.noise.samples).target)

    def test_filter_len_one(self):
        sim, _ = make_sim(seed=34)
        assert_matches_reference(
            sim.mixture.samples[0], sim.clean.samples[0], sim.noise.samples, filter_len=1
        )

    def test_signal_shorter_than_filter(self):
        # N = 20 < L = 32: the truncated rows outnumber the kept ones. The
        # stems start late, so each part of the estimate is nonzero: target
        # on samples 8.., interference on 3..7, artifact on 0..2
        rng = np.random.default_rng(35)
        target = decaying_burst(20, 8, rng)
        noise = decaying_burst(20, 3, rng)
        est = rng.standard_normal(20)
        _, got = assert_parts_match(est, target, noise[np.newaxis], 32)
        assert np.allclose(got.artifact[3:], 0.0, atol=1e-12)
        assert np.allclose(got.interference[8:], 0.0, atol=1e-12)
        assert_matches_reference(est, target, noise[np.newaxis], filter_len=32)

    def test_empty_estimate(self):
        d = decompose(np.zeros(0), np.zeros(0), np.zeros((2, 0)), 8)
        assert d.target.shape == d.interference.shape == d.artifact.shape == (0,)

    def test_no_noise_rows(self):
        sim, _ = make_sim(seed=36)
        est = sim.mixture.samples[0]
        assert_matches_reference(est, sim.clean.samples[0], np.zeros((0, est.shape[0])))


def _has_ill_posed_directions(basis):
    """True when a singular value lies between the dense solver's null
    cutoff (max(M, N) eps sigma_max) and 1e-4 sigma_max.

    There the Gram-based solve drops a direction below
    sqrt(max(M, N) eps) sigma_max that the dense solve keeps, and both
    solutions carry errors of about eps times the condition number, so the
    two cannot be compared to 1e-10.
    """
    if basis.size == 0:
        return False
    sv = np.linalg.svd(basis, compute_uv=False)
    if sv[0] == 0.0:
        return False
    ratio = sv / sv[0]
    return bool(np.any((ratio > max(basis.shape) * np.finfo(np.float64).eps) & (ratio < 1e-4)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    filter_len=st.integers(1, 40),
    n_noise=st.integers(0, 3),
    lead=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_decompose_matches_dense_reference_property(n, filter_len, n_noise, lead, seed):
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(n)
    target[:lead] = 0.0  # leading silence makes the basis rank deficient
    noises = rng.standard_normal((n_noise, n))
    est = rng.standard_normal(n)
    assume(not _has_ill_posed_directions(reference_delay_matrix(target, filter_len)))
    if n_noise:
        basis_n = np.hstack([reference_delay_matrix(x, filter_len) for x in noises])
        assume(not _has_ill_posed_directions(basis_n))
    assert_parts_match(est, target, noises, filter_len)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 300),
    filter_len=st.integers(1, 40),
    n_noise=st.integers(0, 3),
    extra=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_estimate_is_metrics_of_decompose_property(n, filter_len, n_noise, extra, seed):
    # stems `extra` samples longer than the estimate are trimmed to it
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(n + extra)
    noises = rng.standard_normal((n_noise, n + extra))
    est = rng.standard_normal(n)
    if n < filter_len:
        with pytest.raises(SizeError, match="shorter than the projection filter"):
            evaluate_estimate(est, target, noises, filter_len)
        return
    got = evaluate_estimate(est, target, noises, filter_len)
    want = metrics(decompose(est, target[:n], noises[:, :n], filter_len))
    assert np.array([got.sir_db, got.sdr_db, got.sar_db]).tobytes() == np.array(
        [want.sir_db, want.sdr_db, want.sar_db]
    ).tobytes()
    assert got.capped == want.capped


def lfilter_speech_like_source(duration_s, sample_rate, rng, pause_prob=0.3):
    """speech_like_source with scipy.signal.lfilter as the AR(1) carrier."""
    n = int(round(duration_s * sample_rate))
    env = evalsim._gated_envelope(n, sample_rate, rng, pause_prob, 0.3)
    ramp = int(round(0.004 * sample_rate))
    if ramp > 1:
        kernel = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(ramp) / ramp)
        env = np.convolve(env, kernel / kernel.sum(), mode="same")
    x = scipy.signal.lfilter([1.0], [1.0, -0.9], rng.standard_normal(n)) * env
    peak = np.max(np.abs(x))
    return x / peak if peak > 0 else x


def lfilter_clean(spec, dry):
    """Clean stems as each segment's FIR filter over the whole source, cut to
    the segment."""
    bounds = list(spec.segment_starts) + [dry.shape[0]]
    clean = np.zeros((spec.channel_count, dry.shape[0]))
    for seg, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        for ch in range(spec.channel_count):
            clean[ch, lo:hi] = scipy.signal.lfilter(spec.firs[seg, ch], [1.0], dry)[lo:hi]
    return clean


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestFiltersMatchScipy:
    """The numpy filters give the bits of scipy.signal.lfilter."""

    @pytest.mark.parametrize("duration_s", [0.004, 0.0101, 0.5, 1.3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("sample_rate", [16000, 8000])
    def test_speech_like_source(self, sample_rate, seed, duration_s):
        got = speech_like_source(duration_s, sample_rate, np.random.default_rng(seed))
        want = lfilter_speech_like_source(duration_s, sample_rate, np.random.default_rng(seed))
        assert_bitwise(got, want)

    def test_static_simulate(self):
        rng = np.random.default_rng(11)
        dry = speech_like_source(1.0, 16000, rng)
        firs = decaying_firs([0, 2, 5, 7], rng, extra_taps=8, decay=0.7)
        spec = MixtureSpec(channel_count=4, firs=firs[np.newaxis], snr_db=3.0)
        sim = simulate(spec, dry, pink_noise(4, dry.shape[0], rng))
        assert_bitwise(sim.clean.samples, lfilter_clean(spec, dry))

    @pytest.mark.parametrize("taps", [1, 2, 13, 33, 64])
    def test_moving_simulate(self, taps):
        # random layouts: sources shorter and longer than the FIR, segments
        # shorter than the FIR, a last segment of one sample
        rng = np.random.default_rng(taps)
        for trial in range(60):
            n = int(rng.integers(1, 2 * taps + 3)) if trial % 3 == 0 else int(rng.integers(taps, 600))
            n = max(n, 2) if trial % 5 == 1 else n
            n_seg = int(rng.integers(1, min(n, 8) + 1))
            inner = rng.choice(np.arange(1, n), size=n_seg - 1, replace=False) if n_seg > 1 else []
            if trial % 5 == 1 and n_seg > 1:
                inner[-1] = n - 1
            starts = np.unique(np.concatenate([[0], inner])).astype(np.int64)
            firs = rng.standard_normal((starts.shape[0], 2, taps))
            spec = MixtureSpec(channel_count=2, firs=firs, segment_starts=starts)
            dry = rng.standard_normal(n)
            sim = simulate(spec, dry, rng.standard_normal((2, n)))
            assert_bitwise(sim.clean.samples, lfilter_clean(spec, dry))

    def test_decompose_and_evaluate(self, monkeypatch):
        rng = np.random.default_rng(12)
        dry = speech_like_source(0.6, 16000, rng)
        firs = np.stack([decaying_firs([0, 3, 6], rng), decaying_firs([0, 6, 1], rng)])
        spec = MixtureSpec(channel_count=3, firs=firs, segment_starts=np.array([0, 4000]))
        sim = simulate(spec, dry, pink_noise(3, dry.shape[0], rng))
        args = (sim.mixture.samples[1, :9000], sim.clean.samples[0], sim.noise.samples)
        got = decompose(args[0], args[1][:9000], args[2][:, :9000], filter_len=20)
        got_report = evaluate_estimate(*args)
        monkeypatch.setattr(evalsim, "_fir", lambda b, x: scipy.signal.lfilter(b, [1.0], x))
        want = decompose(args[0], args[1][:9000], args[2][:, :9000], filter_len=20)
        for part in ("target", "interference", "artifact"):
            assert_bitwise(getattr(got, part), getattr(want, part))
        assert got_report == evaluate_estimate(*args)


def test_import_leaves_scipy_signal_unloaded(tmp_path):
    # importing scipy takes most of a cold start, so the package imports no
    # scipy module; only the WAV reader and writer load one (scipy.io), and
    # nothing loads scipy.signal
    wav = tmp_path / "one.wav"
    write_wav(MultichannelSignal(np.zeros((2, 160)), 16000), wav)
    code = (
        "import sys, numpy as np, blockbeam, blockbeam.cli\n"
        "from blockbeam.audio_io import NetworkLayer, NetworkWeights\n"
        "def loaded():\n"
        "    return [m for m in ('scipy.io', 'scipy.special', 'scipy.signal') if m in sys.modules]\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "blockbeam.audio_io.read_wav(sys.argv[1])\n"
        "print('read_wav', loaded())\n"
        "net = NetworkWeights([NetworkLayer(np.zeros((3, 3)), np.zeros(3), 'sigmoid')], np.zeros(3), np.ones(3))\n"
        "blockbeam.vad.infer_mask(net, np.ones((3, 2)))\n"
        "print('infer_mask', loaded())\n"
        "ev = blockbeam.evalsim\n"
        "rng = np.random.default_rng(0)\n"
        "dry = ev.speech_like_source(0.1, 16000, rng)\n"
        "spec = ev.MixtureSpec(channel_count=2, firs=ev.decaying_firs([0, 3], rng)[np.newaxis])\n"
        "sim = ev.simulate(spec, dry, ev.pink_noise(2, dry.shape[0], rng))\n"
        "ev.evaluate_estimate(sim.mixture.samples[0], sim.clean.samples[0], sim.noise.samples)\n"
        "print('simulate and evaluate_estimate', loaded())\n"
    )
    src = str(Path(blockbeam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, str(wav)], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:4] == [
        "[]",
        "read_wav ['scipy.io']",
        "infer_mask ['scipy.io']",
        "simulate and evaluate_estimate ['scipy.io']",
    ]
