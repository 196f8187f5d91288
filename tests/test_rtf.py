import numpy as np
import pytest

from blockbeam.errors import SizeError
from blockbeam.evalsim import (
    MixtureSpec,
    delay_firs,
    simulate,
    speech_like_source,
    true_rtfs,
    white_noise,
)
from blockbeam.rtf import _closed_form, _subblock_sums, build_rtf_set, reciprocal_rtf
from blockbeam.stft import analyze
from blockbeam.vad import oracle_ibm


def lstsq_inverse_rtf(cross, auto):
    """Independent oracle: per bin, solve the overdetermined linear system
    cross(n) = g * auto(n) + c for (g, c) with a generic least-squares call."""
    out = np.empty(cross.shape[0], dtype=complex)
    for k in range(cross.shape[0]):
        design = np.column_stack([auto[k].astype(complex), np.ones_like(auto[k], dtype=complex)])
        coef, *_ = np.linalg.lstsq(design, cross[k], rcond=None)
        out[k] = coef[0]
    return out


def shared(n_bins, n_frames):
    """All-ones weights in the (K, L, 1) shared-mask layout of _subblock_sums."""
    return np.ones((n_bins, n_frames, 1))


def inverse_rtf(x, mask):
    """build_rtf_set's estimate for channel 1 against reference channel 0."""
    return build_rtf_set(x, mask, sub_block_len=10)[0][:, 1]


def random_bins(n_bins, n_frames, n_ch, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_bins, n_frames, n_ch)) + 1j * rng.standard_normal(
        (n_bins, n_frames, n_ch)
    )


class TestComputeSubblockPsd:
    """The mask-weighted sub-block PSD sums inside build_rtf_set."""

    def test_identical_channels_cross_equals_auto(self):
        bins = random_bins(8, 40, 1, 0)
        x = np.concatenate([bins, bins], axis=2)
        cross, auto = _subblock_sums(x, shared(8, 40), sub_block_len=10)
        assert np.allclose(cross, auto)
        assert np.all(auto >= 0)

    def test_zero_mask_annihilates(self):
        x = random_bins(8, 40, 2, 1)
        cross, auto = _subblock_sums(x, np.zeros((8, 40, 1)), 10)
        assert np.all(cross == 0) and np.all(auto == 0)

    def test_sub_block_counts_per_block_length(self):
        # 10-frame sub-blocks over the standard block lengths
        for frames, expected in [(31, 3), (50, 5), (100, 10), (250, 25)]:
            x = random_bins(4, frames, 2, 2)
            cross, auto = _subblock_sums(x, shared(4, frames), 10)
            assert cross.shape == auto.shape == (4, expected, 1)

    def test_trailing_frames_discarded(self):
        x = random_bins(4, 47, 2, 3)
        full, _ = _subblock_sums(x, shared(4, 47), 10)
        trimmed, _ = _subblock_sums(x[:, :40], shared(4, 40), 10)
        assert np.array_equal(full, trimmed)
        assert np.array_equal(inverse_rtf(x, np.ones((4, 47))), inverse_rtf(x[:, :40], np.ones((4, 40))))

    def test_too_few_frames(self):
        x = random_bins(4, 19, 2, 4)
        with pytest.raises(SizeError):
            build_rtf_set(x, np.ones((4, 19)), sub_block_len=10)

    def test_unit_mask_matches_plain_sums(self):
        # with weighting disabled the statistics reduce to plain sums
        x = random_bins(6, 30, 2, 5)
        cross, _ = _subblock_sums(x, shared(6, 30), 10)
        plain_cross = np.array(
            [
                [np.sum(x[k, n * 10 : (n + 1) * 10, 0] * np.conj(x[k, n * 10 : (n + 1) * 10, 1])) for n in range(3)]
                for k in range(6)
            ]
        )
        assert np.allclose(cross[:, :, 0], plain_cross, rtol=1e-14, atol=0)


class TestEstimateRtfInverse:
    """The closed-form inverse RTF of build_rtf_set (`_closed_form`)."""

    def test_exact_proportionality(self):
        bins = random_bins(16, 60, 1, 6)
        x = np.concatenate([2.0 * bins, bins], axis=2)
        g_inv = inverse_rtf(x, np.ones((16, 60)))
        assert np.allclose(g_inv, 2.0, atol=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            n_sub = int(rng.integers(2, 26))
            cross = rng.standard_normal((12, n_sub)) + 1j * rng.standard_normal((12, n_sub))
            auto = rng.uniform(0.5, 2.0, (12, n_sub))
            closed, _ = _closed_form(cross, auto)
            reference = lstsq_inverse_rtf(cross, auto)
            assert np.allclose(closed, reference, rtol=1e-9, atol=1e-12)

    def test_mask_scaling_invariance(self):
        x = random_bins(8, 50, 2, 8)
        mask = np.random.default_rng(9).uniform(0.1, 1.0, (8, 50))
        a = inverse_rtf(x, mask)
        b = inverse_rtf(x, mask / 2)
        assert np.allclose(a, b, rtol=1e-12)

    def test_channel_scaling_covariance(self):
        # scaling channel i by complex c scales the estimate by 1/c
        x = random_bins(8, 50, 2, 10)
        c = 0.8 - 1.3j
        scaled = x.copy()
        scaled[:, :, 1] *= c
        base = inverse_rtf(x, np.ones((8, 50)))
        moved = inverse_rtf(scaled, np.ones((8, 50)))
        assert np.allclose(moved, base / c, rtol=1e-10)

    def test_degenerate_variance_falls_back_to_ratio(self):
        # constant auto-PSD across sub-blocks has zero variance
        cross = np.full((3, 5), 2.0 + 0j)
        auto = np.full((3, 5), 4.0)
        g_inv, fallback = _closed_form(cross, auto)
        assert np.allclose(g_inv, 0.5)
        assert np.all(fallback)

    def test_all_silent_bin_returns_one(self):
        g_inv, _ = _closed_form(np.zeros((2, 4), dtype=complex), np.zeros((2, 4)))
        assert np.allclose(g_inv, 1.0)
        # an all-zero mask silences every sub-block: each bin falls back to 1
        inv_rtf, guarded = build_rtf_set(random_bins(2, 40, 3, 1), np.zeros((2, 40)))
        assert np.array_equal(inv_rtf, np.ones((2, 3)))
        assert guarded.tolist() == [0, 2, 2]

    def test_needs_two_sub_blocks(self):
        # 10 frames of 10-frame sub-blocks make one sub-block
        with pytest.raises(SizeError):
            build_rtf_set(random_bins(2, 10, 2, 0), np.ones((2, 10)), sub_block_len=10)


class TestDelaySimulation:
    def test_recovers_delay_phase(self):
        # anechoic two-channel mixture with a pure 3-sample delay at 20 dB SNR
        rng = np.random.default_rng(11)
        fs = 16000
        dry = speech_like_source(0.9, fs, rng)
        firs = delay_firs([0, 3])
        sim = simulate(
            MixtureSpec(channel_count=2, firs=firs[np.newaxis], snr_db=20.0),
            dry,
            white_noise(2, dry.shape[0], rng),
        )
        spec = analyze(sim.mixture)
        clean_spec = analyze(sim.clean)
        noise_spec = analyze(sim.noise)
        mask = oracle_ibm(clean_spec[:, :100, 1], noise_spec[:, :100, 1], 5.0)
        g_inv = inverse_rtf(spec[:, :100], mask)

        k = np.arange(257)
        truth = np.exp(1j * 2 * np.pi * k * 3 / 512)
        assert np.allclose(true_rtfs(firs)[1][:, 1], truth)
        phase_err = np.abs(np.angle(g_inv[4:101] * np.conj(truth[4:101])))
        assert np.median(phase_err) < 0.05


class TestBuildRtfSet:
    def test_wrong_rank_rejected(self):
        with pytest.raises(SizeError, match=r"\(bins, frames, channels\)"):
            build_rtf_set(random_bins(8, 40, 2, 14)[:, :, 0], np.ones((8, 40)))

    def test_identical_channels(self):
        bins = random_bins(8, 40, 1, 12)
        x = np.concatenate([bins, bins, bins], axis=2)
        inv_rtf, _ = build_rtf_set(x, np.ones((8, 40)), sub_block_len=10)
        assert np.allclose(inv_rtf, 1.0, atol=1e-10)
        assert np.all(inv_rtf[:, 0] == 1.0)
        assert inv_rtf.shape[1] == 3

    def test_inactive_channel_excluded(self):
        # the pipeline passes only the active channels; each keeps the
        # estimate it has in the full set
        x = random_bins(8, 40, 4, 13)
        inv_rtf, _ = build_rtf_set(x[:, :, [0, 1, 3]], np.ones((8, 40)))
        full, _ = build_rtf_set(x, np.ones((8, 40)))
        assert inv_rtf.shape == (8, 3)
        assert np.all(inv_rtf[:, 0] == 1.0)
        assert np.allclose(inv_rtf, full[:, [0, 1, 3]], rtol=1e-12, atol=0)

    def test_reciprocal_regularization(self):
        g_inv = np.array([[1.0 + 0j, 0.0 + 0j, 2.0 + 0j]])
        rec = reciprocal_rtf(g_inv)
        assert np.isfinite(rec).all()
        assert abs(rec[0, 0] - 1.0) < 1e-5
        assert rec[0, 1] == 0.0
        assert abs(rec[0, 2] - 0.5) < 1e-6

    def test_nonreference_phase_slopes_recovered(self):
        rng = np.random.default_rng(17)
        fs = 16000
        dry = speech_like_source(0.9, fs, rng)
        firs = delay_firs([0, 2, 5])
        sim = simulate(
            MixtureSpec(channel_count=3, firs=firs[np.newaxis], snr_db=20.0),
            dry,
            white_noise(3, dry.shape[0], rng),
        )
        spec = analyze(sim.mixture)
        inv_rtf, _ = build_rtf_set(spec[:, :100], np.ones((257, 100)))
        _, inv_truth = true_rtfs(firs)
        for col, ch in [(1, 1), (2, 2)]:
            err = np.abs(np.angle(inv_rtf[4:101, col] * np.conj(inv_truth[4:101, ch])))
            assert np.median(err) < 0.1
