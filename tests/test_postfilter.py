import itertools

import numpy as np
import pytest

from blockbeam.audio_io import MultichannelSignal
from blockbeam.beamform import apply_weights, mvdr_weights
from blockbeam.errors import ConfigError, SizeError
from blockbeam.pipeline import PipelineConfig, process_block
from blockbeam.postfilter import HIGH_CUTOFF_HZ, LOW_CUTOFF_HZ, LOW_GAIN, VAD_THRESHOLD, wiener_mask
from blockbeam.stft import BIN_FREQS, N_BINS
from reference import estimate_noise


def random_bins(n_bins, n_frames, n_ch, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_bins, n_frames, n_ch)) + 1j * rng.standard_normal(
        (n_bins, n_frames, n_ch)
    )


class TestResidualNoise:
    """The residual noise w^H n: apply_weights on the noise estimate."""

    def test_zero_noise_estimate(self):
        w = np.ones((4, 2), dtype=complex)
        assert np.all(apply_weights(w, np.zeros((4, 3, 2), dtype=complex)) == 0)

    def test_one_hot_selects_noise_channel(self):
        w = np.zeros((4, 3), dtype=complex)
        w[:, 2] = 1.0
        noise_est = random_bins(4, 5, 3, 0)
        out = apply_weights(w, noise_est)
        assert np.array_equal(out, noise_est[:, :, 2])

    def test_mvdr_residual_not_louder_than_input_noise(self):
        # frequency-domain mixture with known noise; the beamformed residual
        # estimate carries less energy than the noise entering the array
        rng = np.random.default_rng(1)
        n_bins, n_frames, n_ch = 32, 60, 4
        inv_rtf = np.ones((n_bins, n_ch), dtype=complex)
        s = rng.standard_normal((n_bins, n_frames)) + 1j * rng.standard_normal((n_bins, n_frames))
        noise = 0.3 * random_bins(n_bins, n_frames, n_ch, 2)
        x = s[:, :, None] + noise
        noise_est, noise_cov, _ = estimate_noise(x, inv_rtf)
        w, _ = mvdr_weights(noise_cov, inv_rtf)
        r = apply_weights(w, noise_est)
        assert np.sum(np.abs(r) ** 2) <= np.sum(np.abs(noise) ** 2)

    def test_shape_mismatch(self):
        w = np.ones((4, 2), dtype=complex)
        with pytest.raises(SizeError):
            apply_weights(w, np.zeros((4, 3, 3), dtype=complex))


class TestWienerMask:
    def test_output_residual_shape_mismatch_rejected(self):
        u = np.ones((257, 4), dtype=complex)
        with pytest.raises(SizeError, match="shape mismatch"):
            wiener_mask(u, u[:, :3], None)

    def test_no_residual_gain_near_one(self):
        u = np.full((257, 4), 10.0 + 0j)
        r = np.zeros((257, 4), dtype=complex)
        gain = wiener_mask(u, r, None)
        middle = (BIN_FREQS >= 100) & (BIN_FREQS <= 3125)
        assert np.allclose(gain[middle], 1.0, atol=1e-4)

    def test_all_noise_gain_near_zero(self):
        u = np.full((257, 4), 10.0 + 0j)
        gain = wiener_mask(u, u, None)
        middle = (BIN_FREQS >= 100) & (BIN_FREQS <= 3125)
        assert np.all(gain[middle] < 1e-4)
        assert np.all(gain > 0)

    def test_frequency_boundary_bins(self):
        # 16 kHz, 512-point frames: bins 0..3 sit below 100 Hz (bin 3 is
        # 93.75 Hz), and 3125 Hz is exactly bin 100, excluded by the strict
        # inequality
        u = np.full((257, 2), 1.0 + 0j)
        r = np.full((257, 2), 1.0 + 0j)  # base gain tiny everywhere
        gain = wiener_mask(u, r, None)
        assert np.all(gain[:4] == LOW_GAIN)
        assert gain[4, 0] < 1e-4  # 125 Hz: base gain applies
        assert gain[100, 0] < 1e-4  # exactly 3125 Hz: not overridden
        assert np.all(gain[101:] == 1.0)

    def test_vad_override(self):
        u = np.full((257, 3), 1.0 + 0j)
        r = np.full((257, 3), 1.0 + 0j)
        mask = np.zeros((257, 3))
        mask[50, 1] = 0.31  # just above the 0.3 threshold
        mask[60, 2] = 0.30  # exactly at threshold: strict inequality, no override
        gain = wiener_mask(u, r, mask)
        assert gain[50, 1] == 1.0
        assert gain[60, 2] < 1e-4
        assert gain[50, 0] < 1e-4

    def test_override_precedence_exhaustive(self):
        # every combination of base gain level, frequency band and VAD state
        # the bins at 50, 1000 and 4000 Hz: low, mid, high band
        rows = np.searchsorted(BIN_FREQS, [50.0, 1000.0, 4000.0])
        base_levels = {"high": (4.0, 0.0), "low": (4.0, 4.0)}  # (|u|^2, |r|^2)
        for (name, (u2, r2)), vad_on in itertools.product(base_levels.items(), (False, True)):
            u = np.sqrt(u2) * np.ones((N_BINS, 1), dtype=complex)
            r = np.sqrt(r2) * np.ones((N_BINS, 1), dtype=complex)
            mask = np.full((N_BINS, 1), 0.9 if vad_on else 0.0)
            gain = wiener_mask(u, r, mask)[rows]
            # low band: low_gain unless VAD overrides afterwards
            assert gain[0, 0] == (1.0 if vad_on else LOW_GAIN)
            # high band: always 1 (VAD override agrees)
            assert gain[2, 0] == 1.0
            # mid band: base gain unless VAD overrides
            if vad_on:
                assert gain[1, 0] == 1.0
            elif name == "high":
                assert gain[1, 0] > 0.99
            else:
                assert gain[1, 0] < 1e-4
            assert np.all(gain > 0.0) and np.all(gain <= 1.0)

    def test_idempotent_override_order(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((257, 6)) + 1j * rng.standard_normal((257, 6))
        r = 0.5 * (rng.standard_normal((257, 6)) + 1j * rng.standard_normal((257, 6)))
        mask = rng.uniform(0, 1, (257, 6))
        gain = wiener_mask(u, r, mask)
        # re-applying the override cascade to the result changes nothing
        again = gain.copy()
        again[BIN_FREQS < LOW_CUTOFF_HZ, :] = LOW_GAIN
        again[BIN_FREQS > HIGH_CUTOFF_HZ, :] = 1.0
        again[mask > VAD_THRESHOLD] = 1.0
        assert np.array_equal(gain, again)

    def test_monotone_in_residual(self):
        u = np.full((257, 1), 2.0 + 0j)
        mask = None
        gains = []
        for r_amp in (0.0, 0.5, 1.0, 1.5, 2.0):
            r = np.full((257, 1), r_amp + 0j)
            gains.append(wiener_mask(u, r, mask)[20, 0])
        assert all(a >= b for a, b in zip(gains, gains[1:]))

    def test_bounds_random(self):
        rng = np.random.default_rng(4)
        u = 10 * (rng.standard_normal((257, 5)) + 1j * rng.standard_normal((257, 5)))
        r = 10 * (rng.standard_normal((257, 5)) + 1j * rng.standard_normal((257, 5)))
        gain = wiener_mask(u, r, rng.uniform(0, 1, (257, 5)))
        assert np.all(gain > 0.0) and np.all(gain <= 1.0)

    @pytest.mark.parametrize("with_mask", [False, True])
    def test_no_frames_rejected(self, with_mask):
        # the mean |u|^2 of no frames is NaN, so delta would be too
        u = np.zeros((257, 0), dtype=complex)
        with pytest.raises(SizeError):
            wiener_mask(u, u, np.zeros((257, 0)) if with_mask else None)

    def test_cutoff_above_nyquist_rejected(self):
        # the grid's top bin lies above the cutoff; a 6 kHz block, whose top
        # bin (3000 Hz) would lie below it, is rejected before any Wiener gain
        assert BIN_FREQS[-1] > HIGH_CUTOFF_HZ
        block = MultichannelSignal(np.random.default_rng(0).standard_normal((4, 13184)), 6000)
        with pytest.raises(ConfigError, match="rate 6000"):
            process_block(block, PipelineConfig(postfilter="wiener", vad_mode="none"))

    @pytest.mark.parametrize("shape", [(256, 2), (258, 2), (0, 2), (257,)])
    def test_bin_count_checked(self, shape):
        # the gain is defined on the frame grid's bins only
        u = np.ones(shape, dtype=complex)
        with pytest.raises(SizeError):
            wiener_mask(u, u, None)
