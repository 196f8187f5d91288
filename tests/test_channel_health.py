import numpy as np
import pytest
import scipy.signal

from blockbeam.audio_io import MultichannelSignal
from blockbeam.channel_health import T_MU_REAL, T_MU_SIMULATED, detect_failures
from blockbeam.errors import SizeError


def lowpass_noise(n, seed):
    rng = np.random.default_rng(seed)
    return scipy.signal.lfilter([1.0], [1.0, -0.9], rng.standard_normal(n))


class TestDetectFailures:
    def test_exact_copy_channels(self):
        x = lowpass_noise(2000, 0)
        sig = MultichannelSignal(np.stack([x, x]), 16000)
        mu = detect_failures(sig)
        assert np.allclose(mu, 1.0)
        assert (mu >= 0.4).all()

    def test_independent_noise_channel_discarded(self):
        # two correlated "speech" channels plus one unrelated noise channel
        speech = lowpass_noise(4000, 1)
        rng = np.random.default_rng(2)
        sig = MultichannelSignal(
            np.stack([speech, np.roll(speech, 2), rng.standard_normal(4000)]), 16000
        )
        mu = detect_failures(sig)
        active = mu >= 0.4
        assert active[0] and active[1]
        assert not active[2]
        assert mu[2] < 0.4

    def test_paper_default_thresholds(self):
        assert T_MU_SIMULATED == 0.05
        assert T_MU_REAL == 0.40

    def test_zero_variance_channel(self):
        x = lowpass_noise(1000, 3)
        sig = MultichannelSignal(np.stack([x, np.full(1000, 0.3)]), 16000)
        mu = detect_failures(sig)
        assert mu[1] == 0.0
        assert not mu[1] >= 0.05

    def test_needs_two_channels(self):
        with pytest.raises(SizeError):
            detect_failures(MultichannelSignal(np.zeros((1, 100)), 16000))

    def test_needs_two_samples(self):
        with pytest.raises(SizeError):
            detect_failures(MultichannelSignal(np.zeros((2, 1)), 16000))


class TestProperties:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        x = np.stack([lowpass_noise(1500, s) for s in (10, 11, 12)])
        x[1] += 0.5 * x[0]
        perm = [2, 0, 1]
        mu1 = detect_failures(MultichannelSignal(x, 16000))
        mu2 = detect_failures(MultichannelSignal(x[perm], 16000))
        assert np.allclose(mu2, mu1[perm])
        assert np.array_equal(mu2 >= 0.3, mu1[perm] >= 0.3)

    def test_scale_invariance(self):
        x = np.stack([lowpass_noise(1500, s) for s in (20, 21)])
        x[1] += x[0]
        mu1 = detect_failures(MultichannelSignal(x, 16000))
        scaled = x.copy()
        scaled[0] *= -17.5
        mu2 = detect_failures(MultichannelSignal(scaled, 16000))
        assert np.allclose(mu2, mu1, atol=1e-12)

    def test_identical_channels_always_active(self):
        x = lowpass_noise(800, 5)
        sig = MultichannelSignal(np.stack([x, x, x]), 16000)
        mu = detect_failures(sig)
        for t_mu in (0.05, 0.5, 1.0):
            assert (mu >= t_mu).all()

    def test_active_indices(self):
        x = lowpass_noise(1000, 6)
        rng = np.random.default_rng(7)
        sig = MultichannelSignal(np.stack([x, rng.standard_normal(1000), x]), 16000)
        active = detect_failures(sig) >= 0.4
        assert np.flatnonzero(active).tolist() == [0, 2]
        assert np.count_nonzero(active) == 2
