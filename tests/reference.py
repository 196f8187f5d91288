"""Reference formulations that tests compare the library against."""

import numpy as np

from blockbeam.beamform import MASK_SUM_FLOOR, _hermitize, noise_projection


def estimate_noise(bins, inv_rtf):
    """Blocked least-squares noise estimate (P B) x of every frame, formed
    explicitly from the library's projection; see `noise_projection`.

    Returns (noise estimate (K, L, M), noise covariance (K, M, M), count of
    loaded bins).
    """
    x = np.asarray(bins)
    proj_b, noise_cov, n_loaded = noise_projection(x, inv_rtf)
    return x @ proj_b.transpose(0, 2, 1), noise_cov, n_loaded


def sample_covariance_one_shot(bins, weights=None):
    """Per-bin weighted sum of outer products conj((w conj(x))^T x) in one
    batched `matmul` over every bin, as `beamform.sample_covariance`
    computes it chunk by chunk; None weights every frame by 1."""
    x = np.asarray(bins)
    weighted = np.conj(x)
    if weights is not None:
        weighted *= np.asarray(weights)[:, :, None]
    return np.conj(weighted.transpose(0, 2, 1) @ x)


def masked_covariances_one_shot(bins, mask):
    """`beamform.masked_covariances` with both weighted sums taken over every
    bin at once by `sample_covariance_one_shot`."""
    x = np.asarray(bins)
    n_frames = x.shape[1]
    w = np.asarray(mask, dtype=np.float64)
    w_noise = 1.0 - w
    sum_speech = w.sum(axis=1)
    sum_noise = w_noise.sum(axis=1)
    degenerate = (sum_speech <= MASK_SUM_FLOOR) | (sum_noise <= MASK_SUM_FLOOR)
    speech = sample_covariance_one_shot(x, w)
    noise = sample_covariance_one_shot(x, w_noise)

    speech[degenerate] += noise[degenerate]
    noise[degenerate] = speech[degenerate]
    sum_speech[degenerate] = n_frames
    sum_noise[degenerate] = n_frames
    speech /= sum_speech[:, None, None]
    noise /= sum_noise[:, None, None]
    return _hermitize(speech), _hermitize(noise), degenerate
