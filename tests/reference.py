"""Reference formulations that tests compare the library against."""

import numpy as np

from blockbeam.beamform import noise_projection


def estimate_noise(bins, inv_rtf):
    """Blocked least-squares noise estimate (P B) x of every frame, formed
    explicitly from the library's projection; see `noise_projection`.

    Returns (noise estimate (K, L, M), noise covariance (K, M, M), count of
    loaded bins).
    """
    x = np.asarray(bins)
    proj_b, noise_cov, n_loaded = noise_projection(x, inv_rtf)
    return x @ proj_b.transpose(0, 2, 1), noise_cov, n_loaded
