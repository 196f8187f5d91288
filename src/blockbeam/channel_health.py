"""Per-block microphone failure detection via cross-channel correlation."""

from __future__ import annotations

import numpy as np

from .audio_io import MultichannelSignal
from .errors import SizeError

# Correlation thresholds calibrated for simulated and real recordings.
T_MU_SIMULATED = 0.05
T_MU_REAL = 0.40


def detect_failures(block: MultichannelSignal) -> np.ndarray:
    """Per-channel best zero-lag Pearson correlation mu against the other
    channels, (channels,) in [0, 1].

    A failed microphone (disconnected, saturated to constant, pure local noise)
    decorrelates from every healthy channel, so a channel counts as active
    when mu >= the threshold (T_MU_SIMULATED or T_MU_REAL). Zero-variance
    channels get mu = 0.
    """
    x = block.samples
    n_ch, n_samples = x.shape
    if n_ch < 2:
        raise SizeError(f"failure detection needs >= 2 channels, got {n_ch}")
    if n_samples < 2:
        raise SizeError(f"failure detection needs >= 2 samples, got {n_samples}")

    centered = x - x.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(centered * centered, axis=1))
    gram = centered @ centered.T
    denom = np.outer(norms, norms)
    corr = np.zeros_like(gram)
    ok = denom > 0
    corr[ok] = gram[ok] / denom[ok]
    np.fill_diagonal(corr, 0.0)

    mu = np.minimum(np.max(np.abs(corr), axis=1), 1.0)
    # correlation is mathematically <= 1; values within rounding of 1 come
    # from exact-copy channels and must stay active even at threshold 1
    mu[mu >= 1.0 - 1e-12] = 1.0
    return mu
