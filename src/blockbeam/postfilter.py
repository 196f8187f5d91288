"""Single-channel Wiener post-filtering of the beamformer output."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SizeError
from .vad import checked_mask


@dataclass(frozen=True)
class PostfilterConfig:
    """Wiener-mask parameters.

    noise_floor is relative: the division guard is noise_floor times the
    block's mean beamformer output power. Frequency cutoffs use strict
    inequalities on the bin center frequency: bins below low_cutoff_hz get
    low_gain, bins above high_cutoff_hz pass unfiltered.
    """

    noise_floor: float = 1e-6
    low_cutoff_hz: float = 100.0
    high_cutoff_hz: float = 3125.0
    vad_threshold: float = 0.3
    low_gain: float = 0.01

    def __post_init__(self):
        if self.noise_floor <= 0:
            raise ConfigError(f"noise_floor must be positive, got {self.noise_floor}")
        if not 0 <= self.low_cutoff_hz < self.high_cutoff_hz:
            raise ConfigError(
                f"need 0 <= low_cutoff_hz < high_cutoff_hz, got "
                f"{self.low_cutoff_hz}, {self.high_cutoff_hz}"
            )
        if not 0 < self.low_gain <= 1:
            raise ConfigError(f"low_gain must be in (0, 1], got {self.low_gain}")
        if not 0 <= self.vad_threshold <= 1:
            raise ConfigError(f"vad_threshold must be in [0, 1], got {self.vad_threshold}")


def projected_residual(weights: np.ndarray, bins, projection) -> np.ndarray:
    """Residual noise w^H (P B) x at the beamformer output, for (K, M)
    weights w, from the noise
    estimator's projection P B (`beamform.noise_projection`), equal to
    beamforming the per-frame noise estimate (P B) x with the same weights
    up to rounding.

    (P B)^T conj(w) is folded first, so the (K, L, M) per-channel noise
    estimate is never formed.
    """
    folded = np.asarray(projection).transpose(0, 2, 1) @ np.conj(weights)[:, :, None]
    return (np.asarray(bins) @ folded)[:, :, 0]


def wiener_mask(beam_out, residual, speech_mask, bin_freqs, cfg: PostfilterConfig) -> np.ndarray:
    """Per-bin Wiener gain with the three practical overrides.

    Base gain: max(|u|^2 - |r|^2, delta) / (|u|^2 + delta). Overrides apply
    in order: low-frequency bins are forced to low_gain, high-frequency bins
    to 1, and bins where the speech mask exceeds vad_threshold to 1 (skipped
    when speech_mask is None). The result is clamped into (0, 1].

    Arguments:
        beam_out, residual: complex spectrograms (K, L)
        speech_mask: pooled speech-presence weights (K, L) in [0, 1], or None
        bin_freqs: (K,) bin center frequencies in Hz
    """
    u = np.asarray(beam_out)
    r = np.asarray(residual)
    if u.shape != r.shape:
        raise SizeError(f"output/residual shape mismatch: {u.shape} vs {r.shape}")
    freqs = np.asarray(bin_freqs, dtype=np.float64)
    if freqs.shape != (u.shape[0],):
        raise SizeError(f"bin frequency vector {freqs.shape} != bin count {u.shape[0]}")
    if cfg.high_cutoff_hz > freqs[-1]:
        raise ConfigError(
            f"high_cutoff_hz {cfg.high_cutoff_hz} exceeds the Nyquist bin {freqs[-1]}"
        )

    u_pow = u.real**2 + u.imag**2
    r_pow = r.real**2 + r.imag**2
    delta = max(cfg.noise_floor * float(u_pow.mean()), np.finfo(np.float64).tiny)

    gain = np.maximum(u_pow - r_pow, delta) / (u_pow + delta)
    gain[freqs < cfg.low_cutoff_hz, :] = cfg.low_gain
    gain[freqs > cfg.high_cutoff_hz, :] = 1.0
    if speech_mask is not None:
        gain[checked_mask(speech_mask, u.shape) > cfg.vad_threshold] = 1.0
    return np.clip(gain, np.finfo(np.float64).tiny, 1.0)
