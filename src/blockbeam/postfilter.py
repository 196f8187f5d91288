"""Single-channel Wiener post-filtering of the beamformer output."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, SizeError
from .vad import checked_mask

# Division guard, relative to the block's mean beamformer output power.
NOISE_FLOOR = 1e-6
# Frequency overrides, strict inequalities on the bin center frequency: bins
# below LOW_CUTOFF_HZ get LOW_GAIN, bins above HIGH_CUTOFF_HZ pass unfiltered.
LOW_CUTOFF_HZ = 100.0
HIGH_CUTOFF_HZ = 3125.0
LOW_GAIN = 0.01
# Bins whose speech mask exceeds this pass unfiltered.
VAD_THRESHOLD = 0.3


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


def wiener_mask(beam_out, residual, speech_mask, bin_freqs) -> np.ndarray:
    """Per-bin Wiener gain with the three practical overrides.

    Base gain: max(|u|^2 - |r|^2, delta) / (|u|^2 + delta) with delta
    NOISE_FLOOR times the mean |u|^2. Overrides apply in order: bins below
    LOW_CUTOFF_HZ are forced to LOW_GAIN, bins above HIGH_CUTOFF_HZ to 1,
    and bins where the speech mask exceeds VAD_THRESHOLD to 1 (skipped when
    speech_mask is None). The result is clamped into (0, 1]. A spectrogram
    with no bins or no frames raises SizeError.

    Arguments:
        beam_out, residual: complex spectrograms (K, L)
        speech_mask: pooled speech-presence weights (K, L) in [0, 1], or None
        bin_freqs: (K,) bin center frequencies in Hz
    """
    u = np.asarray(beam_out)
    r = np.asarray(residual)
    if u.shape != r.shape:
        raise SizeError(f"output/residual shape mismatch: {u.shape} vs {r.shape}")
    if u.size == 0:
        raise SizeError(f"the Wiener gain needs at least one bin and one frame, got shape {u.shape}")
    freqs = np.asarray(bin_freqs, dtype=np.float64)
    if freqs.shape != (u.shape[0],):
        raise SizeError(f"bin frequency vector {freqs.shape} != bin count {u.shape[0]}")
    if HIGH_CUTOFF_HZ > freqs[-1]:
        raise ConfigError(f"the {HIGH_CUTOFF_HZ} Hz cutoff exceeds the Nyquist bin {freqs[-1]}")

    u_pow = u.real**2 + u.imag**2
    r_pow = r.real**2 + r.imag**2
    delta = max(NOISE_FLOOR * float(u_pow.mean()), np.finfo(np.float64).tiny)

    gain = np.maximum(u_pow - r_pow, delta) / (u_pow + delta)
    gain[freqs < LOW_CUTOFF_HZ, :] = LOW_GAIN
    gain[freqs > HIGH_CUTOFF_HZ, :] = 1.0
    if speech_mask is not None:
        gain[checked_mask(speech_mask, u.shape) > VAD_THRESHOLD] = 1.0
    return np.clip(gain, np.finfo(np.float64).tiny, 1.0)
