"""Single-channel Wiener post-filtering of the beamformer output.

The gain has one formulation in two parts: `wiener_delta`, the division
guard from the mean beam-output power of the whole block, and
`wiener_gain`, the gain of a slice of bins given that guard. The pipeline
takes the gain a bin slice at a time and scales the beam output in place,
so no (bins, frames) residual or gain is formed beside it; `wiener_mask`
is the gain of the whole block at once.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeError
from .stft import BIN_FREQS, N_BINS
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


def wiener_delta(u_pow: np.ndarray) -> float:
    """Division guard delta: NOISE_FLOOR times the mean of the block's
    (K, L) beam-output power |u|^2, and at least the smallest normal float.
    The mean is taken over the whole contiguous array, whose pairwise sum
    fixes delta's bits."""
    return max(NOISE_FLOOR * float(u_pow.mean()), np.finfo(np.float64).tiny)


def wiener_gain(u_pow: np.ndarray, residual: np.ndarray, delta: float, rows: slice, speech_mask) -> np.ndarray:
    """Wiener gain of the bin slice `rows` of a block, given its delta.

    Base gain: max(|u|^2 - |r|^2, delta) / (|u|^2 + delta). Overrides apply
    in order: bins whose frame-grid center frequency is below LOW_CUTOFF_HZ
    are forced to LOW_GAIN, bins above HIGH_CUTOFF_HZ to 1, and bins where
    the speech mask exceeds VAD_THRESHOLD to 1 (skipped when speech_mask is
    None). The result is clamped into (0, 1]. Each entry depends only on
    its own bin and frame, so slices give the gain of the whole block bit
    for bit.

    Arguments:
        u_pow: beam-output power |u|^2 of the slice's bins, (k, L)
        residual: complex residual of the slice's bins, (k, L)
        delta: `wiener_delta` of the whole block
        rows: the slice of the frame grid's bins that the arrays cover
        speech_mask: the slice's speech-presence weights (k, L), or None
    """
    gain = u_pow - (residual.real**2 + residual.imag**2)
    np.maximum(gain, delta, out=gain)
    gain /= u_pow + delta
    freqs = BIN_FREQS[rows]
    gain[freqs < LOW_CUTOFF_HZ, :] = LOW_GAIN
    gain[freqs > HIGH_CUTOFF_HZ, :] = 1.0
    if speech_mask is not None:
        gain[speech_mask > VAD_THRESHOLD] = 1.0
    return np.clip(gain, np.finfo(np.float64).tiny, 1.0, out=gain)


def wiener_mask(beam_out, residual, speech_mask) -> np.ndarray:
    """Per-bin Wiener gain of a whole block with the three practical
    overrides: `wiener_gain` of all bins, given the block's `wiener_delta`.
    A spectrogram with another bin count than the grid's, or with no
    frames, raises SizeError, and so does a speech mask of another shape.

    Arguments:
        beam_out, residual: complex spectrograms (K, L) on the frame grid
        speech_mask: pooled speech-presence weights (K, L) in [0, 1], or None
    """
    u = np.asarray(beam_out)
    r = np.asarray(residual)
    if u.shape != r.shape:
        raise SizeError(f"output/residual shape mismatch: {u.shape} vs {r.shape}")
    if u.ndim != 2 or u.shape[0] != N_BINS or u.shape[1] == 0:
        raise SizeError(f"expected a ({N_BINS}, frames >= 1) spectrogram, got shape {u.shape}")
    if speech_mask is not None:
        speech_mask = checked_mask(speech_mask, u.shape)
    u_pow = u.real**2 + u.imag**2
    return wiener_gain(u_pow, r, wiener_delta(u_pow), slice(None), speech_mask)
