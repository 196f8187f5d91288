"""Per-bin speech presence masks: oracle, network inference, median pooling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from .audio_io import NetworkWeights
from .errors import DataError, SizeError

MASK_KINDS = ("oracle", "network", "pooled", "unit")

# Local-SNR threshold for the oracle binary mask, in dB.
T_SNR_DEFAULT = 5.0


@dataclass
class Mask:
    """Speech-presence weights per (bin, frame), each value in [0, 1]."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise SizeError(f"mask must be (bins, frames), got shape {self.values.shape}")
        if self.kind not in MASK_KINDS:
            raise DataError(f"unknown mask kind {self.kind!r}")
        if not np.all(np.isfinite(self.values)):
            raise DataError("mask contains non-finite values")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise DataError("mask values must lie in [0, 1]")

    @property
    def shape(self):
        return self.values.shape


def mask_values(mask) -> np.ndarray:
    """Accept a Mask or a bare array where only the numbers matter."""
    if isinstance(mask, Mask):
        return mask.values
    return np.asarray(mask, dtype=np.float64)


def oracle_ibm(speech_bins: np.ndarray, noise_bins: np.ndarray, snr_threshold_db: float = T_SNR_DEFAULT) -> Mask:
    """Ideal binary mask from a known speech/noise decomposition of one channel.

    A bin is speech-dominated (1) when its local SNR exceeds the threshold:
    |s|^2 > |y|^2 * 10^(t/10). Zero noise with nonzero speech counts as
    speech; zero speech never does.
    """
    speech_bins = np.asarray(speech_bins)
    noise_bins = np.asarray(noise_bins)
    if speech_bins.shape != noise_bins.shape:
        raise SizeError(
            f"speech/noise shape mismatch: {speech_bins.shape} vs {noise_bins.shape}"
        )
    s_pow = np.abs(speech_bins) ** 2
    y_pow = np.abs(noise_bins) ** 2
    ratio = 10.0 ** (snr_threshold_db / 10.0)
    values = ((s_pow > y_pow * ratio) & (s_pow > 0)).astype(np.float64)
    return Mask(values, "oracle")


def infer_mask(net: NetworkWeights, channel_bins: np.ndarray) -> Mask:
    """Forward pass of the loaded network on one channel's spectral magnitudes.

    Each frame is processed independently (no context): the magnitude vector
    is normalized by the stored global mean/std and propagated through the
    layers. Output is clipped to [0, 1]; with a sigmoid output layer the clip
    is a no-op. Because frames are independent, several channels can share
    one call with their frames side by side on the frame axis; each layer is
    then one matrix product for all of them.
    """
    channel_bins = np.asarray(channel_bins)
    if channel_bins.ndim != 2:
        raise SizeError(f"expected (bins, frames) channel data, got shape {channel_bins.shape}")
    if channel_bins.shape[0] != net.input_dim:
        raise SizeError(
            f"spectrogram has {channel_bins.shape[0]} bins but network expects {net.input_dim}"
        )
    h = (np.abs(channel_bins) - net.input_mean[:, None]) / net.input_std[:, None]
    for layer in net.layers:
        h = layer.weights @ h
        h += layer.bias[:, None]
        if layer.activation == "relu":
            np.maximum(h, 0.0, out=h)
        else:
            expit(h, out=h)
    return Mask(np.clip(h, 0.0, 1.0, out=h), "network")


def pool_median(masks: Sequence[Mask]) -> Mask:
    """Condense per-channel masks into one by the per-bin median.

    For an even channel count the median is the mean of the two middle order
    statistics.

    The masks are sorted per bin by an odd-even transposition network of
    elementwise min/max compare-exchanges, so no stacked copy is made; the
    result equals `np.median` over the stacked masks bit for bit.
    """
    if len(masks) == 0:
        raise SizeError("cannot pool an empty mask list")
    arrays = [mask_values(m) for m in masks]
    shape = arrays[0].shape
    for a in arrays[1:]:
        if a.shape != shape:
            raise SizeError(f"mask shape mismatch: {a.shape} vs {shape}")
    n = len(arrays)
    if n == 1:
        return Mask(arrays[0].copy(), "pooled")
    for rnd in range(n):
        for i in range(rnd % 2, n - 1, 2):
            a, b = arrays[i], arrays[i + 1]
            arrays[i], arrays[i + 1] = np.minimum(a, b), np.maximum(a, b)
    mid = n // 2
    if n % 2:
        return Mask(arrays[mid], "pooled")
    return Mask((arrays[mid - 1] + arrays[mid]) / 2, "pooled")


def unit_mask(n_bins: int, n_frames: int) -> Mask:
    """All-ones mask: disables speech-presence weighting."""
    return Mask(np.ones((n_bins, n_frames)), "unit")


def dump_mask_csv(mask: Mask, path) -> None:
    """Debug dump, one row per frequency bin, one column per frame."""
    np.savetxt(path, mask.values, delimiter=",", fmt="%.6f")
