"""Per-bin speech presence masks: oracle, network inference, median pooling.

A mask is a plain float array of speech-presence weights in [0, 1], one per
(bin, frame). The VAD's per-channel (bins, frames, channels) stack is
condensed by `pool_median` into the one mask that every estimator weights
its statistics by; each checks it at its boundary with `checked_mask`.

The network VAD runs its forward pass in float32 (weights are stored in
float32 on load) and returns float64 masks; they agree with a float64
forward pass to about 1e-5. Inputs whose normalized magnitudes overflow
float32 inside the network (around 1e38) are rejected with a DataError.
Weight files with non-finite entries are rejected on load. The sigmoid is
computed in place with numpy, so `infer_mask` loads no scipy module.
"""

from __future__ import annotations

import numpy as np

from .audio_io import NetworkWeights
from .errors import DataError, SizeError

# Local-SNR threshold for the oracle binary mask, in dB.
T_SNR_DEFAULT = 5.0


def checked_mask(mask, shape) -> np.ndarray:
    """The mask as a float64 array, checked: its shape must be `shape` and
    every value must be finite and lie in [0, 1]."""
    values = np.asarray(mask, dtype=np.float64)
    if values.shape != shape:
        raise SizeError(f"mask shape {values.shape} != expected {shape}")
    # NaN fails both comparisons
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise DataError("mask values must be finite and lie in [0, 1]")
    return values


def oracle_ibm(speech_bins: np.ndarray, noise_bins: np.ndarray, snr_threshold_db: float = T_SNR_DEFAULT) -> np.ndarray:
    """Ideal binary mask from a known speech/noise decomposition.

    A bin is speech-dominated (1) when its local SNR exceeds the threshold:
    |s|^2 > |y|^2 * 10^(t/10). Zero noise with nonzero speech counts as
    speech; zero speech never does. Elementwise, so a (bins, frames,
    channels) pair of stems gives one mask per channel.
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
    return ((s_pow > y_pow * ratio) & (s_pow > 0)).astype(np.float64)


def infer_mask(net: NetworkWeights, channel_bins: np.ndarray) -> np.ndarray:
    """Forward pass of the loaded network on one channel's spectral magnitudes.

    Each frame is processed independently (no context): the magnitude vector
    is normalized in float64 by the stored global mean/std, cast to float32
    once and propagated through the float32 layers. Output is clipped to
    [0, 1] and returned as float64; with a sigmoid output layer the clip is a
    no-op. Because frames are independent, several channels can share one
    call with their frames side by side on the frame axis; each layer is
    then one matrix product for all of them.

    Raises DataError when the output is not finite, i.e. the input is out of
    the range the float32 network can represent.
    """
    channel_bins = np.asarray(channel_bins)
    if channel_bins.ndim != 2:
        raise SizeError(f"expected (bins, frames) channel data, got shape {channel_bins.shape}")
    if channel_bins.shape[0] != net.input_dim:
        raise SizeError(
            f"spectrogram has {channel_bins.shape[0]} bins but network expects {net.input_dim}"
        )
    features = (np.abs(channel_bins) - net.input_mean[:, None]) / net.input_std[:, None]
    # overflow is detected once, on the output
    with np.errstate(over="ignore", invalid="ignore"):
        h = features.astype(np.float32)
        for layer in net.layers:
            h = layer.weights @ h
            h += layer.bias[:, None]
            if layer.activation == "relu":
                np.maximum(h, 0.0, out=h)
            else:  # sigmoid: 1 / (1 + exp(-h)); exp overflows to inf, giving 0
                np.exp(np.negative(h, out=h), out=h)
                h += 1.0
                np.reciprocal(h, out=h)
    if not np.all(np.isfinite(h)):
        raise DataError(
            "network VAD output is not finite: the network input is out of the float32 range"
        )
    return np.clip(h, 0.0, 1.0, out=h).astype(np.float64)


def pool_median(masks) -> np.ndarray:
    """Condense a (bins, frames, channels) stack of per-channel masks into
    one (bins, frames) mask by the per-bin median over channels.

    For an even channel count the median is the mean of the two middle order
    statistics.

    The channels are sorted per bin by an odd-even transposition network of
    elementwise min/max compare-exchanges on (bins, frames) slices; the
    result equals `np.median` over the channel axis bit for bit.
    """
    stack = np.asarray(masks)
    if stack.ndim != 3 or stack.shape[2] == 0:
        raise SizeError(
            f"expected a (bins, frames, channels) mask stack with >= 1 channel, got shape {stack.shape}"
        )
    arrays = [stack[:, :, i] for i in range(stack.shape[2])]
    n = len(arrays)
    if n == 1:
        return arrays[0].copy()
    for rnd in range(n):
        for i in range(rnd % 2, n - 1, 2):
            a, b = arrays[i], arrays[i + 1]
            arrays[i], arrays[i + 1] = np.minimum(a, b), np.maximum(a, b)
    mid = n // 2
    if n % 2:
        return arrays[mid]
    return (arrays[mid - 1] + arrays[mid]) / 2


def dump_mask_csv(mask: np.ndarray, path) -> None:
    """Debug dump, one row per frequency bin, one column per frame."""
    np.savetxt(path, mask, delimiter=",", fmt="%.6f")
