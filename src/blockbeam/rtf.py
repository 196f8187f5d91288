"""Inverse relative transfer function estimation from sub-block PSD statistics.

The estimator models the reference channel as an unknown per-frequency
multiple of channel i plus a noise term whose cross-PSD with channel i is
constant across sub-blocks. Dividing a block into N equally long sub-blocks
gives N linear equations per frequency with two unknowns (the inverse RTF and
that constant); the least-squares solution has a closed form in the first and
second moments of the mask-weighted sub-block PSDs. This is the
nonstationarity estimator of Gannot, Burshtein & Weinstein (IEEE TSP 2001),
computed for every non-reference channel at once. Channel 0 of every input
is the reference; the pipeline orders each block's channels reference-first.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeError
from .vad import checked_mask

# Frames per sub-block (80 ms at the 512/128 framing).
SUB_BLOCK_LEN_DEFAULT = 10

# Variance guard: below this (relative to the squared mean auto-PSD) the
# across-sub-block variance is considered degenerate and the estimator falls
# back to the plain PSD ratio.
VARIANCE_GUARD = 1e-12

# Tikhonov term for the reciprocal of near-zero inverse-RTF estimates.
RECIPROCAL_REG = 1e-6


def _subblock_sums(x: np.ndarray, weights: np.ndarray, sub_block_len: int):
    """PSD sums weighted by the mask, per bin, sub-block and non-reference
    channel.

    Returns (cross, auto), each (K, N, M-1): cross sums w x_0 conj(x_i)
    and auto sums w |x_i|^2 over the frames of each sub-block, for channels
    i = 1..M-1, with w the (K, L) mask shared by all channels. Trailing
    frames that do not fill a sub-block are discarded.

    Both sums pair the mask with every channel over the sub-block's frames,
    (K, N, 1, S) with (K, N, S, M): the cross sums as a batched matrix
    product, the auto sums as one einsum.
    """
    n_bins, n_frames, n_ch = x.shape
    n_sub = n_frames // sub_block_len
    used = n_sub * sub_block_len
    # a fancy index, not a slice, so that cross and auto are contiguous:
    # that fixes the reduction order of the sub-block means in _closed_form
    others = np.arange(1, n_ch)
    w = weights[:, :used].reshape(n_bins, n_sub, 1, sub_block_len)
    xs = x[:, :used].reshape(n_bins, n_sub, sub_block_len, n_ch)

    # sum w conj(x_ref) x_i is the conjugate of the cross sum
    weighted_ref = w * xs[:, :, None, :, 0]
    np.conjugate(weighted_ref, out=weighted_ref)
    cross = np.conj((weighted_ref @ xs)[:, :, 0, others])
    del weighted_ref
    # |x|^2 summed from x's interleaved real/imaginary view, so that no
    # squared copy of the block is made
    parts = xs.view(np.float64)
    power = np.einsum("knws,knsm,knsm->knwm", w, parts, parts)
    auto = (power[..., 0::2] + power[..., 1::2])[:, :, 0, others]
    return cross, auto


def _closed_form(cross: np.ndarray, auto: np.ndarray):
    """Least-squares slope of cross vs auto across sub-blocks (axis 1).

    Returns (inverse RTF, fallback flags), each with axis 1 removed. Entries
    whose auto-PSD variance is degenerate fall back to
    mean(cross)/mean(auto), or 1 when even the mean auto-PSD vanishes.
    """
    mean_cross = cross.mean(axis=1)
    mean_auto = auto.mean(axis=1)
    covar = (cross * auto).mean(axis=1) - mean_cross * mean_auto
    var = (auto * auto).mean(axis=1) - mean_auto * mean_auto

    guard = VARIANCE_GUARD * mean_auto * mean_auto
    fallback = (var < guard) | (var <= 0.0)

    ratio = np.ones_like(mean_cross)
    np.divide(mean_cross, mean_auto, out=ratio, where=mean_auto > 0)
    g_inv = np.divide(covar, var, out=ratio.astype(np.complex128), where=~fallback)
    return g_inv, fallback


def reciprocal_rtf(inv_rtf: np.ndarray) -> np.ndarray:
    """Regularized reciprocal: conj(g)/(|g|^2 + RECIPROCAL_REG), finite even at g = 0."""
    return np.conj(inv_rtf) / (np.abs(inv_rtf) ** 2 + RECIPROCAL_REG)


def build_rtf_set(bins, masks, sub_block_len: int = SUB_BLOCK_LEN_DEFAULT):
    """Estimate the inverse RTF of every channel relative to channel 0.

    Returns (inverse RTFs (K, M) complex, whose column 0 is exactly 1;
    per-channel count (M,) of bins that took the variance-guard fallback,
    0 for the reference channel).

    Arguments:
        bins: complex STFT tensor (K, L, M), reference channel first
        masks: (K, L) speech-presence weights in [0, 1], shared by all
            channels and applied to both PSD sums
        sub_block_len: frames per sub-block; needs L >= 2 * sub_block_len so
            the estimator sees variation across sub-blocks
    """
    # the auto sums read the complex128 data as interleaved float64 pairs
    x = np.ascontiguousarray(bins, dtype=np.complex128)
    if x.ndim != 3:
        raise SizeError(f"expected (bins, frames, channels) tensor, got shape {x.shape}")
    n_bins, n_frames, n_ch = x.shape
    if n_frames < 2 * sub_block_len:
        raise SizeError(
            f"block has {n_frames} frames; needs >= 2 sub-blocks of {sub_block_len}"
        )
    weights = checked_mask(masks, (n_bins, n_frames))

    inv_rtf = np.ones((n_bins, n_ch), dtype=np.complex128)
    inv_rtf[:, 1:], fallback = _closed_form(*_subblock_sums(x, weights, sub_block_len))
    counts = np.zeros(n_ch, dtype=np.int64)
    counts[1:] = np.count_nonzero(fallback, axis=0)
    return inv_rtf, counts
