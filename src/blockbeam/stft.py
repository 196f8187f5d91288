"""Short-time Fourier analysis and weighted overlap-add synthesis.

Layout contract: a spectrogram is a C-contiguous complex array of shape
(bins, frames, channels). Every downstream stage works per frequency bin with
batched `matmul`s over the leading bin axis, which need each bin's
(frames, channels) matrix to be one contiguous block.

`analyze` windows and transforms the frames a chunk at a time, writing each
chunk's transform into one preallocated spectrogram of that layout, so no
full-length windowed frame tensor is formed beside it. Each frame is
transformed on its own, so the result does not depend on the chunking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import MultichannelSignal
from .errors import ConfigError, DataError, SizeError

# Floor for the summed squared synthesis window; the periodic Hamming window
# never falls below 0.08, so the floor only matters for pathological configs.
WINDOW_SUM_FLOOR = 1e-8

# Frames windowed and transformed at a time by analyze.
_CHUNK_FRAMES = 128


@dataclass(frozen=True)
class StftConfig:
    """Framing of the analysis; every frame is weighted by the periodic
    Hamming window of frame_len samples."""

    frame_len: int = 512
    hop: int = 128
    sample_rate: int = 16000

    def __post_init__(self):
        if self.frame_len <= 0 or self.frame_len % 2 != 0:
            raise ConfigError(f"frame_len must be positive and even, got {self.frame_len}")
        if not 0 < self.hop <= self.frame_len:
            raise ConfigError(f"hop must be in (0, frame_len], got {self.hop}")
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def n_bins(self) -> int:
        return self.frame_len // 2 + 1

    def bin_frequencies(self) -> np.ndarray:
        """Center frequency in Hz of each one-sided FFT bin."""
        return np.arange(self.n_bins) * (self.sample_rate / self.frame_len)


def periodic_hamming(n: int) -> np.ndarray:
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _checked(bins, cfg: StftConfig) -> np.ndarray:
    """A one-sided complex STFT of shape (bins, frames, channels), checked
    against cfg and for non-finite entries."""
    bins = np.asarray(bins, dtype=np.complex128)
    if bins.ndim != 3:
        raise SizeError(f"expected (bins, frames, channels) tensor, got shape {bins.shape}")
    if bins.shape[0] != cfg.n_bins:
        raise SizeError(f"bin count {bins.shape[0]} != frame_len/2+1 = {cfg.n_bins}")
    if not np.all(np.isfinite(bins)):
        raise DataError("spectrogram contains non-finite entries")
    return bins


def frame_count(n_samples: int, cfg: StftConfig) -> int:
    """Number of full frames covering a signal of the given length."""
    if n_samples < cfg.frame_len:
        raise SizeError(f"signal length {n_samples} shorter than one frame ({cfg.frame_len})")
    return (n_samples - cfg.frame_len) // cfg.hop + 1


def chunk_slices(n: int, size: int = _CHUNK_FRAMES) -> list[slice]:
    """Consecutive slices of `size` items covering range(n); a last slice of
    1-3 items joins the one before, since OpenBLAS's float32 product rounds
    1-3 columns differently from more (the network VAD's frame chunks)."""
    bounds = list(range(0, n, size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < 4:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def analyze(signal: MultichannelSignal, cfg: StftConfig | None = None) -> np.ndarray:
    """STFT of every channel, shape (bins, frames, channels).

    Frame l covers samples [l*hop, l*hop + frame_len); frames are weighted by
    the periodic Hamming window and transformed with a one-sided FFT. No
    padding or centering is applied, so edge frames are real signal frames.

    Frames are windowed a chunk (`chunk_slices`) at a time into a
    (frames, channels, frame_len) array and transformed along its last axis
    straight into their place in the (bins, frames, channels) result.

    Every |X_k| is at most peak |x| * sum(window), so a DataError is raised
    unless that bound is finite and at most half the largest float64: a NaN
    or inf in any sample (also one no frame reads) and, at the default
    window, a peak above about 3.2e305 raise.
    """
    if cfg is None:
        cfg = StftConfig(sample_rate=signal.sample_rate)
    n_frames = frame_count(signal.n_samples, cfg)
    window = periodic_hamming(cfg.frame_len)
    # NaN fails the comparison; max and min make no |x| temporary
    peak = np.maximum(signal.samples.max(), -signal.samples.min())
    if not peak <= np.finfo(np.float64).max / 2 / window.sum():
        raise DataError("signal samples must be finite with peak |x| below the STFT's overflow bound")
    frames = sliding_window_view(signal.samples, cfg.frame_len, axis=1)[:, :: cfg.hop, :]
    frames = frames[:, :n_frames, :].transpose(1, 0, 2)
    bins = np.empty((cfg.n_bins, n_frames, signal.channel_count), dtype=np.complex128)
    out = bins.transpose(1, 2, 0)
    # Each chunk is windowed in C order so that consecutive transforms fill
    # neighbouring (frame, channel) entries of bins; in the view's
    # channel-major order a 30 s 4-channel analysis ran ~10% slower.
    for part in chunk_slices(n_frames):
        np.fft.rfft(np.multiply(frames[part], window, order="C"), axis=-1, out=out[part])
    return bins


def synthesize(bins, cfg: StftConfig) -> MultichannelSignal:
    """Weighted overlap-add inverse of analyze for a (bins, frames, channels)
    spectrogram analyzed with cfg.

    Each frame is inverse-transformed, weighted by the synthesis window and
    accumulated; the result is normalized by the summed squared window, which
    reconstructs the analyzed samples wherever that sum is above the floor.

    The overlap-add runs over the ceil(frame_len / hop) hop-long chunks of a
    frame rather than over frames: chunk c of every frame is added at once
    into a (channels, hop blocks, hop) view of the output. Chunks are added
    from the last to the first, so each sample sums its frames in frame
    order, as a per-frame loop would.
    """
    bins = _checked(bins, cfg)
    _, n_frames, n_channels = bins.shape
    hop, frame_len = cfg.hop, cfg.frame_len
    window = periodic_hamming(frame_len)
    frames = np.fft.irfft(bins.transpose(2, 1, 0), n=frame_len, axis=-1)
    frames *= window

    n_chunks = -(-frame_len // hop)
    out = np.zeros((n_channels, n_frames + n_chunks - 1, hop))
    win_sum = np.zeros((n_frames + n_chunks - 1, hop))
    win_sq = window * window
    for c in reversed(range(n_chunks)):
        lo, hi = c * hop, min((c + 1) * hop, frame_len)
        out[:, c : c + n_frames, : hi - lo] += frames[:, :, lo:hi]
        win_sum[c : c + n_frames, : hi - lo] += win_sq[lo:hi]
    out_len = frame_len + (n_frames - 1) * hop
    out = out.reshape(n_channels, -1)[:, :out_len]
    out /= np.maximum(win_sum.reshape(-1)[:out_len], WINDOW_SUM_FLOOR)
    return MultichannelSignal(out, cfg.sample_rate)
