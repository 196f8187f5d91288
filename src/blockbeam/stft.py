"""Short-time Fourier analysis and weighted overlap-add synthesis.

Layout contract: a spectrogram is a C-contiguous complex array of shape
(bins, frames, channels). Every downstream stage works per frequency bin with
batched `matmul`s over the leading bin axis, which need each bin's
(frames, channels) matrix to be one contiguous block; `analyze` writes its
transform in that layout directly rather than transposing a copy.

A signal longer than one chunk of frames is analysed chunk by chunk into one
preallocated spectrogram, so no full-length windowed frame tensor is formed
beside it; each frame is transformed on its own, so the result is bitwise
equal to one transform of all frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import MultichannelSignal
from .errors import ConfigError, DataError, SizeError

# Floor for the summed squared synthesis window; the periodic Hamming window
# never falls below 0.08, so the floor only matters for pathological configs.
WINDOW_SUM_FLOOR = 1e-8

# Frames windowed and transformed at a time by analyze; a signal of at most
# this many frames is transformed in one call.
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


def analyze(signal: MultichannelSignal, cfg: StftConfig | None = None) -> np.ndarray:
    """STFT of every channel, shape (bins, frames, channels).

    Frame l covers samples [l*hop, l*hop + frame_len); frames are weighted by
    the periodic Hamming window and transformed with a one-sided FFT. No
    padding or centering is applied, so edge frames are real signal frames.

    The windowed frames are formed as a (frame_len, frames, channels) array
    and transformed along axis 0, so the result is already the C-contiguous
    (bins, frames, channels) layout the pipeline needs. (`numpy.fft.rfft`
    along axis 0 would return a non-contiguous array.) Above _CHUNK_FRAMES
    frames this runs per chunk of frames into one preallocated array.
    """
    if cfg is None:
        cfg = StftConfig(sample_rate=signal.sample_rate)
    n_frames = frame_count(signal.n_samples, cfg)
    window = periodic_hamming(cfg.frame_len)[:, None, None]
    frames = sliding_window_view(signal.samples, cfg.frame_len, axis=1)[:, :: cfg.hop, :]
    frames = frames[:, :n_frames, :].transpose(2, 1, 0)
    if n_frames <= _CHUNK_FRAMES:
        return _checked(scipy.fft.rfft(frames * window, axis=0), cfg)
    bins = np.empty((cfg.n_bins, n_frames, signal.channel_count), dtype=np.complex128)
    for lo in range(0, n_frames, _CHUNK_FRAMES):
        hi = min(lo + _CHUNK_FRAMES, n_frames)
        bins[:, lo:hi] = scipy.fft.rfft(frames[:, lo:hi] * window, axis=0)
    return _checked(bins, cfg)


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
