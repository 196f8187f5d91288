"""Short-time Fourier analysis and weighted overlap-add synthesis on the one
frame grid, which no function takes as an argument, and its frame arithmetic.

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

import numbers

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, SizeError, real_number

# The one frame grid, CHiME-4's: 512-sample frames, hop 128, at 16 kHz.
FRAME_LEN = 512
HOP = 128
SAMPLE_RATE = 16000
N_BINS = FRAME_LEN // 2 + 1
# Center frequency in Hz of each one-sided FFT bin.
BIN_FREQS = np.arange(N_BINS) * (SAMPLE_RATE / FRAME_LEN)
BIN_FREQS.setflags(write=False)

# Floor for the summed squared synthesis window; the periodic Hamming window
# never falls below 0.08, so the floor only matters for pathological grids.
WINDOW_SUM_FLOOR = 1e-8

# Frames windowed and transformed at a time by analyze.
_CHUNK_FRAMES = 128


class StftConfig:
    """Read-only record of the frame grid."""

    __slots__ = ()
    frame_len = FRAME_LEN
    hop = HOP
    sample_rate = SAMPLE_RATE
    n_bins = N_BINS


def periodic_hamming(n: int) -> np.ndarray:
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / n)


def check_rate(sample_rate: int) -> None:
    """Input must be at the grid's rate; resampling is out of scope."""
    if sample_rate != SAMPLE_RATE:
        raise ConfigError(f"input rate {sample_rate} != {SAMPLE_RATE}, the frame grid's rate; no resampling")


def frame_count(n_samples: int) -> int:
    """Number of full frames covering a signal of the given length."""
    if n_samples < FRAME_LEN:
        raise SizeError(f"signal length {n_samples} shorter than one frame ({FRAME_LEN})")
    return (n_samples - FRAME_LEN) // HOP + 1


def frame_span(start_frame: int, n_frames: int) -> tuple[int, int]:
    """Sample interval covered by a run of frames."""
    start = start_frame * HOP
    return start, start + FRAME_LEN + (n_frames - 1) * HOP


def frames_for_duration_ms(duration_ms: float) -> int:
    """Block length in frames whose hop grid spans the given duration: a number
    (`errors.real_number`), positive, that gives a finite frame count."""
    if isinstance(duration_ms, bool) or not isinstance(duration_ms, numbers.Real):
        real_number(duration_ms, "duration_ms")  # raises, naming the field
    frames = duration_ms * SAMPLE_RATE / 1000.0 / HOP
    if not (duration_ms > 0 and np.isfinite(frames)):
        raise ConfigError(f"block duration must be positive and finite, got {duration_ms} ms")
    return max(1, round(frames))


def chunk_slices(n: int, size: int = _CHUNK_FRAMES) -> list[slice]:
    """Consecutive slices of `size` items covering range(n); a last slice of
    1-3 items joins the one before, since OpenBLAS's float32 product rounds
    1-3 columns differently from more (the network VAD's frame chunks)."""
    bounds = list(range(0, n, size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < 4:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def bin_chunks(n_bins: int, n_frames: int) -> list[slice]:
    """Slices (`chunk_slices`) of the bin axis, each spanning about
    n_bins * _CHUNK_FRAMES (bin, frame) entries, the working set `analyze`
    chunks by; a block of at most _CHUNK_FRAMES frames is one slice."""
    return chunk_slices(n_bins, max(1, n_bins * _CHUNK_FRAMES // max(n_frames, 1)))


def analyze(samples) -> np.ndarray:
    """STFT of every channel of a (channels >= 1, samples) float array at the
    grid's rate, shape (bins, frames, channels); other shapes raise SizeError.

    Frame l covers samples [l*hop, l*hop + frame_len); frames are weighted by
    the periodic Hamming window and transformed with a one-sided FFT. No
    padding or centering is applied, so edge frames are real signal frames.

    Frames are windowed a chunk (`chunk_slices`) at a time into a
    (frames, channels, frame_len) array and transformed along its last axis
    straight into their place in the (bins, frames, channels) result.

    Every |X_k| is at most peak |x| * sum(window), so a DataError is raised
    unless that bound is finite and at most half the largest float64: a NaN
    or inf in any sample (also one no frame reads) and, with the grid's
    512-sample window, a peak above about 3.2e305 raise.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise SizeError(f"expected a (channels >= 1, samples) array, got shape {samples.shape}")
    n_frames = frame_count(samples.shape[1])
    window = periodic_hamming(FRAME_LEN)
    # NaN fails the comparison; max and min make no |x| temporary
    peak = np.maximum(samples.max(), -samples.min())
    if not peak <= np.finfo(np.float64).max / 2 / window.sum():
        raise DataError("signal samples must be finite with peak |x| below the STFT's overflow bound")
    frames = sliding_window_view(samples, FRAME_LEN, axis=1)[:, ::HOP, :]
    frames = frames[:, :n_frames, :].transpose(1, 0, 2)
    bins = np.empty((N_BINS, n_frames, samples.shape[0]), dtype=np.complex128)
    out = bins.transpose(1, 2, 0)
    # Each chunk is windowed in C order so that consecutive transforms fill
    # neighbouring (frame, channel) entries of bins; in the view's
    # channel-major order a 30 s 4-channel analysis ran ~10% slower.
    for part in chunk_slices(n_frames):
        np.fft.rfft(np.multiply(frames[part], window, order="C"), axis=-1, out=out[part])
    return bins


def synthesize(bins) -> np.ndarray:
    """Weighted overlap-add inverse of analyze for a finite complex
    (bins, frames, channels) spectrogram of the grid's bins and at least one
    frame; returns the (channels, samples) float array, at the grid's rate.

    Each frame is inverse-transformed, weighted by the synthesis window and
    accumulated; the result is normalized by the summed squared window, which
    reconstructs the analyzed samples wherever that sum is above the floor.

    The overlap-add runs over the ceil(frame_len / hop) hop-long chunks of a
    frame rather than over frames: chunk c of every frame is added at once
    into a (channels, hop blocks, hop) view of the output. Chunks are added
    from the last to the first, so each sample sums its frames in frame
    order, as a per-frame loop would.
    """
    bins = np.asarray(bins, dtype=np.complex128)
    if bins.ndim != 3 or bins.shape[0] != N_BINS or bins.shape[1] == 0:
        raise SizeError(f"expected a ({N_BINS}, frames >= 1, channels) spectrogram, got shape {bins.shape}")
    if not np.all(np.isfinite(bins)):
        raise DataError("spectrogram contains non-finite entries")
    _, n_frames, n_channels = bins.shape
    window = periodic_hamming(FRAME_LEN)
    frames = np.fft.irfft(bins.transpose(2, 1, 0), n=FRAME_LEN, axis=-1)
    frames *= window

    n_chunks = -(-FRAME_LEN // HOP)
    out = np.zeros((n_channels, n_frames + n_chunks - 1, HOP))
    win_sum = np.zeros((n_frames + n_chunks - 1, HOP))
    win_sq = window * window
    for c in reversed(range(n_chunks)):
        lo, hi = c * HOP, min((c + 1) * HOP, FRAME_LEN)
        out[:, c : c + n_frames, : hi - lo] += frames[:, :, lo:hi]
        win_sum[c : c + n_frames, : hi - lo] += win_sq[lo:hi]
    out_len = frame_span(0, n_frames)[1]
    out = out.reshape(n_channels, -1)[:, :out_len]
    out /= np.maximum(win_sum.reshape(-1)[:out_len], WINDOW_SUM_FLOOR)
    return out
