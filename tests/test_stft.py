import importlib
import inspect
import pkgutil
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

import blockbeam
from blockbeam import stft
from blockbeam.channel_health import detect_failures
from blockbeam.errors import DataError, SizeError
from blockbeam.stft import (
    _CHUNK_FRAMES,
    BIN_FREQS,
    WINDOW_SUM_FLOOR,
    StftConfig,
    analyze,
    chunk_slices,
    frame_count,
    periodic_hamming,
    synthesize,
)

CFG = StftConfig()


@pytest.fixture
def grid(monkeypatch):
    """Rebinds the module's frame length and hop for one test, so the chunked
    kernels can be checked against their per-frame formulations on grids
    whose hop does not divide the frame or equals it; returns a record of
    the grid for the reference functions."""

    def rebind(frame_len, hop):
        n_bins = frame_len // 2 + 1
        for name, value in (("FRAME_LEN", frame_len), ("HOP", hop), ("N_BINS", n_bins)):
            monkeypatch.setattr(stft, name, value)
        return SimpleNamespace(frame_len=frame_len, hop=hop, n_bins=n_bins)

    return rebind


def random_signal(n_channels, n_samples, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, size=(n_channels, n_samples))


def reference_analyze(samples, cfg):
    """The transform-then-transpose formulation: numpy rfft along each
    (channel, frame) row, then a contiguous copy into (bins, frames, channels)."""
    n_frames = frame_count(samples.shape[1])
    frames = sliding_window_view(samples, cfg.frame_len, axis=1)[:, :: cfg.hop, :][:, :n_frames, :]
    spec = np.fft.rfft(frames * periodic_hamming(cfg.frame_len), axis=-1)
    return np.ascontiguousarray(spec.transpose(2, 1, 0))


def reference_synthesize(bins, cfg):
    """Per-frame weighted overlap-add loop."""
    window = periodic_hamming(cfg.frame_len)
    frames = np.fft.irfft(bins.transpose(2, 1, 0), n=cfg.frame_len, axis=-1) * window
    n_frames = bins.shape[1]
    out_len = cfg.frame_len + (n_frames - 1) * cfg.hop
    out = np.zeros((bins.shape[2], out_len))
    win_sum = np.zeros(out_len)
    for l in range(n_frames):
        start = l * cfg.hop
        out[:, start : start + cfg.frame_len] += frames[:, l, :]
        win_sum[start : start + cfg.frame_len] += window * window
    return out / np.maximum(win_sum, WINDOW_SUM_FLOOR)


class TestAnalyze:
    def test_zero_in_zero_out(self):
        spec = analyze(np.zeros((2, 2048)))
        assert np.all(spec == 0)

    def test_frame_count_one_second(self):
        # (16000 - 512) // 128 + 1
        assert frame_count(16000) == 122
        spec = analyze(random_signal(1, 16000))
        assert spec.shape[1] == 122

    def test_bin_centered_sinusoid(self):
        # closed-form DFT: the periodic Hamming window has exactly three
        # nonzero DFT coefficients, so a bin-centered unit sinusoid puts
        # 0.54 * frame_len / 2 into its own bin in every frame
        k0 = 37
        n = np.arange(4096)
        x = np.cos(2 * np.pi * k0 * n / 512 + 0.7)
        spec = analyze(x[np.newaxis, :])
        mags = np.abs(spec[:, :, 0])
        assert np.all(np.argmax(mags, axis=0) == k0)
        expected = 0.54 * 512 / 2
        assert np.allclose(mags[k0, :], expected, rtol=1e-10)

    def test_too_short_signal(self):
        with pytest.raises(SizeError):
            analyze(np.zeros((1, 511)))

    def test_linearity(self):
        x = random_signal(2, 3000, seed=1)
        y = random_signal(2, 3000, seed=2)
        a, b = 2.5, -0.7
        combined = a * x + b * y
        lhs = analyze(combined)
        rhs = a * analyze(x) + b * analyze(y)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_frame_placement(self):
        # frame l covers samples [l*hop, l*hop + frame_len)
        x = random_signal(1, 1000, seed=3)
        spec = analyze(x)
        window = periodic_hamming(512)
        l = 2
        manual = np.fft.rfft(x[0, l * 128 : l * 128 + 512] * window)
        assert np.allclose(spec[:, l, 0], manual, atol=1e-12)

    def test_parseval_per_frame(self):
        x = random_signal(1, 4000, seed=4)
        spec = analyze(x)
        window = periodic_hamming(512)
        for l in range(spec.shape[1]):
            frame = x[0, l * 128 : l * 128 + 512] * window
            e_time = np.sum(frame**2)
            coeffs = spec[:, l, 0]
            e_freq = (np.abs(coeffs[0]) ** 2 + 2 * np.sum(np.abs(coeffs[1:-1]) ** 2) + np.abs(coeffs[-1]) ** 2) / 512
            assert abs(e_time - e_freq) <= 1e-9 * max(e_time, 1e-30)


class TestSynthesize:
    def test_round_trip_interior(self):
        x = random_signal(2, 32000, seed=5)
        rec = synthesize(analyze(x))
        n = rec.shape[1]
        interior = slice(512, n - 512)
        err = np.linalg.norm(rec[:, interior] - x[:, interior])
        ref = np.linalg.norm(x[:, interior])
        assert err / ref < 1e-10

    def test_zero_spectrogram(self):
        out = synthesize(np.zeros((257, 4, 1), dtype=complex))
        assert np.all(out == 0)

    def test_single_frame(self):
        x = random_signal(1, 512, seed=6)
        rec = synthesize(analyze(x))
        # periodic Hamming never reaches zero, so the lone frame normalizes
        # back to the original samples everywhere
        assert np.allclose(rec, x, atol=1e-12)

    def test_output_length(self):
        x = random_signal(1, 2000, seed=7)
        spec = analyze(x)
        rec = synthesize(spec)
        assert rec.shape[1] == 512 + (spec.shape[1] - 1) * 128


class TestConfig:
    def test_bin_frequencies(self):
        assert BIN_FREQS.shape == (257,)
        assert BIN_FREQS[0] == 0.0
        assert BIN_FREQS[100] == 3125.0
        assert BIN_FREQS[-1] == 8000.0
        assert not BIN_FREQS.flags.writeable

    def test_invalid_configs(self):
        # the grid is fixed: its record takes no settings and is read-only
        assert (CFG.frame_len, CFG.hop, CFG.sample_rate, CFG.n_bins) == (512, 128, 16000, 257)
        for settings in ({"frame_len": 511}, {"hop": 0}, {"hop": 64}, {"sample_rate": 8000}):
            with pytest.raises(TypeError):
                StftConfig(**settings)
        with pytest.raises(AttributeError):
            CFG.hop = 64

    def test_spectrogram_bin_count_checked(self):
        with pytest.raises(SizeError):
            synthesize(np.zeros((256, 4, 1), dtype=complex))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_spectrogram_layout_and_values_checked(self):
        with pytest.raises(SizeError):
            synthesize(np.zeros((257, 4), dtype=complex))
        # analyze never makes a spectrogram of no frames
        with pytest.raises(SizeError):
            synthesize(np.zeros((257, 0, 1), dtype=complex))
        bins = np.zeros((257, 4, 1), dtype=complex)
        bins[3, 2, 0] = np.nan
        with pytest.raises(DataError):
            synthesize(bins)
        # the DataError is the one signal: the transform of inf is NaN
        with pytest.raises(DataError):
            analyze(np.full((1, 512), np.inf))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("stage", [analyze, detect_failures], ids=["analyze", "detect_failures"])
@pytest.mark.parametrize("shape", [(2048,), (2, 2, 2048), (0, 2048)], ids=["1-D", "3-D", "no-channels"])
def test_samples_of_another_shape_raise_size_error(stage, shape):
    # the stages take a (channels, samples) array with at least one channel
    # (two for detect_failures): anything else is a SizeError, never numpy's
    # AxisError or ValueError or a warning
    with pytest.raises(SizeError):
        stage(np.zeros(shape))


class TestWindow:
    def test_periodic_hamming_endpoints(self):
        w = periodic_hamming(512)
        assert w[0] == pytest.approx(0.08)
        # periodic: w[n] = 0.54 - 0.46 cos(2 pi n / N), so no symmetric peak at the end
        assert w[256] == pytest.approx(1.0)
        assert w.min() > 0.079


class TestKernelsMatchReference:
    @pytest.mark.parametrize("n_channels,n_samples", [(1, 512), (4, 16000), (3, 5000)])
    def test_analyze_layout_and_values(self, n_channels, n_samples):
        sig = random_signal(n_channels, n_samples, seed=n_samples)
        bins = analyze(sig)
        assert bins.shape == (CFG.n_bins, frame_count(n_samples), n_channels)
        assert bins.flags["C_CONTIGUOUS"]
        assert np.array_equal(bins, reference_analyze(sig, CFG))

    def test_analyze_channel_subset_is_bitwise_slice(self):
        sig = random_signal(6, 8000, seed=7)
        subset = [1, 4, 5]
        part = analyze(sig[subset])
        assert np.array_equal(part, analyze(sig)[:, :, subset])

    @pytest.mark.parametrize("frame_len,hop", [(512, 128), (512, 96), (512, 512), (64, 7)])
    @pytest.mark.parametrize("n_channels,n_frames", [(1, 40), (3, 1), (2, 9)])
    def test_synthesize_matches_per_frame_loop(self, grid, frame_len, hop, n_channels, n_frames):
        cfg = grid(frame_len, hop)
        rng = np.random.default_rng(frame_len + hop + n_frames)
        shape = (cfg.n_bins, n_frames, n_channels)
        bins = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = synthesize(bins)
        assert np.array_equal(out, reference_synthesize(bins, cfg))


def _chunk_cases():
    """Frame lengths with their hops x input scales x channel counts x 1, 127,
    128, 129, 131, 132 and 257 frames at the chunk length of 128: a last
    chunk of 1-3 frames joins the one before, one of 4 stays. The default
    framing at scale 1 keeps its short "channels-frames" id."""
    n_frames_cases = [1, _CHUNK_FRAMES - 1, _CHUNK_FRAMES, _CHUNK_FRAMES + 1]
    n_frames_cases += [_CHUNK_FRAMES + 3, _CHUNK_FRAMES + 4, 2 * _CHUNK_FRAMES + 1]
    for frame_len, hop in [(512, 128), (6, 3), (400, 160), (1024, 256)]:
        for scale in [1.0, 1e-300, 1e300]:
            for n_channels in [1, 4]:
                for n_frames in n_frames_cases:
                    case_id = f"{n_channels}-{n_frames}"
                    if (frame_len, hop, scale) != (512, 128, 1.0):
                        case_id = f"{frame_len}-{hop}-{scale:g}-{case_id}"
                    yield pytest.param(frame_len, hop, scale, n_channels, n_frames, id=case_id)


class TestChunkedAnalysis:
    """analyze transforms _CHUNK_FRAMES frames at a time with numpy.fft; the
    result must be scipy.fft's one transform of all frames, bit for bit."""

    @staticmethod
    def one_call(samples, cfg):
        n_frames = frame_count(samples.shape[1])
        frames = sliding_window_view(samples, cfg.frame_len, axis=1)[:, :: cfg.hop, :][:, :n_frames, :]
        window = periodic_hamming(cfg.frame_len)[:, None, None]
        return scipy.fft.rfft(frames.transpose(2, 1, 0) * window, axis=0)

    @pytest.mark.parametrize("frame_len,hop,scale,n_channels,n_frames", list(_chunk_cases()))
    def test_chunk_boundaries(self, grid, frame_len, hop, scale, n_channels, n_frames):
        cfg = grid(frame_len, hop)
        sig = random_signal(n_channels, frame_len + (n_frames - 1) * hop, seed=n_frames)
        sig *= scale
        parts = chunk_slices(n_frames)
        assert (parts[0].start, parts[-1].stop) == (0, n_frames)
        assert [part.start for part in parts[1:]] == [part.stop for part in parts[:-1]]
        assert n_frames < 4 or all(4 <= part.stop - part.start <= _CHUNK_FRAMES + 3 for part in parts)
        bins = analyze(sig)
        assert bins.shape == (cfg.n_bins, n_frames, n_channels)
        assert bins.flags["C_CONTIGUOUS"]
        assert np.array_equal(bins.view(np.float64), self.one_call(sig, cfg).view(np.float64))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sample_peak_bounds_the_spectrum(self):
        # every |X_k| is at most peak |x| * sum(window): at 1e306 that bound
        # overflows and the samples are rejected before any transform
        # warns; at 1e300 the spectrum is finite
        sig = random_signal(2, 4 * CFG.frame_len, seed=9)
        sig /= np.abs(sig).max()
        with pytest.raises(DataError):
            analyze(sig * 1e306)
        bins = analyze(sig * 1e300)
        assert np.all(np.isfinite(bins))
        unit = analyze(sig)
        assert np.max(np.abs(bins / 1e300 - unit)) <= 1e-12 * np.max(np.abs(unit))

    def test_nan_in_unread_samples_raises(self):
        # the last hop - 1 samples lie in no frame, but the peak reads them
        sig = random_signal(1, CFG.frame_len + CFG.hop - 1, seed=10)
        assert frame_count(sig.shape[1]) == 1
        sig[0, -1] = np.nan
        with pytest.raises(DataError):
            analyze(sig)

    def test_nan_in_last_chunk_raises(self):
        # 2 chunks + 1 frame: only the last chunk's one frame reads the last
        # sample
        sig = random_signal(2, CFG.frame_len + 2 * _CHUNK_FRAMES * CFG.hop, seed=8)
        sig[1, -1] = np.nan
        with pytest.raises(DataError):
            analyze(sig)


def test_no_function_takes_the_grid():
    # the grid is a fact of this module: no function of the package takes a
    # grid record, a frame length, a hop, an FFT size or bin frequencies
    grid_names = {"frame_len", "hop", "n_fft", "bin_freqs", "stft_cfg"}
    for info in pkgutil.iter_modules(blockbeam.__path__):
        module = importlib.import_module(f"blockbeam.{info.name}")
        for fn in vars(module).values():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                params = inspect.signature(fn).parameters.values()
                assert not grid_names & {p.name for p in params}, fn
                assert not any("StftConfig" in str(p.annotation) for p in params), fn
