"""Synthetic multichannel mixtures with known ground truth, plus SIR/SDR/SAR.

The mixing model convolves a dry source with short per-channel FIRs (a delay
plus a few decaying taps) and adds noise scaled to a requested global SNR.
Because the FIRs are known exactly, the true relative transfer functions are
available per segment, which makes estimator accuracy directly measurable.

Metrics follow the projection-based decomposition of BSS Eval (Vincent,
Gribonval & Fevotte, IEEE TASLP 2006), simplified to a time-invariant
allowed-distortion filter: the estimate is split into a target part
(projection onto delayed copies of the target stem), an interference part
(projection of the remainder onto delayed noise stems) and an artifact
remainder. The delays are truncated and causal: a stem delayed by d samples
is zero over its first d samples and is cut at the estimate's length.

Each projection is solved from its normal equations, as BSS Eval builds
them, rather than from the dense samples-by-delays matrix D. The Gram matrix
D^T D is block Toeplitz in the stem-pair cross-correlations at lags
-(L-1)..(L-1), minus the outer product of the L-1 rows that the truncation
cuts off; D^T x is the correlation of x with each stem. The system is solved
by a symmetric eigendecomposition; eigenvalues at or below
lambda_max * max(N, K L) * eps (N samples, K stems, L delays) are dropped,
which gives the minimum-norm least-squares solution when the basis is rank
deficient (duplicated or silent stems). In singular-value terms that
cutoff is sqrt(max(N, K L) * eps) * sigma_max, so only a basis whose
condition number exceeds 1 / sqrt(max(N, K L) * eps) (3e5 at N = 51200)
loses a direction that a dense SVD solve would keep. The coefficients are
applied as causal FIR filters, truncated to the estimate's length, and one
step of iterative refinement follows.

FIR filtering is `np.convolve` cut to the input length and the AR(1)
carrier of `speech_like_source` is its recurrence; both give the bits of
scipy's `lfilter`, whose module takes ~0.9 s to import, so the package
never imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio_io import MultichannelSignal
from .errors import ConfigError, DataError, SizeError, real_number, whole_number
from .stft import FRAME_LEN

MAX_FIR_TAPS = 64
DEFAULT_SNR_DB = 5.0
DEFAULT_FILTER_LEN = 32

# Metric values whose denominators vanish are reported at this sentinel.
SENTINEL_DB = 200.0

NOISE_KINDS = ("white", "pink", "file")

PAUSE_PROB = 0.3  # share of the built-in source's 80 ms gain steps that are pauses
_AR1_CHUNK = 4096  # samples per Python list of the AR(1) recurrence


@dataclass
class MixtureSpec:
    """Mixing recipe: per-segment per-channel FIRs, noise type, global SNR.

    firs has shape (segments, channels, taps), one segment too (SizeError
    otherwise); segment_starts holds the first sample of each segment (first
    entry 0). A single segment models a static source; several segments
    model a source that jumps between positions at the segment boundaries,
    which callers should align with processing-block boundaries.
    """

    channel_count: int
    firs: np.ndarray
    segment_starts: np.ndarray = field(default_factory=lambda: np.array([0]))
    noise_kind: str = "white"
    snr_db: float = DEFAULT_SNR_DB

    def __post_init__(self):
        self.firs = np.asarray(self.firs, dtype=np.float64)
        if self.firs.ndim != 3:
            raise SizeError(f"firs must have shape (segments, channels, taps), got {self.firs.shape}")
        self.segment_starts = np.asarray(self.segment_starts, dtype=np.int64)
        n_seg, n_ch, taps = self.firs.shape
        if n_ch != self.channel_count:
            raise ConfigError(f"firs have {n_ch} channels, expected {self.channel_count}")
        if taps > MAX_FIR_TAPS:
            raise ConfigError(f"FIRs limited to {MAX_FIR_TAPS} taps, got {taps}")
        if not np.all(np.isfinite(self.firs)):
            raise DataError("FIRs hold non-finite taps")
        if np.any(np.all(self.firs == 0.0, axis=2)):
            raise ConfigError("every per-channel FIR must be nonzero")
        if self.segment_starts.shape != (n_seg,) or self.segment_starts[0] != 0:
            raise ConfigError("segment_starts must list one start per segment, beginning at 0")
        if np.any(np.diff(self.segment_starts) <= 0):
            raise ConfigError("segment_starts must be strictly increasing")
        self.snr_db = real_number(self.snr_db, "snr_db")
        if self.noise_kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.noise_kind!r}")


@dataclass
class SimResult:
    mixture: MultichannelSignal
    clean: MultichannelSignal  # target spatial images, noise-free
    noise: MultichannelSignal  # scaled noise stems; mixture = clean + noise
    true_rtf: np.ndarray  # (segments, bins, channels), H_i / H_0 per segment


def _whole_delays(delays) -> np.ndarray:
    """Per-channel delays in whole samples; at least one channel."""
    delays = np.array([whole_number(d, f"delays[{i}]") for i, d in enumerate(delays)], dtype=np.int64)
    if delays.size == 0:
        raise ConfigError("delays must list one delay per channel, got none")
    return delays


def delay_firs(delays, taps: int | None = None) -> np.ndarray:
    """Pure-delay FIRs, one per channel: h_i[d_i] = 1, d_i whole samples,
    with `taps` taps: at least, and by default, the largest delay plus one."""
    delays = _whole_delays(delays)
    shortest = int(delays.max()) + 1
    n_taps = shortest if taps is None else whole_number(taps, "taps", minimum=shortest)
    firs = np.zeros((len(delays), n_taps))
    firs[np.arange(len(delays)), delays] = 1.0
    return firs


def decaying_firs(delays, rng, extra_taps: int = 3, decay: float = 0.5) -> np.ndarray:
    """Delay-plus-decaying-taps FIRs: a unit main tap followed by `extra_taps` random-sign
    taps shrinking by a factor `decay` in [0, 1] each, a desk-scale stand-in for early reflections."""
    delays = _whole_delays(delays)
    extra_taps = whole_number(extra_taps, "extra_taps")
    decay = real_number(decay, "decay", 0.0, 1.0)
    firs = delay_firs(delays, taps=int(delays.max()) + extra_taps + 1)
    for i, d in enumerate(delays):
        for j in range(1, extra_taps + 1):
            firs[i, d + j] = rng.choice([-1.0, 1.0]) * decay**j * rng.uniform(0.5, 1.0)
    return firs


def true_rtfs(firs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frequency responses of the FIRs as ratios against channel 0, the reference.

    Returns (rtf, inv_rtf), both (bins, channels) on the frame grid's
    one-sided bins. No FIR may have a spectral null there.
    """
    resp = np.fft.rfft(firs, n=FRAME_LEN, axis=1).T  # (bins, channels)
    if np.any(np.abs(resp) < 1e-12):
        raise DataError("FIR frequency response has a near-null bin; RTF undefined there")
    rtf = resp / resp[:, :1]
    return rtf, 1.0 / rtf


def white_noise(n_channels: int, n_samples: int, rng) -> np.ndarray:
    return rng.standard_normal((n_channels, n_samples))


def pink_noise(n_channels: int, n_samples: int, rng) -> np.ndarray:
    """1/f-shaped noise via spectral weighting of white noise, at least 2 samples long."""
    if n_samples < 2:
        raise SizeError(f"pink noise needs at least 2 samples, got {n_samples}")
    spec = np.fft.rfft(rng.standard_normal((n_channels, n_samples)), axis=1)
    freqs = np.fft.rfftfreq(n_samples)
    weights = np.zeros_like(freqs)
    weights[1:] = 1.0 / np.sqrt(freqs[1:])
    spec *= weights
    out = np.fft.irfft(spec, n=n_samples, axis=1)
    del spec  # np.std makes a centred copy of out
    out /= np.std(out)
    return out


def _gated_envelope(n: int, sample_rate: int, rng, pause_prob: float, low: float) -> np.ndarray:
    """Gain that changes every 80 ms: 0 with probability pause_prob, else
    uniform in [low, 1)."""
    seg = int(round(0.08 * sample_rate))
    env = np.zeros(n)
    for pos in range(0, n, seg):
        env[pos : pos + seg] = 0.0 if rng.random() < pause_prob else rng.uniform(low, 1.0)
    return env


def _fir(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Causal FIR filter b applied to x, cut to len(x): scipy's lfilter(b, [1], x).

    This is the convolution that lfilter runs for a = [1], so the bits match.
    np.convolve makes the longer operand its data, which fixes the order of
    each output's sum, so callers that pass a slice of a longer signal keep
    the slice longer than b whenever the signal is.
    """
    return np.convolve(b, x)[: x.shape[0]]


def _ar1(x: np.ndarray, pole: float) -> np.ndarray:
    """y[n] = x[n] + pole * y[n-1] from rest: scipy's lfilter([1], [1, -pole], x).

    lfilter's direct form II transposed rounds the same two operations per
    sample in the same order, so the bits match. The Python pass costs
    ~5 ms per 51,200 samples against ~0.3 ms in scipy. It runs over
    _AR1_CHUNK samples at a time, so only a chunk is ever held as a list of
    Python floats (32 bytes a sample against the array's 8).
    """
    out = np.empty(x.shape[0])
    y = 0.0
    for lo in range(0, x.shape[0], _AR1_CHUNK):
        chunk = []
        append = chunk.append
        for v in x[lo : lo + _AR1_CHUNK].tolist():
            y = v + pole * y
            append(y)
        out[lo : lo + len(chunk)] = chunk
    return out


def speech_like_source(duration_s: float, sample_rate: int, rng) -> np.ndarray:
    """Nonstationary low-pass test source: AR(1)-colored noise bursts.

    The gain changes every 80 ms and drops to a pause with probability
    PAUSE_PROB, giving the across-sub-block power variation the RTF estimator
    relies on and the silence/activity contrast the oracle mask needs. The AR
    coloring keeps neighboring channels correlated under small relative delays.
    """
    samples = real_number(duration_s, "duration_s", low=0.0) * sample_rate
    if samples > np.iinfo(np.intp).max:
        most = np.iinfo(np.intp).max / sample_rate
        raise ConfigError(f"duration_s must be at most {most:g} s at {sample_rate} Hz, got {duration_s!r}")
    n = int(round(samples))
    # short raised-cosine smoothing to avoid clicks at gain steps
    ramp = int(round(0.004 * sample_rate))
    shortest = max(ramp, 1)
    if n < shortest:
        raise SizeError(
            f"speech-like source needs at least {shortest} samples (its gain ramp), got {n}: "
            f"duration_s must be at least {shortest / sample_rate:g} s at {sample_rate} Hz"
        )
    env = _gated_envelope(n, sample_rate, rng, PAUSE_PROB, 0.3)
    if ramp > 1:
        kernel = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(ramp) / ramp)
        env = np.convolve(env, kernel / kernel.sum(), mode="same")
    carrier = _ar1(rng.standard_normal(n), 0.9)
    x = carrier * env
    peak = np.max(np.abs(x))
    return x / peak if peak > 0 else x


def simulate(spec: MixtureSpec, dry_speech, noise, sample_rate: int = 16000) -> SimResult:
    """Mix x_i = (h_i * s) + alpha * y_i at the requested global SNR.

    Arguments:
        dry_speech: 1-D dry source
        noise: (channels, samples) noise

    alpha is chosen so that the total clean-to-noise energy ratio across all
    channels equals spec.snr_db exactly. Returned stems satisfy
    mixture = clean + noise sample for sample; true_rtf holds the RTFs of each
    segment of spec.segment_starts on the frame grid's one-sided bins.
    """
    dry = np.asarray(dry_speech, dtype=np.float64)
    if dry.ndim != 1 or dry.shape[0] == 0:
        raise SizeError(f"expected a 1-D dry source of at least 1 sample, got shape {dry.shape}")
    noise_samples = np.asarray(noise, dtype=np.float64)
    n_samples = dry.shape[0]
    if noise_samples.ndim != 2 or noise_samples.shape[0] != spec.channel_count:
        raise SizeError(f"noise has shape {noise_samples.shape}, expected ({spec.channel_count}, samples)")
    if noise_samples.shape[1] < n_samples:
        raise SizeError("noise stems shorter than the dry source")
    noise_samples = noise_samples[:, :n_samples]
    if np.any(spec.segment_starts >= n_samples):
        raise ConfigError("segment start beyond the end of the source")
    if not np.all(np.isfinite(dry)):
        raise DataError("dry source holds non-finite samples")
    if not np.all(np.isfinite(noise_samples)):
        raise DataError("noise holds non-finite samples")

    taps = spec.firs.shape[2]
    bounds = list(spec.segment_starts) + [n_samples]
    clean = np.zeros((spec.channel_count, n_samples))
    for seg in range(len(spec.segment_starts)):
        lo, hi = bounds[seg], bounds[seg + 1]
        # Filter only the span that reaches lo:hi, keeping it longer than the
        # FIR whenever the source is (see _fir), so each sample matches the
        # filter run over the whole source.
        first = max(0, min(lo - taps + 1, hi - taps - 1))
        last = min(n_samples, max(hi, first + taps + 1))
        for ch in range(spec.channel_count):
            clean[ch, lo:hi] = _fir(spec.firs[seg, ch], dry[first:last])[lo - first : hi - first]

    clean_energy = float(np.sum(clean**2))
    noise_energy = float(np.sum(noise_samples**2))
    if clean_energy <= 0 or noise_energy <= 0:
        raise DataError("zero-energy stem; cannot realize the requested SNR")
    alpha = np.sqrt(clean_energy / (noise_energy * 10.0 ** (spec.snr_db / 10.0)))

    noise_scaled = alpha * noise_samples
    return SimResult(
        mixture=MultichannelSignal(clean + noise_scaled, sample_rate),
        clean=MultichannelSignal(clean, sample_rate),
        noise=MultichannelSignal(noise_scaled, sample_rate),
        true_rtf=np.stack([true_rtfs(firs)[0] for firs in spec.firs]),
    )


@dataclass
class Decomposition:
    """Exact split estimate = target + interference + artifact."""

    target: np.ndarray
    interference: np.ndarray
    artifact: np.ndarray


def _lag_products(a: np.ndarray, b: np.ndarray, n_lags: int) -> np.ndarray:
    """out[k] = sum_m a[:, m] b[:, m + k]^T for lags k = 0 .. n_lags-1.

    a is (p, N) and b is (q, N); lags at or beyond N give zeros.
    """
    n = a.shape[1]
    return np.stack([a[:, : max(n - k, 0)] @ b[:, k:].T for k in range(n_lags)])


def _delay_gram(stems: np.ndarray, n_delays: int) -> np.ndarray:
    """D^T D for the truncated causal delay matrix of the stacked stems.

    Columns of D are ordered stem-major (stem i, delay a -> i * n_delays + a);
    column (i, a) is stem i delayed by a samples, zero-padded at the start
    and cut at N. The untruncated delay matrix has N + n_delays - 1 rows and
    a block-Toeplitz Gram; removing its last n_delays - 1 rows (the tail)
    leaves D.
    """
    k, n = stems.shape
    lags = _lag_products(stems, stems, n_delays)  # (L, K, K), lags 0 .. L-1
    both = np.concatenate([lags[:0:-1].transpose(0, 2, 1), lags])  # lags -(L-1) .. L-1
    d = np.arange(n_delays)
    gram = both[d[:, None] - d[None, :] + n_delays - 1]  # [a, b, i, j]
    gram = gram.transpose(2, 0, 3, 1).reshape(k * n_delays, k * n_delays)
    src = n + np.arange(n_delays - 1)[:, None] - d  # stem sample in tail row t, delay a
    src = np.where((src >= 0) & (src < n), src, n)  # index n reads the zero pad
    tail = np.pad(stems, ((0, 0), (0, 1)))[:, src]  # (K, L-1, L)
    tail = tail.transpose(1, 0, 2).reshape(n_delays - 1, k * n_delays)
    return gram - tail.T @ tail


def _project(stems: np.ndarray, x: np.ndarray, n_delays: int) -> np.ndarray:
    """Least-squares projection of x onto the truncated causal delays of stems.

    One step of iterative refinement (re-solving for the residual, whose
    correlations are taken from the signals rather than the Gram matrix)
    brings the projection to the accuracy of a dense QR or SVD solve unless
    the delay basis is very ill-conditioned.
    """
    gram = _delay_gram(stems, n_delays)
    eigval, eigvec = np.linalg.eigh(gram)
    keep = eigval > eigval[-1] * max(gram.shape[0], x.shape[0]) * np.finfo(np.float64).eps
    basis, scale = eigvec[:, keep], eigval[keep]
    projection = np.zeros_like(x)
    if not np.any(keep):  # silent stems, or no samples at all
        return projection
    for _ in range(2):
        rhs = _lag_products(stems, (x - projection)[np.newaxis], n_delays)[:, :, 0].T.ravel()
        coef = (basis @ ((rhs @ basis) / scale)).reshape(stems.shape[0], n_delays)
        projection += sum(_fir(c, stem) for c, stem in zip(coef, stems))
    return projection


def decompose(estimate, target_stem, noise_stems, filter_len: int = DEFAULT_FILTER_LEN) -> Decomposition:
    """Project an estimate against known stems with a short allowed-distortion filter.

    The target part is the least-squares projection onto delayed copies of the
    target stem; the interference part is the projection of what remains onto
    the delayed noise stems; everything else is artifact. The three parts sum
    to the estimate exactly. A NaN or inf sample in any input is a DataError.
    """
    est = np.asarray(estimate, dtype=np.float64).ravel()
    target = np.asarray(target_stem, dtype=np.float64).ravel()
    noises = np.atleast_2d(np.asarray(noise_stems, dtype=np.float64))
    filter_len = whole_number(filter_len, "filter_len", minimum=1)
    if target.shape[0] != est.shape[0] or noises.shape[1] != est.shape[0]:
        raise SizeError("stems must match the estimate length")
    for name, samples in (("estimate", est), ("target stem", target), ("noise stems", noises)):
        if not np.all(np.isfinite(samples)):
            raise DataError(f"{name} holds non-finite samples")

    s_target = _project(target[np.newaxis], est, filter_len)
    remainder = est - s_target

    if noises.shape[0] > 0 and noises.size > 0:
        e_interf = _project(noises, remainder, filter_len)
    else:
        e_interf = np.zeros_like(remainder)
    e_artif = remainder - e_interf
    return Decomposition(target=s_target, interference=e_interf, artifact=e_artif)


@dataclass
class MetricReport:
    sir_db: float
    sdr_db: float
    sar_db: float
    capped: bool = False


def _ratio_db(num: float, den: float) -> tuple[float, bool]:
    if den <= 0.0:
        return SENTINEL_DB, True
    if num <= 0.0:
        return -SENTINEL_DB, True
    value = 10.0 * np.log10(num / den)
    if abs(value) >= SENTINEL_DB:
        return float(np.sign(value)) * SENTINEL_DB, True
    return float(value), False


def _energies(decomp: Decomposition) -> np.ndarray:
    """Energies of target, interference, artifact and target + interference."""
    parts = (decomp.target, decomp.interference, decomp.artifact, decomp.target + decomp.interference)
    return np.array([float(np.sum(part**2)) for part in parts])


def _report(energies) -> MetricReport:
    """SIR, SDR and SAR from the four energies that `_energies` lists."""
    p_target, p_interf, p_artif, p_signal = energies
    sir, c1 = _ratio_db(p_target, p_interf)
    sdr, c2 = _ratio_db(p_target, p_interf + p_artif)
    sar, c3 = _ratio_db(p_signal, p_artif)
    return MetricReport(sir_db=sir, sdr_db=sdr, sar_db=sar, capped=c1 or c2 or c3)


def metrics(decomp: Decomposition) -> MetricReport:
    """Interference/distortion/artifact ratios of a decomposition, in dB."""
    return _report(_energies(decomp))


def evaluate_estimate(estimate, target_stem, noise_stems, filter_len: int = DEFAULT_FILTER_LEN) -> MetricReport:
    """Decompose and score in one step: the report of `evaluate_blockwise`
    with one window that spans the estimate."""
    n_samples = np.asarray(estimate).size
    return evaluate_blockwise(estimate, target_stem, noise_stems, n_samples, filter_len)[0]


def evaluate_blockwise(
    estimate,
    target_stem,
    noise_stems,
    window: int,
    filter_len: int = DEFAULT_FILTER_LEN,
) -> tuple[MetricReport, list[MetricReport]]:
    """Windowed variant: one decomposition per window of `window` samples.

    Allowing the distortion filter to change per window follows processing
    whose effective filtering varies over time (block-online enhancement),
    which a single time-invariant projection would misclassify as artifacts.
    The trailing remainder merges into the last window. Stems are trimmed to
    the estimate's length. An estimate or a window shorter than filter_len is
    a SizeError.

    Returns (energy-aggregated report, per-window reports). The aggregate
    sums each energy that `metrics` uses over the windows, so a single
    window gives exactly `metrics(decompose(...))` of the whole estimate.
    """
    est = np.asarray(estimate, dtype=np.float64).ravel()
    target = np.asarray(target_stem, dtype=np.float64).ravel()[: est.shape[0]]
    noises = np.atleast_2d(np.asarray(noise_stems, dtype=np.float64))[:, : est.shape[0]]
    filter_len = whole_number(filter_len, "filter_len", minimum=1)
    if est.shape[0] < filter_len:
        raise SizeError(f"estimate of {est.shape[0]} samples shorter than the projection filter {filter_len}")
    window = whole_number(window, "window", minimum=1)
    if window < filter_len:
        raise SizeError(f"window {window} shorter than the projection filter {filter_len}")
    if target.shape[0] < est.shape[0] or noises.shape[1] < est.shape[0]:
        raise SizeError("stems shorter than the estimate")

    starts = list(range(0, est.shape[0] - window + 1, window)) or [0]
    edges = [(lo, lo + window) for lo in starts]
    edges[-1] = (edges[-1][0], est.shape[0])  # last window absorbs the remainder

    per_window = []
    total = np.zeros(4)
    for lo, hi in edges:
        energies = _energies(decompose(est[lo:hi], target[lo:hi], noises[:, lo:hi], filter_len))
        per_window.append(_report(energies))
        total += energies
    return _report(total), per_window
