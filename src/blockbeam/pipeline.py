"""Block-online orchestration: failure detection, STFT, VAD, RTF, beamforming
and post-filtering, applied independently to each block, then one
resynthesis of the concatenated enhanced frames. A recording's blocks, or
the network VAD pass of a one-block run (whose `timings_s["vad"]` is then the
cut pass's wall time; 0.8 s stream blocks on 2 cores: 18.0-18.4 -> 15.3-16.7
ms), run on as many threads as the cores hold beside each BLAS call's own
(`_block_threads`); the output does not depend on the count."""

from __future__ import annotations

import copy
import os
import threading
import time
from collections import deque
from contextlib import contextmanager, suppress
from contextvars import copy_context
from dataclasses import dataclass, field, fields

import numpy as np

from .audio_io import MultichannelSignal, NetworkWeights
from .beamform import apply_weights, gev_weights, irtf_weights, mvdr_weights, noise_projection
from .channel_health import T_MU_SIMULATED, detect_failures
from .errors import ConfigError, SizeError, real_number, whole_number
from .postfilter import projected_residual, wiener_delta, wiener_gain
from .rtf import SUB_BLOCK_LEN_DEFAULT, build_rtf_set
from .stft import N_BINS, SAMPLE_RATE, analyze, bin_chunks, check_rate, chunk_slices, frame_count, frame_span, synthesize
from .vad import T_SNR_DEFAULT, infer_mask, oracle_ibm, pool_median

BEAMFORMERS = ("irtf", "mvdr", "gev")
POSTFILTERS = ("none", "wiener", "ban")
VAD_MODES = ("none", "oracle", "network")

# Post-filters that make sense for each beamformer; "none" is always allowed.
VALID_PAIRINGS = {
    "irtf": {"none", "wiener"},
    "mvdr": {"none", "wiener"},
    "gev": {"none", "ban"},
}

# Each part of a split network pass makes more multiply-adds than this in every layer:
# OpenBLAS 0.3.31 rounds smaller float32 products apart, e.g. 1-3 columns of 257-1024-1024-257.
_SPLIT_FLOOR = 10**6

# BlockDiagnostics.fallbacks keys, in record order
FALLBACK_COUNTERS = ("rtf_variance_guard_bins", "mvdr_fallback_bins", "gev_degenerate_bins",
                     "gev_noise_loaded_bins", "noise_cov_loaded_bins")


@dataclass
class PipelineConfig:
    """Block-online enhancement settings.

    block_frames is a count of frames of the `stft` frame grid per block, or
    "batch" to process the whole recording as a single block. No statistics
    are carried between blocks. The post-filter must be one that
    VALID_PAIRINGS lists for the beamformer: the Wiener filter follows the
    RTF-based beams, and the BAN gain comes only with GEV weights. Beamformer "gev" needs a VAD: without
    masks every GEV bin is degenerate and takes the principal eigenvector of
    its sample covariance, not the max-SNR beam. The numeric fields are
    stored as `errors.whole_number`/`real_number` return them.
    """

    block_frames: int | str = 100
    beamformer: str = "irtf"
    postfilter: str = "wiener"
    vad_mode: str = "oracle"
    ref_channel: int = 0
    t_mu: float = T_MU_SIMULATED
    t_snr: float = T_SNR_DEFAULT
    sub_block_len: int = SUB_BLOCK_LEN_DEFAULT

    def __post_init__(self):
        if self.beamformer not in BEAMFORMERS:
            raise ConfigError(f"unknown beamformer {self.beamformer!r}")
        if self.postfilter not in POSTFILTERS:
            raise ConfigError(f"unknown postfilter {self.postfilter!r}")
        if self.vad_mode not in VAD_MODES:
            raise ConfigError(f"unknown vad mode {self.vad_mode!r}")
        self.ref_channel = whole_number(self.ref_channel, "ref_channel")
        self.sub_block_len = whole_number(self.sub_block_len, "sub_block_len", minimum=1)
        self.t_mu = real_number(self.t_mu, "t_mu", 0.0, 1.0)
        self.t_snr = real_number(self.t_snr, "t_snr")
        if not self.is_batch:
            self.block_frames = whole_number(self.block_frames, "block_frames")
            if self.block_frames < 2 * self.sub_block_len:
                raise ConfigError(
                    f"block_frames {self.block_frames} < 2 * sub_block_len "
                    f"({2 * self.sub_block_len}); the RTF estimator needs 2 sub-blocks"
                )
        if self.postfilter not in VALID_PAIRINGS[self.beamformer]:
            raise ConfigError(
                f"postfilter {self.postfilter!r} is not paired with beamformer {self.beamformer!r}; "
                "'ban' needs 'gev', the only weights that carry a BAN gain"
            )
        if self.beamformer == "gev" and self.vad_mode == "none":
            raise ConfigError(
                "beamformer 'gev' needs speech masks: with vad_mode 'none' every bin is "
                "degenerate and the beam is the principal component, not the max-SNR beam"
            )

    @property
    def is_batch(self) -> bool:
        return self.block_frames == "batch"


@dataclass
class OracleStems:
    """Known clean/noise decomposition of the mixture, for oracle masks."""

    clean: MultichannelSignal
    noise: MultichannelSignal


@dataclass
class BlockDiagnostics:
    """What one block decided; `to_json_dict` writes each field under its own
    name, rounding the values of a field with "decimals" metadata."""

    active_channels: list[int] = field(default_factory=list)
    passthrough: bool = False
    ref_fallback: bool = False
    fallbacks: dict = field(default_factory=lambda: dict.fromkeys(FALLBACK_COUNTERS, 0))  # bins per guard
    timings_s: dict = field(default_factory=dict, metadata={"decimals": 6})  # seconds per stage

    def to_json_dict(self) -> dict:
        record = {}
        for f in fields(self):
            value = copy.copy(getattr(self, f.name))
            if "decimals" in f.metadata:
                value = {k: round(v, f.metadata["decimals"]) for k, v in value.items()}
            record[f.name] = value
        return record


@dataclass
class BlockResult:
    """One block's enhanced spectrum and intermediates; an intermediate is
    None when its stage did not run (a passthrough block has neither, and
    a gev block has no inverse RTFs)."""

    enhanced: np.ndarray  # (bins, frames) complex
    diagnostics: BlockDiagnostics
    pooled_mask: np.ndarray | None = None  # (bins, frames) in [0, 1]
    rtf: np.ndarray | None = None  # (bins, active channels) inverse RTFs


@contextmanager
def _stage_timer(timings: dict, name: str):
    """Add the wall time of the enclosed stage to timings[name]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


def check_stems(stems: OracleStems, signal: MultichannelSignal) -> None:
    """Clean and noise stems must match the signal's sample rate and channel
    count and cover its samples; only their first signal.n_samples samples
    are read."""
    for name, stem in (("clean", stems.clean), ("noise", stems.noise)):
        if stem.sample_rate != signal.sample_rate:
            raise ConfigError(f"{name} stem rate {stem.sample_rate} != mixture rate {signal.sample_rate}")
        if stem.channel_count != signal.channel_count or stem.n_samples < signal.n_samples:
            raise SizeError(f"{name} stem must cover every channel and sample of the mixture")


def _check_input(signal: MultichannelSignal, cfg: PipelineConfig, network, oracle):
    """Check what enters the pipeline before any data is read: the rate, the
    reference channel, the VAD mode's stems or weights, a network's bins in
    and out, and any stems (`check_stems`); returns the stems' arrays or None."""
    check_rate(signal.sample_rate)
    if cfg.ref_channel >= signal.channel_count:
        raise ConfigError(f"ref_channel {cfg.ref_channel} out of range for {signal.channel_count} channels")
    if cfg.vad_mode == "network" and network is None:
        raise ConfigError("network VAD mode needs loaded weights")
    if cfg.vad_mode == "oracle" and oracle is None:
        raise ConfigError("oracle VAD mode needs clean/noise stems")
    if network is not None and not network.input_dim == network.output_dim == N_BINS:
        raise SizeError(f"VAD network maps {network.input_dim} bins to {network.output_dim}, not {N_BINS} to {N_BINS}")
    if oracle is None:
        return None
    check_stems(oracle, signal)
    return oracle.clean.samples, oracle.noise.samples


def _pooled_mask(bins, cfg, network, stems, channels, timings, threads=1):
    """(K, L) median pool of the VAD masks of the non-reference channels
    1..M-1 of the reference-first spectrogram bins. Those channels are the
    microphones `channels`, whose rows of the (clean, noise) sample arrays
    `stems` give the oracle masks. A network pass is cut into up to
    `threads` even column parts (`_in_order`) above `_SPLIT_FLOOR`.

    Masks are made and pooled a frame chunk of `analyze` at a time, and
    freed before the next chunk's, so no full-length mask stack, activation
    or stem spectrogram is formed; the result equals one pass over all
    frames bit for bit. The stem analysis is timed as `oracle_stft`.
    """
    n_bins, n_frames, n_ch = bins.shape
    if cfg.vad_mode == "none":
        return np.ones((n_bins, n_frames))

    def chunk_masks(part):
        if cfg.vad_mode == "network":
            # one forward pass for all channels: frame l of channel i is
            # column l * (M - 1) + i of the stacked input
            stacked = bins[:, part, 1:].reshape(n_bins, -1)
            floor = _SPLIT_FLOOR // min(layer.weights.size for layer in network.layers) + 1  # columns
            parts = np.array_split(stacked, min(threads, stacked.shape[1] // floor) or 1, axis=1)
            masks = _in_order(lambda j: infer_mask(network, parts[j]), len(parts), threads)
            return np.concatenate(masks, axis=1).reshape(n_bins, -1, n_ch - 1)
        s_lo, s_hi = frame_span(part.start, part.stop - part.start)
        masks = np.empty((n_bins, part.stop - part.start, n_ch - 1))
        for i, ch in enumerate(channels):  # one stem channel's spectra at a time
            with _stage_timer(timings, "oracle_stft"):
                clean, noise = (analyze(stem[ch : ch + 1, s_lo:s_hi])[:, :, 0] for stem in stems)
            masks[:, :, i] = oracle_ibm(clean, noise, cfg.t_snr)
            del clean, noise  # before the next channel's are made
        return masks

    pooled = np.empty((n_bins, n_frames))
    for part in chunk_slices(n_frames):
        pooled[:, part] = pool_median(chunk_masks(part))
    return pooled


def process_block(
    block: MultichannelSignal,
    cfg: PipelineConfig,
    network: NetworkWeights | None = None,
    oracle: OracleStems | None = None,
) -> BlockResult:
    """Enhance one block with no state from other blocks (`_enhance_block`), after
    `_check_input` (any given stems whatever the VAD mode) and `_check_rtf_frames`."""
    stems = _check_input(block, cfg, network, oracle)
    _check_rtf_frames(frame_count(block.n_samples), cfg, "block")
    return _enhance_block(block.samples, cfg, network, stems, _block_threads())


def _enhance_block(samples, cfg, network, stems, threads) -> BlockResult:
    """Enhance the (channels, samples) array of one block, checked by its
    caller; `stems` holds the (clean, noise) arrays of the same samples, or
    is None.

    Sequence: microphone-failure detection, STFT, the per-bin median of the
    VAD masks of the non-reference channels (`_pooled_mask`, which pools
    them where they are made), inverse-RTF estimation weighted by the
    median, beamforming, post-filtering. Returns the enhanced block in the
    frequency domain plus diagnostics. If fewer than two channels survive
    failure detection, the reference channel passes through unprocessed and
    the block is flagged.

    The stages see the active channels reference-first, the reference
    followed by the others in channel order; BlockResult.rtf is returned in
    active-channel order.
    """
    diag = BlockDiagnostics()
    timings, fallbacks = diag.timings_s, diag.fallbacks

    with _stage_timer(timings, "failure_detection"):
        if samples.shape[0] >= 2:
            active = [int(i) for i in np.flatnonzero(detect_failures(samples) >= cfg.t_mu)]
        else:
            active = [0]
    diag.active_channels = active

    if len(active) < 2:
        diag.passthrough = True
        with _stage_timer(timings, "stft"):
            bins_ref = analyze(samples[[cfg.ref_channel]])
        return BlockResult(enhanced=bins_ref[:, :, 0], diagnostics=diag)

    if cfg.ref_channel in active:
        ref = cfg.ref_channel
    else:
        ref = active[0]
        diag.ref_fallback = True
    order = [ref] + [ch for ch in active if ch != ref]

    with _stage_timer(timings, "stft"):
        bins = analyze(samples[order])

    with _stage_timer(timings, "vad"):
        pooled = _pooled_mask(bins, cfg, network, stems, order[1:], timings, threads)
    # the `vad` stage ran the stem analysis, which is timed on its own
    timings["vad"] -= timings.get("oracle_stft", 0.0)

    inv_rtf = None
    if cfg.beamformer != "gev":
        with _stage_timer(timings, "rtf"):
            inv_rtf, guarded = build_rtf_set(bins, pooled, sub_block_len=cfg.sub_block_len)
            fallbacks["rtf_variance_guard_bins"] = int(guarded.sum())

    if cfg.beamformer == "mvdr" or cfg.postfilter == "wiener":
        with _stage_timer(timings, "noise_est"):
            # the projection only: the postfilter folds w into it, so the
            # per-channel noise estimate is never formed
            noise_proj, noise_cov, fallbacks["noise_cov_loaded_bins"] = noise_projection(bins, inv_rtf)

    with _stage_timer(timings, "beamform"):
        if cfg.beamformer == "irtf":
            weights = irtf_weights(inv_rtf)
        elif cfg.beamformer == "mvdr":
            weights, fallbacks["mvdr_fallback_bins"] = mvdr_weights(noise_cov, inv_rtf)
        else:
            weights, ban_gain, *gev_counts = gev_weights(bins, pooled)
            fallbacks["gev_degenerate_bins"], fallbacks["gev_noise_loaded_bins"] = gev_counts
        beam_out = apply_weights(weights, bins)

    with _stage_timer(timings, "postfilter"):
        if cfg.postfilter == "ban":
            beam_out *= ban_gain[:, None]
        elif cfg.postfilter == "wiener":
            # a bin slice at a time, in place: beside the spectrogram and
            # the beam output only |u|^2 is block-sized, no residual or gain
            parts = bin_chunks(*beam_out.shape)
            u_pow = np.empty(beam_out.shape)
            for part in parts:
                u = beam_out[part]
                u_pow[part] = u.real**2 + u.imag**2
            delta = wiener_delta(u_pow)
            for part in parts:
                residual = projected_residual(weights[part], bins[part], noise_proj[part])
                speech_mask = None if cfg.vad_mode == "none" else pooled[part]
                beam_out[part] *= wiener_gain(u_pow[part], residual, delta, part, speech_mask)

    if inv_rtf is not None:
        inv_rtf = inv_rtf[:, np.argsort(order)]
    return BlockResult(enhanced=beam_out, diagnostics=diag, pooled_mask=pooled, rtf=inv_rtf)


def _check_rtf_frames(n_frames: int, cfg: PipelineConfig, what: str) -> None:
    """irtf/mvdr estimate RTFs from at least 2 sub-blocks of frames; gev needs none."""
    if cfg.beamformer != "gev" and n_frames < 2 * cfg.sub_block_len:
        raise SizeError(f"{what} has {n_frames} frames; the RTF estimator needs 2 sub-blocks ({2 * cfg.sub_block_len})")


def partition_frames(n_samples: int, cfg: PipelineConfig) -> list[tuple[int, int]]:
    """(start_frame, frame_count) per block on the stream's STFT frame grid.

    Batch mode yields a single block covering every frame, two sub-blocks at
    least unless the beamformer is "gev". A trailing partial block shorter
    than two sub-blocks is merged into the previous block; longer remainders
    stand alone.
    """
    total = frame_count(n_samples)
    if cfg.is_batch:
        _check_rtf_frames(total, cfg, "signal")
        return [(0, total)]
    size = cfg.block_frames
    if total < size:
        raise SizeError(f"signal has {total} frames, shorter than one block ({size})")
    n_full, rem = divmod(total, size)
    counts = [size] * n_full
    if rem:
        if rem < 2 * cfg.sub_block_len:
            counts[-1] += rem
        else:
            counts.append(rem)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return [(int(s), int(c)) for s, c in zip(starts, counts)]


def _block_threads() -> int:
    """Usable CPUs (`os.sched_getaffinity`, else `os.cpu_count`) divided by the
    threads of one BLAS call, which OpenBLAS takes from OPENBLAS_NUM_THREADS,
    else OMP_NUM_THREADS (first field), else all CPUs."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").split(",")[0].strip()
        if value.isdecimal() and int(value) > 0:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            return max(1, cpus // int(value))
    return 1


def _in_order(work, count, threads) -> list:
    """[work(i) for i in range(count)] on the caller and min(threads, count) - 1
    helpers, each in a copy of the caller's `contextvars` (so `np.errstate`
    holds), taking the indices in order and none after one has failed. Once all
    have joined, the first failing index's exception (any BaseException) is
    raised, as a serial loop would."""
    pending, results, errors = deque(range(count)), [None] * count, {}

    def take():
        with suppress(IndexError):  # from popleft (thread-safe) once every index is taken
            while not errors:  # indices go in order: when one fails, all before it are taken
                i = pending.popleft()
                try:
                    results[i] = work(i)
                except BaseException as exc:  # re-raised below, after the join
                    errors[i] = exc

    helpers = [threading.Thread(target=copy_context().run, args=(take,)) for _ in range(1, min(threads, count))]
    for helper in helpers:
        helper.start()
    try:
        take()
    finally:
        pending.clear()  # on an interrupt between items, helpers stop after their current one
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def run_with_diagnostics(
    signal: MultichannelSignal,
    cfg: PipelineConfig,
    network: NetworkWeights | None = None,
    oracle: OracleStems | None = None,
) -> tuple[MultichannelSignal, list[BlockResult]]:
    """Enhance a whole recording and return per-block results.

    Blocks partition the stream's frame grid, so consecutive blocks share
    frame_len - hop samples of time support. The enhanced frames of all
    blocks are concatenated and synthesized once; weighted overlap-add
    smooths the seams, and the synthesis time is split across the blocks'
    `synthesis` stages by frame count. The output covers exactly the samples
    spanned by full STFT frames, so up to hop - 1 trailing input samples are
    trimmed. The checks are `process_block`'s, made once for the recording.

    The caller and `_block_threads()` - 1 helpers take the blocks in order
    (`_in_order`); the first failing block's error is raised. A one-block run
    cuts its network VAD pass over them instead (`timings_s["vad"]` is its wall
    time, 10.8-11.1 -> 7.9-9.5 ms of 18.0-18.4 -> 15.3-16.7 ms medians on 0.8 s
    stream blocks, 2 cores). `timings_s` are per-block wall times, which
    overlap, and each block in flight adds its working set to peak memory.
    """
    stems = _check_input(signal, cfg, network, oracle)
    blocks = partition_frames(signal.n_samples, cfg)
    threads = _block_threads()

    def enhance(i):
        lo, hi = frame_span(*blocks[i])
        block_stems = None if stems is None else [stem[:, lo:hi] for stem in stems]
        return _enhance_block(signal.samples[:, lo:hi], cfg, network, block_stems, threads if len(blocks) == 1 else 1)

    results = _in_order(enhance, len(blocks), threads)

    start = time.perf_counter()
    enhanced = np.concatenate([r.enhanced for r in results], axis=1)
    out = synthesize(enhanced[:, :, None])
    elapsed = time.perf_counter() - start
    for (_, n_frames), result in zip(blocks, results):
        result.diagnostics.timings_s["synthesis"] = elapsed * n_frames / enhanced.shape[1]
    return MultichannelSignal(out, SAMPLE_RATE), results


def run(
    signal: MultichannelSignal,
    cfg: PipelineConfig,
    network: NetworkWeights | None = None,
    oracle: OracleStems | None = None,
) -> MultichannelSignal:
    """Enhance a whole recording; single-channel output."""
    enhanced, _ = run_with_diagnostics(signal, cfg, network, oracle)
    return enhanced
