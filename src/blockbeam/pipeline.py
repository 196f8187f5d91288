"""Block-online orchestration: failure detection, STFT, VAD, RTF, beamforming
and post-filtering, applied independently to each block, then one
resynthesis of the concatenated enhanced frames."""

from __future__ import annotations

import copy
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .audio_io import MultichannelSignal, NetworkWeights
from .beamform import apply_weights, gev_weights, irtf_weights, mvdr_weights, noise_projection
from .channel_health import T_MU_SIMULATED, detect_failures
from .errors import ConfigError, SizeError, real_number, whole_number
from .postfilter import projected_residual, wiener_delta, wiener_gain
from .rtf import SUB_BLOCK_LEN_DEFAULT, build_rtf_set
from .stft import SAMPLE_RATE, analyze, bin_chunks, check_rate, chunk_slices, frame_count, frame_span, synthesize
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


def _check_input(signal: MultichannelSignal, cfg: PipelineConfig, oracle: OracleStems | None):
    """Check the audio entering the pipeline: the grid's rate, the reference
    channel and any stems (`check_stems`); returns the stems' arrays or None."""
    check_rate(signal.sample_rate)
    if cfg.ref_channel >= signal.channel_count:
        raise ConfigError(f"ref_channel {cfg.ref_channel} out of range for {signal.channel_count} channels")
    if oracle is None:
        return None
    check_stems(oracle, signal)
    return oracle.clean.samples, oracle.noise.samples


def _pooled_mask(bins, cfg, network, stems, channels, timings):
    """(K, L) median pool of the VAD masks of the non-reference channels
    1..M-1 of the reference-first spectrogram bins. Those channels are the
    microphones `channels`, whose rows of the (clean, noise) sample arrays
    `stems` give the oracle masks.

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
            return infer_mask(network, bins[:, part, 1:].reshape(n_bins, -1)).reshape(n_bins, -1, n_ch - 1)
        s_lo, s_hi = frame_span(part.start, part.stop - part.start)
        with _stage_timer(timings, "oracle_stft"):
            clean, noise = (analyze(stem[channels, s_lo:s_hi]) for stem in stems)
        return oracle_ibm(clean, noise, cfg.t_snr)

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
    """Enhance one block with no state from other blocks (`_enhance_block`),
    after `_check_input`, which checks any given stems whatever the VAD mode."""
    return _enhance_block(block.samples, cfg, network, _check_input(block, cfg, oracle))


def _enhance_block(samples, cfg, network, stems) -> BlockResult:
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
        if cfg.vad_mode == "network" and network is None:
            raise ConfigError("network VAD mode needs loaded weights")
        if cfg.vad_mode == "oracle" and stems is None:
            raise ConfigError("oracle VAD mode needs clean/noise stems")
        pooled = _pooled_mask(bins, cfg, network, stems, order[1:], timings)
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
        if cfg.postfilter == "ban":
            beam_out *= ban_gain[:, None]

    with _stage_timer(timings, "postfilter"):
        if cfg.postfilter == "wiener":
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


def partition_frames(n_samples: int, cfg: PipelineConfig) -> list[tuple[int, int]]:
    """(start_frame, frame_count) per block on the stream's STFT frame grid.

    Batch mode yields a single block covering every frame. A trailing partial
    block shorter than two sub-blocks is merged into the previous block;
    longer remainders stand alone.
    """
    total = frame_count(n_samples)
    if cfg.is_batch:
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
    """
    stems = _check_input(signal, cfg, oracle)
    blocks = partition_frames(signal.n_samples, cfg)
    results = []
    for start_frame, n_frames in blocks:
        lo, hi = frame_span(start_frame, n_frames)
        block_stems = None if stems is None else [stem[:, lo:hi] for stem in stems]
        results.append(_enhance_block(signal.samples[:, lo:hi], cfg, network, block_stems))

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
