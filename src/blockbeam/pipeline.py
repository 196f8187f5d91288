"""Block-online orchestration: failure detection, STFT, VAD, RTF, beamforming
and post-filtering, applied independently to each block, then one
resynthesis of the concatenated enhanced frames."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .audio_io import MultichannelSignal, NetworkWeights
from .beamform import apply_weights, gev_weights, irtf_weights, mvdr_weights, noise_projection
from .channel_health import T_MU_SIMULATED, detect_failures
from .errors import ConfigError, SizeError
from .postfilter import projected_residual, wiener_mask
from .rtf import SUB_BLOCK_LEN_DEFAULT, build_rtf_set
from .stft import StftConfig, analyze, chunk_slices, frame_count, synthesize
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


@dataclass
class PipelineConfig:
    """Block-online enhancement settings.

    block_frames is an STFT frame count per block, or "batch" to process the
    whole recording as a single block. No statistics are carried between
    blocks. The post-filter must be one that VALID_PAIRINGS lists for the
    beamformer: the Wiener filter follows the RTF-based beams, and the BAN
    gain comes only with GEV weights. Beamformer "gev" needs a VAD: without
    masks every GEV bin is degenerate and takes the principal eigenvector of
    its sample covariance, not the max-SNR beam.
    """

    block_frames: int | str = 100
    beamformer: str = "irtf"
    postfilter: str = "wiener"
    vad_mode: str = "oracle"
    ref_channel: int = 0
    t_mu: float = T_MU_SIMULATED
    t_snr: float = T_SNR_DEFAULT
    sub_block_len: int = SUB_BLOCK_LEN_DEFAULT
    stft: StftConfig = field(default_factory=StftConfig)

    def __post_init__(self):
        if self.beamformer not in BEAMFORMERS:
            raise ConfigError(f"unknown beamformer {self.beamformer!r}")
        if self.postfilter not in POSTFILTERS:
            raise ConfigError(f"unknown postfilter {self.postfilter!r}")
        if self.vad_mode not in VAD_MODES:
            raise ConfigError(f"unknown vad mode {self.vad_mode!r}")
        if not self.is_batch:
            if not isinstance(self.block_frames, int):
                raise ConfigError(f"block_frames must be an int or 'batch', got {self.block_frames!r}")
            if self.block_frames < 2 * self.sub_block_len:
                raise ConfigError(
                    f"block_frames {self.block_frames} < 2 * sub_block_len "
                    f"({2 * self.sub_block_len}); the RTF estimator needs 2 sub-blocks"
                )
        if self.sub_block_len < 1:
            raise ConfigError(f"sub_block_len must be >= 1, got {self.sub_block_len}")
        if self.ref_channel < 0:
            raise ConfigError(f"ref_channel must be >= 0, got {self.ref_channel}")
        if not 0 <= self.t_mu <= 1:
            raise ConfigError(f"t_mu must be in [0, 1], got {self.t_mu}")
        if not np.isfinite(self.t_snr):
            raise ConfigError(f"t_snr must be finite, got {self.t_snr}")
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
    active_channels: list[int] = field(default_factory=list)
    passthrough: bool = False
    ref_fallback: bool = False
    rtf_fallback_bins: int = 0
    mvdr_fallback_bins: int = 0
    gev_degenerate_bins: int = 0
    gev_noise_loaded_bins: int = 0
    noise_loaded_bins: int = 0
    timings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "active_channels": list(self.active_channels),
            "passthrough": self.passthrough,
            "ref_fallback": self.ref_fallback,
            "fallbacks": {
                "rtf_variance_guard_bins": self.rtf_fallback_bins,
                "mvdr_fallback_bins": self.mvdr_fallback_bins,
                "gev_degenerate_bins": self.gev_degenerate_bins,
                "gev_noise_loaded_bins": self.gev_noise_loaded_bins,
                "noise_cov_loaded_bins": self.noise_loaded_bins,
            },
            "timings_s": {k: round(v, 6) for k, v in self.timings.items()},
        }


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


def _channels(signal: MultichannelSignal, channels: list[int]) -> MultichannelSignal:
    return MultichannelSignal(signal.samples[channels], signal.sample_rate)


def _check_stems(stems: OracleStems, signal: MultichannelSignal) -> None:
    """Clean and noise stems must match the signal's sample rate and channel
    count and cover its samples; only their first signal.n_samples samples
    are read."""
    for name, stem in (("clean", stems.clean), ("noise", stems.noise)):
        if stem.sample_rate != signal.sample_rate:
            raise ConfigError(f"{name} stem rate {stem.sample_rate} != mixture rate {signal.sample_rate}")
        if stem.channel_count != signal.channel_count or stem.n_samples < signal.n_samples:
            raise SizeError(f"{name} stem must cover every channel and sample of the mixture")


def _pooled_mask(bins, cfg, network, oracle, channels, timings):
    """(K, L) median pool of the VAD masks of the non-reference channels
    1..M-1 of the reference-first spectrogram bins. Those channels are the
    microphones `channels`, whose stems give the oracle masks.

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
        s_lo, s_hi = block_sample_range(part.start, part.stop - part.start, cfg.stft)
        with _stage_timer(timings, "oracle_stft"):
            clean, noise = (
                analyze(MultichannelSignal(stem.samples[channels, s_lo:s_hi], stem.sample_rate), cfg.stft)
                for stem in (oracle.clean, oracle.noise)
            )
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
    """Enhance one block with no state from other blocks.

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
    if cfg.ref_channel >= block.channel_count:
        raise ConfigError(
            f"ref_channel {cfg.ref_channel} out of range for {block.channel_count} channels"
        )
    diag = BlockDiagnostics()
    timings = diag.timings

    with _stage_timer(timings, "failure_detection"):
        if block.channel_count >= 2:
            active = [int(i) for i in np.flatnonzero(detect_failures(block) >= cfg.t_mu)]
        else:
            active = [0]
    diag.active_channels = active

    if len(active) < 2:
        diag.passthrough = True
        with _stage_timer(timings, "stft"):
            bins_ref = analyze(_channels(block, [cfg.ref_channel]), cfg.stft)
        return BlockResult(enhanced=bins_ref[:, :, 0], diagnostics=diag)

    if cfg.ref_channel in active:
        ref = cfg.ref_channel
    else:
        ref = active[0]
        diag.ref_fallback = True
    order = [ref] + [ch for ch in active if ch != ref]

    with _stage_timer(timings, "stft"):
        bins = analyze(_channels(block, order), cfg.stft)

    with _stage_timer(timings, "vad"):
        if cfg.vad_mode == "network" and network is None:
            raise ConfigError("network VAD mode needs loaded weights")
        if cfg.vad_mode == "oracle":
            if oracle is None:
                raise ConfigError("oracle VAD mode needs clean/noise stems")
            _check_stems(oracle, block)
        pooled = _pooled_mask(bins, cfg, network, oracle, order[1:], timings)
    # the `vad` stage ran the stem analysis, which is timed on its own
    timings["vad"] -= timings.get("oracle_stft", 0.0)

    inv_rtf = None
    if cfg.beamformer != "gev":
        with _stage_timer(timings, "rtf"):
            inv_rtf, guarded = build_rtf_set(bins, pooled, sub_block_len=cfg.sub_block_len)
            diag.rtf_fallback_bins = int(guarded.sum())

    if cfg.beamformer == "mvdr" or cfg.postfilter == "wiener":
        with _stage_timer(timings, "noise_est"):
            # the projection only: the postfilter folds w into it, so the
            # per-channel noise estimate is never formed
            noise_proj, noise_cov, diag.noise_loaded_bins = noise_projection(bins, inv_rtf)

    with _stage_timer(timings, "beamform"):
        if cfg.beamformer == "irtf":
            weights = irtf_weights(inv_rtf)
        elif cfg.beamformer == "mvdr":
            weights, diag.mvdr_fallback_bins = mvdr_weights(noise_cov, inv_rtf)
        else:
            weights, ban_gain, diag.gev_degenerate_bins, diag.gev_noise_loaded_bins = gev_weights(bins, pooled)
        beam_out = apply_weights(weights, bins)
        if cfg.postfilter == "ban":
            beam_out = beam_out * ban_gain[:, None]

    with _stage_timer(timings, "postfilter"):
        if cfg.postfilter == "wiener":
            residual = projected_residual(weights, bins, noise_proj)
            speech_mask = None if cfg.vad_mode == "none" else pooled
            gain = wiener_mask(beam_out, residual, speech_mask, cfg.stft.bin_frequencies())
            enhanced = beam_out * gain
        else:
            enhanced = beam_out

    if inv_rtf is not None:
        inv_rtf = inv_rtf[:, np.argsort(order)]
    return BlockResult(enhanced=enhanced, diagnostics=diag, pooled_mask=pooled, rtf=inv_rtf)


def partition_frames(n_samples: int, cfg: PipelineConfig) -> list[tuple[int, int]]:
    """(start_frame, frame_count) per block on the stream's STFT frame grid.

    Batch mode yields a single block covering every frame. A trailing partial
    block shorter than two sub-blocks is merged into the previous block;
    longer remainders stand alone.
    """
    total = frame_count(n_samples, cfg.stft)
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


def block_sample_range(start_frame: int, n_frames: int, stft_cfg: StftConfig) -> tuple[int, int]:
    """Sample interval covered by a run of STFT frames."""
    start = start_frame * stft_cfg.hop
    return start, start + stft_cfg.frame_len + (n_frames - 1) * stft_cfg.hop


def _slice_signal(signal: MultichannelSignal, lo: int, hi: int) -> MultichannelSignal:
    return MultichannelSignal(signal.samples[:, lo:hi], signal.sample_rate)


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
    trimmed.
    """
    if signal.sample_rate != cfg.stft.sample_rate:
        raise ConfigError(
            f"input rate {signal.sample_rate} != configured rate {cfg.stft.sample_rate}; "
            "resampling is out of scope"
        )
    if oracle is not None:
        _check_stems(oracle, signal)

    blocks = partition_frames(signal.n_samples, cfg)
    results = []
    for start_frame, n_frames in blocks:
        lo, hi = block_sample_range(start_frame, n_frames, cfg.stft)
        block_oracle = None
        if oracle is not None:
            block_oracle = OracleStems(
                clean=_slice_signal(oracle.clean, lo, hi),
                noise=_slice_signal(oracle.noise, lo, hi),
            )
        results.append(process_block(_slice_signal(signal, lo, hi), cfg, network, block_oracle))

    start = time.perf_counter()
    enhanced = np.concatenate([r.enhanced for r in results], axis=1)
    out = synthesize(enhanced[:, :, None], cfg.stft)
    elapsed = time.perf_counter() - start
    for (_, n_frames), result in zip(blocks, results):
        result.diagnostics.timings["synthesis"] = elapsed * n_frames / enhanced.shape[1]
    return out, results


def run(
    signal: MultichannelSignal,
    cfg: PipelineConfig,
    network: NetworkWeights | None = None,
    oracle: OracleStems | None = None,
) -> MultichannelSignal:
    """Enhance a whole recording; single-channel output."""
    enhanced, _ = run_with_diagnostics(signal, cfg, network, oracle)
    return enhanced


def frames_for_duration_ms(duration_ms: float, stft_cfg: StftConfig) -> int:
    """Block length in frames whose hop grid spans the given duration."""
    return max(1, round(duration_ms * stft_cfg.sample_rate / 1000.0 / stft_cfg.hop))
