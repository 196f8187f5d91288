"""Command-line front end: enhance, simulate, evaluate, sweep.

Exit codes: 0 success, 2 configuration error (including an input too short
for the configured block or stems shorter than the estimate), 3 I/O or data
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import evalsim
from .audio_io import MultichannelSignal, load_network, read_wav, write_wav
from .channel_health import T_MU_SIMULATED
from .errors import BlockbeamError, ConfigError, DataError, FormatError, SizeError
from .pipeline import (
    BEAMFORMERS,
    OracleStems,
    PipelineConfig,
    POSTFILTERS,
    VAD_MODES,
    frames_for_duration_ms,
    run_with_diagnostics,
)
from .rtf import SUB_BLOCK_LEN_DEFAULT, dump_rtf_csv
from .stft import StftConfig
from .vad import T_SNR_DEFAULT, dump_mask_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _positive_int(text: str) -> int:
    """argparse type for counts and 1-based indices: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _block_frames(block_ms: str, stft_cfg: StftConfig):
    if block_ms == "batch":
        return "batch"
    try:
        ms = float(block_ms)
    except ValueError:
        raise ConfigError(f"--block-ms must be a millisecond count or 'batch', got {block_ms!r}")
    if not 0 < ms < np.inf:
        raise ConfigError(f"--block-ms must be positive and finite, got {ms}")
    return frames_for_duration_ms(ms, stft_cfg)


def _pipeline_config(args, stft_cfg: StftConfig, block_ms: str, beamformer: str, postfilter: str) -> PipelineConfig:
    """Settings of one run: the options enhance and sweep share, plus the
    block length, beamformer and post-filter, which sweep varies."""
    return PipelineConfig(
        block_frames=_block_frames(block_ms, stft_cfg),
        beamformer=beamformer,
        postfilter=postfilter,
        vad_mode=args.vad,
        ref_channel=args.ref_channel - 1,
        t_mu=args.t_mu,
        t_snr=args.t_snr,
        sub_block_len=args.sub_block_len,
        stft=stft_cfg,
        allow_any_pairing=getattr(args, "allow_any_pairing", False),
    )


def _load_oracle(args) -> OracleStems | None:
    if args.vad != "oracle":
        return None
    if not args.clean or not args.noise:
        raise ConfigError("oracle VAD mode requires --clean and --noise stems")
    return OracleStems(clean=read_wav(args.clean), noise=read_wav(args.noise))


def _load_vad_network(args):
    if args.vad != "network":
        return None
    if args.vad_weights is None:
        raise ConfigError("network VAD mode requires --vad-weights")
    return load_network(args.vad_weights)


def _cmd_enhance(args) -> int:
    stft_cfg = StftConfig()
    mixture = read_wav(args.input)
    cfg = _pipeline_config(args, stft_cfg, args.block_ms, args.beamformer, args.postfilter)
    network = _load_vad_network(args)
    oracle = _load_oracle(args)

    enhanced, results = run_with_diagnostics(mixture, cfg, network, oracle)
    write_wav(enhanced, args.output, encoding=args.encoding)

    if args.dump_diagnostics:
        payload = {
            "input": str(args.input),
            "output": str(args.output),
            "beamformer": cfg.beamformer,
            "postfilter": cfg.postfilter,
            "block_frames": cfg.block_frames,
            "blocks": [r.diagnostics.to_json_dict() for r in results],
        }
        Path(args.dump_diagnostics).write_text(json.dumps(payload, indent=2))
    if args.dump_mask:
        base = Path(args.dump_mask)
        for i, r in enumerate(results):
            if r.pooled_mask is not None:
                dump_mask_csv(r.pooled_mask, base.with_name(f"{base.stem}_{i:03d}{base.suffix}"))
    if args.dump_rtf:
        base = Path(args.dump_rtf)
        for i, r in enumerate(results):
            if r.rtf is not None:
                path = base.with_name(f"{base.stem}_{i:03d}{base.suffix}")
                dump_rtf_csv(r.rtf, r.diagnostics.active_channels, path)
    return EXIT_OK


def _mixture_spec_from_config(conf: dict, sample_rate: int, rng) -> evalsim.MixtureSpec:
    channels = int(conf.get("channels", 4))
    noise_conf = conf.get("noise", "white")
    if isinstance(noise_conf, dict):
        noise_kind, noise_path = "file", noise_conf.get("file")
    else:
        noise_kind, noise_path = str(noise_conf), None

    segments = conf.get("segments")
    if segments is None:
        segments = [{"start_s": 0.0, "delays": conf.get("delays", list(range(0, 2 * channels, 2)))}]
    decay_conf = conf.get("decay")
    firs = []
    starts = []
    for seg in segments:
        starts.append(int(round(float(seg.get("start_s", 0.0)) * sample_rate)))
        if "firs" in seg:
            firs.append(np.asarray(seg["firs"], dtype=np.float64))
        elif decay_conf:
            firs.append(
                evalsim.decaying_firs(
                    seg["delays"],
                    rng,
                    extra_taps=int(decay_conf.get("taps", 3)),
                    decay=float(decay_conf.get("factor", 0.5)),
                )
            )
        else:
            firs.append(evalsim.delay_firs(seg["delays"]))
    taps = max(f.shape[1] for f in firs)
    padded = np.zeros((len(firs), channels, taps))
    for i, f in enumerate(firs):
        if f.shape[0] != channels:
            raise ConfigError(f"segment {i} describes {f.shape[0]} channels, expected {channels}")
        padded[i, :, : f.shape[1]] = f
    return evalsim.MixtureSpec(
        channel_count=channels,
        firs=padded,
        segment_starts=np.asarray(starts),
        noise_kind=noise_kind,
        snr_db=float(conf.get("snr_db", evalsim.DEFAULT_SNR_DB)),
        noise_path=noise_path,
    )


def _cmd_simulate(args) -> int:
    try:
        conf = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{args.config}: invalid JSON ({exc})") from exc
    if not isinstance(conf, dict):
        raise ConfigError(f"{args.config}: expected a JSON object, got {type(conf).__name__}")
    try:
        sample_rate = int(conf.get("sample_rate", 16000))
        duration_s = float(conf.get("duration_s", 4.0))
        if not 0 < duration_s < np.inf:
            raise ConfigError(f"{args.config}: duration_s must be positive and finite, got {duration_s}")
        rng = np.random.default_rng(int(conf.get("seed", 0)))

        source_conf = conf.get("source", "modulated")
        if isinstance(source_conf, dict):
            # simulate rejects a source of more than one channel; the
            # configured rate labels the outputs, as for the built-in source
            dry = MultichannelSignal(read_wav(source_conf["file"]).samples, sample_rate)
            n_samples = dry.n_samples
        else:
            dry = evalsim.speech_like_source(duration_s, sample_rate, rng)
            n_samples = dry.shape[0]

        spec = _mixture_spec_from_config(conf, sample_rate, rng)
    except BlockbeamError:
        raise
    # a missing field or a value of the wrong JSON type surfaces as one of these
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{args.config}: malformed mixture description ({exc!r})") from exc
    if spec.noise_kind == "white":
        noise = evalsim.white_noise(spec.channel_count, n_samples, rng)
    elif spec.noise_kind == "pink":
        noise = evalsim.pink_noise(spec.channel_count, n_samples, rng)
    else:
        noise = read_wav(spec.noise_path).samples

    # true RTFs on the bin grid that enhance analyses with
    n_fft = StftConfig().frame_len
    sim = evalsim.simulate(spec, dry, noise, sample_rate=sample_rate, n_fft=n_fft)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_wav(sim.mixture, out_dir / "mixture.wav")
    write_wav(sim.clean, out_dir / "clean.wav")
    write_wav(sim.noise, out_dir / "noise.wav")
    rtf_payload = {
        "sample_rate": sample_rate,
        "n_fft": n_fft,
        "segments": [
            {
                "start_sample": seg.start_sample,
                "rtf_real": seg.rtf.real.tolist(),
                "rtf_imag": seg.rtf.imag.tolist(),
                "inv_rtf_real": seg.inv_rtf.real.tolist(),
                "inv_rtf_imag": seg.inv_rtf.imag.tolist(),
            }
            for seg in sim.true_rtf
        ],
    }
    (out_dir / "rtf.json").write_text(json.dumps(rtf_payload))
    print(f"wrote mixture/clean/noise/rtf to {out_dir}")
    return EXIT_OK


def _evaluate_files(estimate_path, clean_path, noise_path, ref_channel: int, filter_len: int):
    estimate = read_wav(estimate_path)
    if estimate.channel_count != 1:
        raise ConfigError(f"estimate must be single-channel, got {estimate.channel_count}")
    clean = read_wav(clean_path)
    noise = read_wav(noise_path)
    if ref_channel >= clean.channel_count:
        raise ConfigError(f"--ref-channel {ref_channel + 1} exceeds clean stem channels")
    return evalsim.evaluate_estimate(
        estimate.samples[0], clean.samples[ref_channel], noise.samples, filter_len
    )


def _cmd_evaluate(args) -> int:
    report = _evaluate_files(
        args.estimate, args.clean, args.noise, args.ref_channel - 1, args.filter_len
    )
    payload = {
        "sir_db": report.sir_db,
        "sdr_db": report.sdr_db,
        "sar_db": report.sar_db,
        "capped": report.capped,
        "filter_len": args.filter_len,
    }
    text = json.dumps(payload, indent=2)
    if args.json:
        Path(args.json).write_text(text)
    print(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if not args.clean or not args.noise:
        raise ConfigError("sweep scores every run against known stems: it requires --clean and --noise")
    stft_cfg = StftConfig()
    mixture = read_wav(args.input)
    clean = read_wav(args.clean)
    noise = read_wav(args.noise)
    oracle = OracleStems(clean=clean, noise=noise) if args.vad == "oracle" else None
    network = _load_vad_network(args)

    # every configuration is checked before the first one runs
    grid = []
    for beamformer in args.beamformer.split(","):
        postfilter = args.postfilter
        if postfilter == "auto":
            postfilter = "ban" if beamformer == "gev" else "wiener"
        for block_ms in args.block_ms.split(","):
            grid.append((block_ms, _pipeline_config(args, stft_cfg, block_ms, beamformer, postfilter)))

    rows = []
    for block_ms, cfg in grid:
        enhanced, _ = run_with_diagnostics(mixture, cfg, network, oracle)
        report = evalsim.evaluate_estimate(
            enhanced.samples[0],
            clean.samples[args.ref_channel - 1],
            noise.samples,
            args.filter_len,
        )
        rows.append(
            {
                "beamformer": cfg.beamformer,
                "block_ms": block_ms,
                "postfilter": cfg.postfilter,
                "sir_db": f"{report.sir_db:.3f}",
                "sdr_db": f"{report.sdr_db:.3f}",
                "sar_db": f"{report.sar_db:.3f}",
            }
        )
        print(
            f"{cfg.beamformer:>5s} block={block_ms:>6s} "
            f"SIR={report.sir_db:7.2f} SDR={report.sdr_db:7.2f} SAR={report.sar_db:7.2f}"
        )
    with open(args.csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return EXIT_OK


def _add_enhance_options(p: argparse.ArgumentParser):
    p.add_argument("--block-ms", default="800", help="block length in ms, or 'batch'")
    p.add_argument("--vad", choices=VAD_MODES, default="none")
    p.add_argument("--vad-weights", default=None, help="weight file for --vad network")
    p.add_argument("--ref-channel", type=_positive_int, default=1, help="1-based reference channel")
    p.add_argument("--t-mu", type=float, default=T_MU_SIMULATED, help="mic-failure correlation threshold")
    p.add_argument("--t-snr", type=float, default=T_SNR_DEFAULT, help="oracle mask SNR threshold in dB")
    p.add_argument("--sub-block-len", type=int, default=SUB_BLOCK_LEN_DEFAULT, help="RTF sub-block length in frames")
    p.add_argument("--clean", default=None, help="clean stems for --vad oracle")
    p.add_argument("--noise", default=None, help="noise stems for --vad oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blockbeam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enh = sub.add_parser("enhance", help="enhance a multichannel WAV recording")
    enh.add_argument("--input", required=True)
    enh.add_argument("--output", required=True)
    enh.add_argument("--beamformer", choices=BEAMFORMERS, default="irtf")
    _add_enhance_options(enh)
    enh.add_argument("--postfilter", choices=POSTFILTERS, default="none")
    enh.add_argument("--allow-any-pairing", action="store_true")
    enh.add_argument("--encoding", choices=("pcm16", "float32"), default="float32")
    enh.add_argument("--dump-diagnostics", default=None, help="write per-block diagnostics JSON")
    enh.add_argument("--dump-mask", default=None, help="write per-block pooled masks as CSV")
    enh.add_argument("--dump-rtf", default=None, help="write per-block inverse RTFs as CSV")
    enh.set_defaults(func=_cmd_enhance)

    sim = sub.add_parser("simulate", help="synthesize a mixture with known stems")
    sim.add_argument("--config", required=True, help="JSON mixture description")
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=_cmd_simulate)

    ev = sub.add_parser("evaluate", help="score an estimate against known stems")
    ev.add_argument("--estimate", required=True)
    ev.add_argument("--clean", required=True)
    ev.add_argument("--noise", required=True)
    ev.add_argument("--filter-len", type=_positive_int, default=32)
    ev.add_argument("--ref-channel", type=_positive_int, default=1, help="1-based reference channel")
    ev.add_argument("--json", default=None, help="also write the report to this path")
    ev.set_defaults(func=_cmd_evaluate)

    sw = sub.add_parser("sweep", help="metrics across block lengths and beamformers")
    sw.add_argument("--input", required=True)
    sw.add_argument("--beamformer", default="irtf,mvdr,gev", help="comma-separated list")
    _add_enhance_options(sw)
    sw.add_argument("--postfilter", choices=POSTFILTERS + ("auto",), default="auto")
    sw.add_argument("--filter-len", type=_positive_int, default=32)
    sw.add_argument("--csv", required=True)
    sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, FormatError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
