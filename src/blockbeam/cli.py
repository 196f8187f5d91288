"""Command-line front end: enhance, simulate, evaluate, sweep.

Exit codes: 0 success, 2 configuration error (including an input too short
for the configured block, an estimate shorter than the projection filter or
stems shorter than the estimate), 3 I/O or data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import evalsim
from .audio_io import load_network, read_wav, write_wav
from .channel_health import T_MU_SIMULATED
from .errors import BlockbeamError, ConfigError, DataError, FormatError, SizeError, real_number, whole_number
from .pipeline import (
    BEAMFORMERS,
    OracleStems,
    PipelineConfig,
    POSTFILTERS,
    VAD_MODES,
    check_stems,
    run_with_diagnostics,
)
from .rtf import SUB_BLOCK_LEN_DEFAULT
from .stft import FRAME_LEN, SAMPLE_RATE, check_rate, frames_for_duration_ms
from .vad import T_SNR_DEFAULT

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


def _block_frames(block_ms: str):
    if block_ms == "batch":
        return "batch"
    try:
        ms = float(block_ms)
    except ValueError:
        raise ConfigError(f"--block-ms must be a millisecond count or 'batch', got {block_ms!r}")
    return frames_for_duration_ms(ms)


def _pipeline_config(args, block_ms: str, beamformer: str, postfilter: str) -> PipelineConfig:
    """Settings of one run: the options enhance and sweep share, plus the
    block length, beamformer and post-filter, which sweep varies."""
    return PipelineConfig(
        block_frames=_block_frames(block_ms),
        beamformer=beamformer,
        postfilter=postfilter,
        vad_mode=args.vad,
        ref_channel=args.ref_channel - 1,
        t_mu=args.t_mu,
        t_snr=args.t_snr,
        sub_block_len=args.sub_block_len,
    )


def _read_stems(args, user: str) -> OracleStems:
    """The --clean and --noise stems, which `user` cannot do without."""
    if not args.clean or not args.noise:
        raise ConfigError(f"{user} requires --clean and --noise stems")
    return OracleStems(clean=read_wav(args.clean), noise=read_wav(args.noise))


def _load_vad_network(args):
    if args.vad != "network":
        return None
    if args.vad_weights is None:
        raise ConfigError("network VAD mode requires --vad-weights")
    return load_network(args.vad_weights)


def _cmd_enhance(args) -> int:
    mixture = read_wav(args.input)
    cfg = _pipeline_config(args, args.block_ms, args.beamformer, args.postfilter)
    network = _load_vad_network(args)
    oracle = _read_stems(args, "oracle VAD mode") if args.vad == "oracle" else None

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
    return EXIT_OK


def _builtin_or_file(conf: dict, name: str, builtins: tuple[str, ...], config_path) -> tuple[str, str | None]:
    """(kind, path) of the config entry `name`: one of the built-in kinds
    (the first is the default), or {"file": path} as ("file", path)."""
    value = conf.get(name, builtins[0])
    if isinstance(value, str) and value in builtins:
        return value, None
    if isinstance(value, dict) and isinstance(value.get("file"), str):
        return "file", value["file"]
    allowed = ", ".join(f'"{kind}"' for kind in builtins)
    raise ConfigError(f'{config_path}: "{name}" must be {allowed} or {{"file": path}}, got {value!r}')


def _mixture_spec_from_config(conf: dict, rng, noise_kind: str) -> evalsim.MixtureSpec:
    channels = whole_number(conf.get("channels", 4), "channels", minimum=1)
    segments = conf.get("segments")
    if segments is None:
        segments = [{"start_s": 0.0, "delays": conf.get("delays", list(range(0, 2 * channels, 2)))}]
    elif not segments:
        raise ConfigError(f"segments must list at least one segment, got {segments!r}")
    decay_conf = conf.get("decay")
    firs = []
    starts = []
    for i, seg in enumerate(segments):
        start_s = real_number(seg.get("start_s", 0.0), f"segments[{i}].start_s", low=0.0)
        starts.append(int(round(start_s * SAMPLE_RATE)))
        if "firs" in seg:
            firs.append(np.asarray(seg["firs"], dtype=np.float64))
        elif decay_conf:
            extra_taps = whole_number(decay_conf.get("taps", 3), "decay.taps")
            decay = real_number(decay_conf.get("factor", 0.5), "decay.factor", 0.0, 1.0)
            firs.append(evalsim.decaying_firs(seg["delays"], rng, extra_taps, decay))
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
        snr_db=conf.get("snr_db", evalsim.DEFAULT_SNR_DB),
    )


def _cmd_simulate(args) -> int:
    try:
        conf = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{args.config}: invalid JSON ({exc})") from exc
    if not isinstance(conf, dict):
        raise ConfigError(f"{args.config}: expected a JSON object, got {type(conf).__name__}")
    _, source_path = _builtin_or_file(conf, "source", ("modulated",), args.config)
    builtin_noises = tuple(kind for kind in evalsim.NOISE_KINDS if kind != "file")
    noise_kind, noise_path = _builtin_or_file(conf, "noise", builtin_noises, args.config)
    try:
        check_rate(whole_number(conf.get("sample_rate", SAMPLE_RATE), "sample_rate", minimum=1))
        rng = np.random.default_rng(whole_number(conf.get("seed", 0), "seed"))

        if source_path is not None:
            source = read_wav(source_path)
            if source.channel_count != 1:
                raise ConfigError(f"{source_path}: the source must be a 1-channel file, got {source.channel_count}")
            if source.sample_rate != SAMPLE_RATE:
                raise ConfigError(f"{source_path}: source rate {source.sample_rate} != sample_rate {SAMPLE_RATE}")
            dry = source.samples[0]
        else:
            dry = evalsim.speech_like_source(conf.get("duration_s", 4.0), SAMPLE_RATE, rng)
        n_samples = dry.shape[0]

        spec = _mixture_spec_from_config(conf, rng, noise_kind)
    except BlockbeamError:
        raise
    # a missing field or a value of the wrong JSON type surfaces as one of these
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{args.config}: malformed mixture description ({exc!r})") from exc
    if noise_kind == "white":
        noise = evalsim.white_noise(spec.channel_count, n_samples, rng)
    elif noise_kind == "pink":
        noise = evalsim.pink_noise(spec.channel_count, n_samples, rng)
    else:
        noise_file = read_wav(noise_path)
        if noise_file.sample_rate != SAMPLE_RATE:
            raise ConfigError(f"{noise_path}: noise rate {noise_file.sample_rate} != sample_rate {SAMPLE_RATE}")
        noise = noise_file.samples
    if n_samples < FRAME_LEN:  # after the noise, so that pink noise reports its 2-sample minimum first
        raise SizeError(f"{source_path or 'built-in source'}: {n_samples} samples, under one frame ({FRAME_LEN})")

    # true RTFs on the bin grid that enhance analyses with
    sim = evalsim.simulate(spec, dry, noise)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_wav(sim.mixture, out_dir / "mixture.wav")
    write_wav(sim.clean, out_dir / "clean.wav")
    write_wav(sim.noise, out_dir / "noise.wav")
    rtf_payload = {
        "sample_rate": SAMPLE_RATE,
        "n_fft": FRAME_LEN,
        "segments": [
            {
                "start_sample": int(start),
                "rtf_real": rtf.real.tolist(),
                "rtf_imag": rtf.imag.tolist(),
                "inv_rtf_real": inv_rtf.real.tolist(),
                "inv_rtf_imag": inv_rtf.imag.tolist(),
            }
            for start, rtf, inv_rtf in zip(spec.segment_starts, sim.true_rtf, 1.0 / sim.true_rtf)
        ],
    }
    (out_dir / "rtf.json").write_text(json.dumps(rtf_payload))
    print(f"wrote mixture/clean/noise/rtf to {out_dir}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    estimate = read_wav(args.estimate)
    if estimate.channel_count != 1:
        raise ConfigError(f"estimate must be single-channel, got {estimate.channel_count}")
    stems = _read_stems(args, "evaluate")
    for name, stem in (("clean", stems.clean), ("noise", stems.noise)):
        if stem.sample_rate != estimate.sample_rate:
            raise ConfigError(f"{name} stem rate {stem.sample_rate} != estimate rate {estimate.sample_rate}")
    if args.ref_channel > stems.clean.channel_count:
        raise ConfigError(f"--ref-channel {args.ref_channel} exceeds clean stem channels")
    report = evalsim.evaluate_estimate(
        estimate.samples[0], stems.clean.samples[args.ref_channel - 1], stems.noise.samples, args.filter_len
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
    stems = _read_stems(args, "sweep, which scores every run,")
    mixture = read_wav(args.input)
    # every run is scored against the stems, so they must fit the mixture in
    # every VAD mode; stems and configurations are checked before any run
    check_stems(stems, mixture)
    oracle = stems if args.vad == "oracle" else None
    network = _load_vad_network(args)

    grid = []
    for beamformer in args.beamformer.split(","):
        postfilter = args.postfilter
        if postfilter == "auto":
            postfilter = "ban" if beamformer == "gev" else "wiener"
        for block_ms in args.block_ms.split(","):
            grid.append((block_ms, _pipeline_config(args, block_ms, beamformer, postfilter)))

    rows = []
    for block_ms, cfg in grid:
        enhanced, _ = run_with_diagnostics(mixture, cfg, network, oracle)
        report = evalsim.evaluate_estimate(
            enhanced.samples[0],
            stems.clean.samples[args.ref_channel - 1],
            stems.noise.samples,
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
    enh.add_argument("--encoding", choices=("pcm16", "float32"), default="float32")
    enh.add_argument("--dump-diagnostics", default=None, help="write per-block diagnostics JSON")
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
