"""One benchmark worker: set up one workload, measure it, check its outputs.

run.py starts several of these one after another. A worker prints the line
"ready" when its set-up (import, input simulation, file loading, warm-up) is
done, then measures for its time budget and prints one JSON object with its
raw measurements as its last line. With --trace 1 every round runs both
untraced and traced by the span tracer.

The timed work calls only the library's stable entry points: `run`,
`run_with_diagnostics`, `simulate`, `evaluate_estimate`, `load_network`,
`read_wav` and `write_wav`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import blockbeam  # noqa: E402
from blockbeam import audio_io, evalsim, pipeline  # noqa: E402
from blockbeam.audio_io import MultichannelSignal  # noqa: E402
from blockbeam.stft import StftConfig  # noqa: E402

from checks import Tally, mixture_problem, output_problem, repeat_problem  # noqa: E402
from tracer import Tracer  # noqa: E402

if Path(blockbeam.__file__).resolve().parent != (ROOT / "src" / "blockbeam").resolve():
    raise SystemExit(f"blockbeam imported from {blockbeam.__file__}, not from this checkout")

FS = 16000
STFT = StftConfig()
BLOCK_FRAMES = 100
BLOCK_ADVANCE = BLOCK_FRAMES * STFT.hop  # 12800 samples = 0.8 s
BLOCK_SAMPLES = STFT.frame_len + (BLOCK_FRAMES - 1) * STFT.hop  # 13184 samples
PAIRINGS = (("irtf", "wiener"), ("mvdr", "wiener"), ("gev", "ban"))
SNR_DB = 5.0

STREAM_BLOCKS = 16  # coprime with the 3 pairings: every block meets every pairing
VAD_DIMS = (257, 1024, 1024, 257)
VAD_TRAINING_BLOCKS = 6
OFFLINE_SECONDS = 30.0
SWEEP_SECONDS = 3.2
QUALITY_UNITS = 6  # sweep mixtures in the quality panel every workload reports

# Sub-stream tags for np.random.default_rng([seed, tag, ...]).
TAG_STREAM, TAG_VAD, TAG_OFFLINE, TAG_SWEEP, TAG_WARMUP = 1, 2, 3, 4, 5


# ---------------------------------------------------------------- inputs


def moving_mixture(rng, n_blocks: int):
    """4-channel pink-noise mixture whose source jumps to a new position at
    every block boundary of the 100-frame grid."""
    n = n_blocks * BLOCK_ADVANCE + (BLOCK_SAMPLES - BLOCK_ADVANCE)
    dry = evalsim.speech_like_source(n / FS, FS, rng)[:n]
    delays = [[0, *rng.choice(np.arange(1, 13), size=3, replace=False)] for _ in range(n_blocks)]
    firs = np.stack([evalsim.delay_firs(d, taps=13) for d in delays])
    spec = evalsim.MixtureSpec(
        channel_count=4,
        firs=firs,
        segment_starts=np.arange(n_blocks) * BLOCK_ADVANCE,
        noise_kind="pink",
        snr_db=SNR_DB,
    )
    return evalsim.simulate(spec, dry, evalsim.pink_noise(4, n, rng), sample_rate=FS)


def static_mixture(rng, seconds: float, reverberant: bool):
    """Static 4-channel source in pink noise, anechoic or with decaying taps."""
    dry = evalsim.speech_like_source(seconds, FS, rng)
    if reverberant:
        firs = evalsim.decaying_firs([0, 2, 5, 7], rng, extra_taps=8, decay=0.7)
    else:
        firs = evalsim.delay_firs([0, 2, 5, 7])
    spec = evalsim.MixtureSpec(channel_count=4, firs=firs[np.newaxis], noise_kind="pink", snr_db=SNR_DB)
    return evalsim.simulate(spec, dry, evalsim.pink_noise(4, dry.shape[0], rng), sample_rate=FS)


def _magnitudes(samples: np.ndarray) -> np.ndarray:
    """|STFT| per channel and frame, rows (channel, frame), columns bins: the
    same frame grid and periodic Hamming window as the library's analysis."""
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(STFT.frame_len) / STFT.frame_len)
    n_frames = (samples.shape[1] - STFT.frame_len) // STFT.hop + 1
    idx = np.arange(n_frames)[:, None] * STFT.hop + np.arange(STFT.frame_len)
    return np.abs(np.fft.rfft(samples[:, idx] * window, axis=-1)).reshape(-1, STFT.n_bins)


def vad_network(rng) -> dict:
    """Weight-file document of a 257-1024-1024-257 VAD network.

    The two hidden layers have seeded random weights. The output layer is a
    ridge-regression fit, on a separate seeded training mixture, from the
    hidden features to the oracle binary mask, so the masks carry speech
    information and the enhancement quality on `stream` means something.
    """
    weights = [
        np.round(rng.standard_normal((n_out, n_in)) * np.sqrt(2.0 / n_in), 4)
        for n_in, n_out in zip(VAD_DIMS[:-1], VAD_DIMS[1:])
    ]
    training = moving_mixture(rng, VAD_TRAINING_BLOCKS)
    mags = _magnitudes(training.mixture.samples)
    speech = _magnitudes(training.clean.samples) ** 2
    noise = _magnitudes(training.noise.samples) ** 2
    target = np.where((speech > noise * 10.0 ** (5.0 / 10.0)) & (speech > 0), 3.0, -3.0)

    mean = mags.mean(axis=0)
    std = mags.std(axis=0) + 1e-3
    hidden = (mags - mean) / std
    for w in weights[:2]:
        hidden = np.maximum(hidden @ w.T, 0.0)
    design = np.hstack([hidden, np.ones((hidden.shape[0], 1))])
    gram = design.T @ design
    gram += 1e-2 * np.trace(gram) / gram.shape[0] * np.eye(gram.shape[0])
    solution = np.linalg.solve(gram, design.T @ target)
    weights[2] = np.round(solution[:-1].T, 4)
    biases = [np.zeros(VAD_DIMS[1]), np.zeros(VAD_DIMS[2]), solution[-1]]
    return {
        "layers": [
            {"w": w.tolist(), "b": b.tolist(), "act": act}
            for w, b, act in zip(weights, biases, ("relu", "relu", "sigmoid"))
        ],
        "mean": mean.tolist(),
        "std": std.tolist(),
    }


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _gains(report, base) -> tuple[float, float] | None:
    if report.capped or base.capped:
        return None
    return report.sir_db - base.sir_db, report.sdr_db - base.sdr_db


# ---------------------------------------------------------------- workloads


class Workload:
    """Set-up, one measured round, post-run checks and quality scoring.

    A round returns {"audio_s", "op_s", "rows", "enhance", "diagnostics"}:
    input audio it enhanced, wall time of every entry-point call, completed
    rows, [configuration, wall s, audio s, 100-frame blocks] per enhancement
    call (0 blocks for batch mode) and [pairing, wall s, [BlockDiagnostics
    dicts]] per run_with_diagnostics call.
    """

    min_rounds = 1

    def __init__(self, seed: int, index: int, workers: int, tally: Tally, scratch: Path, quality: bool = False):
        self.seed = seed
        self.index = index
        self.workers = workers
        self.quality_wanted = quality
        self.tally = tally
        self.scratch = scratch
        self.tracer: Tracer | None = None
        self.panel = self.configs("oracle")

    def request(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.request = label

    @staticmethod
    def configs(vad_mode: str, block_frames=BLOCK_FRAMES):
        return [
            pipeline.PipelineConfig(
                block_frames=block_frames, beamformer=bf, postfilter=pf, vad_mode=vad_mode
            )
            for bf, pf in PAIRINGS
        ]

    def post_checks(self) -> list:
        return []

    def sweep_unit(self, u: int) -> dict:
        """Simulate sweep mixture u, score the unprocessed reference channel,
        enhance it with every pairing and score each output. Returns a round
        whose "quality" holds the (SIR gain, SDR gain) rows and "outputs" the
        enhanced samples."""
        label = f"unit-{u}"
        done = {"audio_s": 0.0, "op_s": 0.0, "rows": 0, "enhance": [], "diagnostics": []}
        done.update(quality=[], outputs=[], sim=None)
        self.request(label)
        try:
            start = time.perf_counter()
            sim = static_mixture(np.random.default_rng([self.seed, TAG_SWEEP, u]), SWEEP_SECONDS, False)
            if not self.tally.record(f"{label} simulate", mixture_problem(sim)):
                return done
            clean, noise = sim.clean.samples, sim.noise.samples
            base = evalsim.evaluate_estimate(sim.mixture.samples[0], clean[0], noise)
            done["op_s"] += time.perf_counter() - start
        except Exception as exc:  # counted as a failed operation
            self.tally.record(label, _raised(exc))
            return done
        done["sim"] = sim
        oracle = pipeline.OracleStems(clean=sim.clean, noise=sim.noise)
        for p, cfg in enumerate(self.panel):
            row = f"{label} pairing-{p}"
            self.request(row)
            try:
                start = time.perf_counter()
                out, results = pipeline.run_with_diagnostics(sim.mixture, cfg, oracle=oracle)
                wall = time.perf_counter() - start
                n = out.n_samples
                report = evalsim.evaluate_estimate(out.samples[0], clean[0, :n], noise[:, :n])
                done["op_s"] += time.perf_counter() - start
            except Exception as exc:  # counted as a failed operation
                self.tally.record(row, _raised(exc))
                continue
            gains = _gains(report, base)
            ok = self.tally.record(
                row,
                output_problem(out.samples, sim.mixture.n_samples, STFT.frame_len, STFT.hop),
                None if gains else "metric capped at the sentinel",
            )
            if ok:
                done["quality"].append(gains)
            done["audio_s"] += SWEEP_SECONDS
            done["rows"] += 1
            done["enhance"].append([p, wall, SWEEP_SECONDS, len(results)])
            done["diagnostics"].append([p, wall, [r.diagnostics.to_json_dict() for r in results]])
            done["outputs"].append(out.samples)
        return done

    def quality(self) -> list:
        """(SIR gain, SDR gain) rows of the quality panel: the first
        QUALITY_UNITS sweep mixtures, scored after the measured rounds."""
        return [row for u in range(QUALITY_UNITS) for row in self.sweep_unit(u)["quality"]]


class Stream(Workload):
    """Closed loop, one client: consecutive 0.8 s blocks, one run() each."""

    def setup(self):
        self.sim = moving_mixture(np.random.default_rng([self.seed, TAG_STREAM]), STREAM_BLOCKS)
        self.tally.record("simulate stream mixture", mixture_problem(self.sim))
        weights_path = self.scratch / "vad.json"
        weights_path.write_text(json.dumps(vad_network(np.random.default_rng([self.seed, TAG_VAD]))))
        self.net = audio_io.load_network(weights_path)
        self.cfgs = self.configs("network")
        self.blocks = [
            MultichannelSignal(self.sim.mixture.samples[:, lo : lo + BLOCK_SAMPLES], FS)
            for lo in range(0, STREAM_BLOCKS * BLOCK_ADVANCE, BLOCK_ADVANCE)
        ]
        self.outputs = {}
        for cfg in self.cfgs:
            pipeline.run(self.blocks[0], cfg, self.net)

    def _enhance(self, b: int, p: int, label: str):
        """run() on block b with pairing p; checks the output. Returns the
        samples and the wall time, or (None, 0) when it raised."""
        self.request(label)
        start = time.perf_counter()
        try:
            out = pipeline.run(self.blocks[b], self.cfgs[p], self.net)
        except Exception as exc:  # counted as a failed operation
            self.tally.record(label, _raised(exc))
            return None, 0.0
        wall = time.perf_counter() - start
        self._check(b, p, label, out.samples)
        return out.samples, wall

    def _check(self, b: int, p: int, label: str, samples) -> None:
        problems = [output_problem(samples, BLOCK_SAMPLES, STFT.frame_len, STFT.hop)]
        first = self.outputs.setdefault((b, p), samples)
        if first is not samples:
            problems.append(repeat_problem(first, samples))
        self.tally.record(label, *problems)

    def round(self, i: int) -> dict:
        """Blocks 3i, 3i + 1, 3i + 2 of the cycle, one per pairing."""
        done = {"audio_s": 0.0, "op_s": 0.0, "rows": 0, "enhance": [], "diagnostics": []}
        for j in range(len(PAIRINGS) * i, len(PAIRINGS) * (i + 1)):
            p = j % len(PAIRINGS)
            samples, wall = self._enhance(j % STREAM_BLOCKS, p, f"block-{j}")
            if samples is None:
                continue
            done["audio_s"] += BLOCK_ADVANCE / FS
            done["op_s"] += wall
            done["rows"] += 1
            done["enhance"].append([p, wall, BLOCK_ADVANCE / FS, 1])
        return done

    def post_checks(self) -> list:
        """Repeat block p under pairing p with run() and run_with_diagnostics():
        both must give the bits of the first run. The diagnostics feed the
        fallback ratios."""
        records = []
        for p, cfg in enumerate(self.cfgs):
            self._enhance(p, p, f"repeat block-{p}")
            label = f"diagnostics block-{p}"
            start = time.perf_counter()
            try:
                out, results = pipeline.run_with_diagnostics(self.blocks[p], cfg, self.net)
            except Exception as exc:  # counted as a failed operation
                self.tally.record(label, _raised(exc))
                continue
            wall = time.perf_counter() - start
            self._check(p, p, label, out.samples)
            records.append([p, wall, [r.diagnostics.to_json_dict() for r in results]])
        return records


class Offline(Workload):
    """Whole-recording enhancement of a ~30 s static reverberant mixture with
    every pairing at 100-frame blocks and in batch mode, one configuration
    per round."""

    min_rounds = 2

    def setup(self):
        sim = static_mixture(np.random.default_rng([self.seed, TAG_OFFLINE]), OFFLINE_SECONDS, reverberant=True)
        self.tally.record("simulate offline mixture", mixture_problem(sim))
        stems = {}
        for name in ("mixture", "clean", "noise"):
            path = self.scratch / f"{name}.wav"
            audio_io.write_wav(getattr(sim, name), path)
            stems[name] = audio_io.read_wav(path)
        self.mixture = stems["mixture"]
        self.oracle = pipeline.OracleStems(clean=stems["clean"], noise=stems["noise"])
        self.cfgs = self.configs("oracle") + self.configs("oracle", "batch")
        self.outputs = {}
        n = 4 * BLOCK_ADVANCE
        excerpt = MultichannelSignal(self.mixture.samples[:, :n], FS)
        excerpt_oracle = pipeline.OracleStems(
            clean=MultichannelSignal(self.oracle.clean.samples[:, :n], FS),
            noise=MultichannelSignal(self.oracle.noise.samples[:, :n], FS),
        )
        for cfg in self.cfgs:
            pipeline.run_with_diagnostics(excerpt, cfg, oracle=excerpt_oracle)
        # one full-length batch pass, so that the measured passes reuse memory
        # the process already holds instead of faulting in fresh pages
        pipeline.run_with_diagnostics(self.mixture, self.cfgs[-1], oracle=self.oracle)

    def _enhance(self, c: int, label: str):
        """run_with_diagnostics() with configuration c; checks the output.
        Returns (wall s, block results), or None when it raised."""
        self.request(label)
        start = time.perf_counter()
        try:
            out, results = pipeline.run_with_diagnostics(self.mixture, self.cfgs[c], oracle=self.oracle)
        except Exception as exc:  # counted as a failed operation
            self.tally.record(label, _raised(exc))
            return None
        wall = time.perf_counter() - start
        problems = [output_problem(out.samples, self.mixture.n_samples, STFT.frame_len, STFT.hop)]
        first = self.outputs.setdefault(c, out.samples)
        if first is not out.samples:
            problems.append(repeat_problem(first, out.samples))
        self.tally.record(label, *problems)
        return wall, results

    def round(self, i: int) -> dict:
        """One whole-recording pass. Worker k starts at configuration 2k, so
        that the workers' first two passes cover every configuration."""
        c = (2 * self.index + i) % len(self.cfgs)
        done = {"audio_s": 0.0, "op_s": 0.0, "rows": 0, "enhance": [], "diagnostics": []}
        enhanced = self._enhance(c, f"pass-{i} config-{c}")
        if enhanced is not None:
            wall, results = enhanced
            cfg = self.cfgs[c]
            done["audio_s"] = self.mixture.duration
            done["op_s"] = wall
            done["rows"] = 1
            done["enhance"].append([c, wall, self.mixture.duration, 0 if cfg.is_batch else len(results)])
            done["diagnostics"].append([c % len(PAIRINGS), wall, [r.diagnostics.to_json_dict() for r in results]])
        return done

    def post_checks(self) -> list:
        """Repeat this worker's first configuration: the bits must repeat."""
        self._enhance((2 * self.index) % len(self.cfgs), "repeat")
        return []


class Sweep(Workload):
    """Research evaluation: per seeded 3.2 s static mixture, score the
    unprocessed reference channel, then enhance with each pairing and score
    each output. Worker k takes mixtures k, k + workers, ...; together the
    workers cover at least the QUALITY_UNITS mixtures of the quality panel,
    whose rows are part of the measured work here."""

    def setup(self):
        if self.quality_wanted:
            self.min_rounds = -(-(QUALITY_UNITS - self.index) // self.workers)
        self.outputs = {}
        self.quality_rows = []
        warm = static_mixture(np.random.default_rng([self.seed, TAG_WARMUP]), SWEEP_SECONDS, reverberant=False)
        oracle = pipeline.OracleStems(clean=warm.clean, noise=warm.noise)
        for cfg in self.panel:
            out = pipeline.run(warm.mixture, cfg, oracle=oracle)
        evalsim.evaluate_estimate(out.samples[0], warm.clean.samples[0, : out.n_samples], warm.noise.samples[:, : out.n_samples])

    def round(self, i: int) -> dict:
        """Mixture index + i * workers; a repeated mixture (traced runs
        measure each round twice) must give the bits of its first run."""
        u = self.index + i * self.workers
        done = self.sweep_unit(u)
        if u in self.outputs:
            for p, (first, again) in enumerate(zip(self.outputs[u][1], done["outputs"])):
                self.tally.record(f"unit-{u} pairing-{p} repeat", repeat_problem(first, again))
        else:
            # the mixture is kept for the post-run repeat of the first one only
            self.outputs[u] = (done["sim"] if u == self.index else None, done["outputs"])
            if u < QUALITY_UNITS:
                self.quality_rows += done["quality"]
        for key in ("quality", "outputs", "sim"):
            del done[key]
        return done

    def post_checks(self) -> list:
        """Enhance this worker's first mixture again: the bits must repeat."""
        sim, outputs = self.outputs.get(self.index, (None, []))
        if sim is None:
            return []
        oracle = pipeline.OracleStems(clean=sim.clean, noise=sim.noise)
        for p, (cfg, first) in enumerate(zip(self.panel, outputs)):
            label = f"repeat pairing-{p}"
            try:
                out = pipeline.run(sim.mixture, cfg, oracle=oracle)
            except Exception as exc:  # counted as a failed operation
                self.tally.record(label, _raised(exc))
                continue
            self.tally.record(label, repeat_problem(first, out.samples))
        return []

    def quality(self) -> list:
        return self.quality_rows


WORKLOADS = {"stream": Stream, "offline": Offline, "sweep": Sweep}


# ---------------------------------------------------------------- measuring


def measure(workload: Workload, budget_s: float, tracer: Tracer | None = None) -> dict:
    """Run rounds 0, 1, ... while the time left covers a mean round, at
    least workload.min_rounds (and two when tracing, one of each order).

    With a tracer, every round runs untraced and traced on the same inputs,
    in alternating order, so that the two sets see the same work and machine
    state.
    """
    rounds = {"untraced": [], "traced": []}
    start = time.perf_counter()
    i = 0
    while True:
        order = (False,) if tracer is None else (False, True) if i % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                workload.tracer = tracer
                with tracer:
                    rounds["traced"].append(workload.round(i))
                workload.tracer = None
            else:
                rounds["untraced"].append(workload.round(i))
        i += 1
        elapsed = time.perf_counter() - start
        if i >= max(workload.min_rounds, 1 if tracer is None else 2) and elapsed * (i + 1) / i > budget_s:
            break
    return {"elapsed_s": elapsed, **rounds}


def fallback_sums(records, n_bins: int) -> dict:
    """[numerator, denominator] per fallback ratio and for the untimed share,
    summed over run_with_diagnostics calls."""
    sums = {k: [0, 0] for k in ("rtf_guard", "mvdr_fallback", "gev_degenerate", "noise_loaded")}
    untimed = [0.0, 0.0]
    for p, wall, blocks in records:
        beamformer, postfilter = PAIRINGS[p]
        untimed[0] += sum(sum(b["timings_s"].values()) for b in blocks)
        untimed[1] += wall
        for b in blocks:
            if b["passthrough"]:
                continue
            fb = b["fallbacks"]
            if "rtf" in b["timings_s"]:
                sums["rtf_guard"][0] += fb["rtf_variance_guard_bins"]
                sums["rtf_guard"][1] += n_bins * (len(b["active_channels"]) - 1)
            if beamformer == "mvdr":
                sums["mvdr_fallback"][0] += fb["mvdr_fallback_bins"]
                sums["mvdr_fallback"][1] += n_bins
            if beamformer == "gev":
                sums["gev_degenerate"][0] += fb["gev_degenerate_bins"]
                sums["gev_degenerate"][1] += n_bins
            if beamformer == "mvdr" or postfilter == "wiener":
                sums["noise_loaded"][0] += fb["noise_cov_loaded_bins"]
                sums["noise_loaded"][1] += n_bins
    sums["untimed"] = untimed
    return sums


def blas_info() -> dict:
    """BLAS name, version and thread count as numpy reports them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    info = {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown"), "threads": None}
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blockbeam": blockbeam.__version__,
        "blas": blas_info(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0, help="worker index")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--quality", type=int, choices=(0, 1), default=0, help="score outputs")
    args = parser.parse_args()

    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, args.index, args.workers, tally, scratch, bool(args.quality))
    span_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-worker{args.index}.jsonl"
    try:
        setup_tracer = Tracer() if args.trace else None
        if setup_tracer is not None:
            span_path.unlink(missing_ok=True)
            workload.tracer = setup_tracer
            setup_tracer.request = "setup"
            with setup_tracer:
                workload.setup()
        else:
            workload.setup()
        print("ready", flush=True)

        tracer = Tracer() if args.trace else None
        result = {"env": environment(), "measure": measure(workload, args.budget, tracer), "trace": None}
        if tracer is not None:
            result["trace"] = {
                "summary": tracer.summary(),
                "setup_self_s": setup_tracer.summary()["self_s"],
                "spans_file": str(span_path.relative_to(ROOT)),
            }
            setup_tracer.write_jsonl(span_path, "setup")
            tracer.write_jsonl(span_path, "measure")
        # diagnostics timings are read from untraced rounds only
        records = [r for rnd in result["measure"]["untraced"] for r in rnd["diagnostics"]]
        for rnd in result["measure"]["untraced"] + result["measure"]["traced"]:
            del rnd["diagnostics"]
        # high-water mark of set-up and measured rounds, not of the checks after them
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records += workload.post_checks()
        result["fallbacks"] = fallback_sums(records, STFT.n_bins)
        result["quality"] = workload.quality() if workload.quality_wanted else []
        result["checks"] = tally.as_dict()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
