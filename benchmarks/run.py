"""blockbeam benchmark: one workload, measured end to end or traced per layer.

    python3 benchmarks/run.py --workload stream --seed 0 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 0

Workloads: `stream` (block-online, network VAD), `offline` (whole-recording
enhancement, 100-frame and batch blocks) and `sweep` (simulate, enhance and
score). With --trace 0 the result holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run; `all` runs every workload
both ways. The set-up and the measured time are split over several worker
processes started one after another (see worker.py), so every figure is a
median over processes as well as over repeats.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give the
environment record, every metric with its unit, the failed ratio and the
sample counts. The exit code is non-zero, and no result is printed, when a
worker cannot run (for instance when the library cannot be imported).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stream", "offline", "sweep")
DEADLINE_S = 170.0
WORKERS = 3  # worker processes per run, each sets up once and measures seconds / WORKERS
# Workers run single-threaded BLAS unless these are set: on a small shared
# machine a second BLAS thread mostly adds run-to-run spread.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    "setup_s",
    "realtime_factor",
    "block_latency_ms_p50",
    "block_latency_ms_p90",
    "rows_per_s",
    "sir_gain_db",
    "sdr_gain_db",
    "peak_rss_mb",
)

RATIOS = {
    "rtf.guard_ratio": "rtf_guard",
    "beamform.mvdr_fallback_ratio": "mvdr_fallback",
    "beamform.gev_degenerate_ratio": "gev_degenerate",
    "beamform.noise_loaded_ratio": "noise_loaded",
}


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, budget, trace, index, workers, quality, deadline) -> tuple[float, dict]:
    """Start one worker; return (seconds from start to "ready", its result)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--budget={budget}",
        f"--trace={trace}",
        f"--index={index}",
        f"--workers={workers}",
        f"--quality={int(quality)}",
    ]
    env = {**os.environ, **{k: os.environ.get(k, "1") for k in BLAS_THREAD_VARIABLES}}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{workload} worker {index} did not finish before the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or first.strip() != "ready" or not lines:
        raise WorkerError(f"{workload} worker {index} exited with code {proc.returncode}")
    return setup_s, json.loads(lines[-1])


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile, 0 <= q <= 1."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def realtime_factor(rounds) -> float | None:
    """Enhancement wall time per second of input audio: the median over the
    repeats of each configuration, averaged over the configurations."""
    by_config = {}
    for r in rounds:
        for config, wall, audio, _ in r["enhance"]:
            by_config.setdefault(config, []).append(wall / audio)
    if not by_config:
        return None
    return statistics.fmean(statistics.median(v) for v in by_config.values())


def block_latency(rounds) -> tuple[float | None, float | None, str]:
    """Median and p90 of the wall time per 100-frame block; a call holding
    several blocks gives one sample, its wall time over its blocks.

    With fewer than 100 samples no p90 leaves 10 samples beyond it. The
    median is then the mean of the per-configuration medians and the p90 the
    p90 over them, so that neither rests on one or two slow calls.
    """
    by_config = {}
    for r in rounds:
        for config, wall, _, blocks in r["enhance"]:
            if blocks:
                by_config.setdefault(config, []).append(1e3 * wall / blocks)
    pooled = [ms for samples in by_config.values() for ms in samples]
    if not pooled:
        return None, None, "no block latencies"
    if len(pooled) >= 100:
        p90 = quantile(pooled, 0.9)
        return quantile(pooled, 0.5), p90, f"{len(pooled)} block latencies, {sum(ms > p90 for ms in pooled)} beyond p90"
    medians = [statistics.median(v) for v in by_config.values()]
    return (
        statistics.fmean(medians),
        quantile(medians, 0.9),
        f"{len(pooled)} block latencies, summarised over {len(medians)} per-configuration medians",
    )


def end_to_end(setups, results) -> tuple[dict, list[str], bool]:
    rounds = [r for res in results for r in res["measure"]["untraced"]]
    quality = [row for res in results for row in res["quality"]]
    elapsed = sum(res["measure"]["elapsed_s"] for res in results)
    p50, p90, latency_note = block_latency(rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "realtime_factor": realtime_factor(rounds),
        "block_latency_ms_p50": p50,
        "block_latency_ms_p90": p90,
        "rows_per_s": sum(r["rows"] for r in rounds) / elapsed,
        "sir_gain_db": statistics.median(row[0] for row in quality) if quality else None,
        "sdr_gain_db": statistics.median(row[1] for row in quality) if quality else None,
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
    }
    notes = [
        f"samples: {len(rounds)} rounds, {latency_note}, {len(quality)} quality rows, {len(setups)} set-ups"
    ]
    return metrics, notes, True


def per_layer(results) -> tuple[dict, list[str], bool]:
    """Per-layer metrics of the traced rounds; ok is False when the layer
    self times do not add up to the traced end-to-end time."""
    traced_audio = untraced_audio = untraced_op = e2e = 0.0
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)  # also holds modules outside LAYERS, if any
    decompositions = {"beamform": 0, "evalsim": 0}
    vad_flop = 0
    setup_io_s = 0.0
    fallbacks = {}
    spans_files = []
    for res in results:
        trace = res["trace"]
        summary = trace["summary"]
        traced_audio += sum(r["audio_s"] for r in res["measure"]["traced"])
        untraced_audio += sum(r["audio_s"] for r in res["measure"]["untraced"])
        untraced_op += sum(r["op_s"] for r in res["measure"]["untraced"])
        e2e += summary["e2e_s"]
        for layer, count in summary["calls"].items():
            calls[layer] = calls.get(layer, 0) + count
            self_s[layer] = self_s.get(layer, 0.0) + summary["self_s"][layer]
        for layer in decompositions:
            decompositions[layer] += summary["decompositions"].get(layer, 0)
        vad_flop += summary["vad_flop"]
        setup_io_s += trace["setup_self_s"].get("audio_io", 0.0)
        for key, (num, den) in res["fallbacks"].items():
            total = fallbacks.setdefault(key, [0, 0])
            total[0] += num
            total[1] += den
        spans_files.append(trace["spans_file"])

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = ratio(calls[layer], traced_audio)
        metrics[f"{layer}.self_ms_per_s"] = ratio(1e3 * self_s[layer], traced_audio)
        metrics[f"{layer}.share"] = ratio(self_s[layer], e2e)
    for layer, count in decompositions.items():
        metrics[f"{layer}.decompositions"] = ratio(count, traced_audio)
    metrics["vad.gflop_computed"] = ratio(vad_flop / 1e9, traced_audio)
    metrics["vad.gflops"] = ratio(vad_flop / 1e9, self_s["vad"])
    timed, wall = fallbacks["untimed"]
    metrics["pipeline.untimed_share"] = 1.0 - ratio(timed, wall)
    for name, key in RATIOS.items():
        metrics[name] = ratio(*fallbacks[key])
    metrics["trace.e2e_ms_per_s"] = ratio(1e3 * e2e, traced_audio)
    metrics["trace.overhead_share"] = ratio(e2e, traced_audio) / ratio(untraced_op, untraced_audio) - 1.0
    metrics["audio_io.setup_ms"] = 1e3 * setup_io_s / len(results)

    layer_sum = ratio(1e3 * sum(self_s.values()), traced_audio)
    ok = math.isclose(layer_sum, metrics["trace.e2e_ms_per_s"], rel_tol=1e-9)
    notes = [
        f"layer self times sum to {layer_sum:.6g} ms/audio_s, traced end-to-end "
        f"{metrics['trace.e2e_ms_per_s']:.6g} ms/audio_s ({'consistent' if ok else 'INCONSISTENT'})",
        f"spans written to {', '.join(spans_files)}",
    ]
    notes += [
        f"module {layer} (not a listed layer): {calls[layer]} spans, {1e3 * self_s[layer]:.6g} ms self time"
        for layer in self_s
        if layer not in LAYERS
    ]
    return metrics, notes, ok


def declared_units() -> dict:
    """Metric name -> unit, for every metric BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in declared[key]}


def environment(env: dict, args) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        **env,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "workers": WORKERS,
    }


def run_one(workload: str, trace: int, args, deadline: float) -> dict:
    setups, results = [], []
    for index in range(WORKERS):
        quality = not trace and (workload == "sweep" or index == WORKERS - 1)
        setup_s, result = run_worker(
            workload, args.seed, args.seconds / WORKERS, trace, index, WORKERS, quality, deadline
        )
        setups.append(setup_s)
        results.append(result)
    metrics, notes, consistent = per_layer(results) if trace else end_to_end(setups, results)
    attempted = sum(res["checks"]["attempted"] for res in results)
    failed = sum(res["checks"]["failed"] for res in results)
    notes += [note for res in results for note in res["checks"]["notes"]]
    expected = [name for name in declared_units() if (name in END_TO_END) != bool(trace)]
    if sorted(metrics) != sorted(expected):
        notes.append(f"metrics {sorted(set(metrics) ^ set(expected))} differ from BENCHMARK.json")
        consistent = False
    correct = consistent and failed == 0 and all(v is not None and math.isfinite(v) for v in metrics.values())
    return {
        "workload": workload,
        "trace": trace,
        "env": environment(results[0]["env"], args),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: (v if v is not None and math.isfinite(v) else 0.0) for k, v in metrics.items()},
        "notes": notes,
    }


def report(run: dict, units: dict) -> None:
    head = f"[{run['workload']} trace={run['trace']}]"
    print(f"{head} env {json.dumps(run['env'], sort_keys=True)}")
    for name, value in run["metrics"].items():
        print(f"{head} {name} = {value:.6g} {units[name]}")
    print(f"{head} failed_ratio = {ratio(run['failed'], run['attempted']):.6g} ({run['failed']}/{run['attempted']})")
    for note in run["notes"]:
        print(f"{head} {note}")


def main() -> int:
    parser = argparse.ArgumentParser(description="blockbeam benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="also write every run as JSON to this file")
    args = parser.parse_args()
    # a terminated benchmark still stops its worker (see run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    units = declared_units()
    plan = [(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all" else [(args.workload, args.trace)]
    runs = []
    try:
        for workload, trace in plan:
            deadline = time.monotonic() + DEADLINE_S
            runs.append(run_one(workload, trace, args, deadline))
            report(runs[-1], units)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.record:
        Path(args.record).write_text(json.dumps(runs, indent=2))

    if len(runs) == 1:
        metrics = {name: {"value": value, "unit": units[name]} for name, value in runs[0]["metrics"].items()}
    else:
        metrics = {
            f"{run['workload']}.{name}": {"value": value, "unit": units[name]}
            for run in runs
            for name, value in run["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(run["correct"] for run in runs),
                "attempted": sum(run["attempted"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
