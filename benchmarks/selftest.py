"""Self-test of the benchmark's output checks: a real output passes, and
deliberately corrupted outputs are counted as failed.

    python3 benchmarks/selftest.py

Exits 0 when every case is counted as expected, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

import numpy as np

import worker  # puts this checkout's library on the import path
from blockbeam import pipeline
from checks import Tally, mixture_problem, output_problem, repeat_problem


def main() -> int:
    sim = worker.static_mixture(np.random.default_rng([0, 99]), 1.0, reverberant=False)
    cfg = pipeline.PipelineConfig(beamformer="mvdr", postfilter="wiener", vad_mode="oracle")
    oracle = pipeline.OracleStems(clean=sim.clean, noise=sim.noise)
    first = pipeline.run(sim.mixture, cfg, oracle=oracle).samples
    again = pipeline.run(sim.mixture, cfg, oracle=oracle).samples
    n, frame_len, hop = sim.mixture.n_samples, worker.STFT.frame_len, worker.STFT.hop

    def output_check(samples):
        return output_problem(samples, n, frame_len, hop)

    non_finite = first.copy()
    non_finite[0, 100] = np.nan
    one_ulp = first.copy()
    one_ulp[0, 7] = np.nextafter(one_ulp[0, 7], np.inf)
    broken_sim = copy.deepcopy(sim)
    broken_sim.noise.samples[2, 50] += 1e-9

    cases = [
        ("real output, repeated", (output_check(again), repeat_problem(first, again)), False),
        ("real simulated mixture", (mixture_problem(sim),), False),
        ("non-finite sample", (output_check(non_finite),), True),
        ("one sample short of the frame grid", (output_check(first[:, :-1]),), True),
        ("two-channel output", (output_check(np.vstack([first, first])),), True),
        ("one sample off by one ulp on repeat", (output_check(one_ulp), repeat_problem(first, one_ulp)), True),
        ("mixture != clean + noise", (mixture_problem(broken_sim),), True),
    ]
    tally = Tally()
    wrong = 0
    for label, problems, should_fail in cases:
        failed = not tally.record(label, *problems)
        ok = failed == should_fail
        wrong += not ok
        found = "; ".join(p for p in problems if p) or "no problem"
        print(f"{'PASS' if ok else 'FAIL'} {label}: counted {'failed' if failed else 'ok'} ({found})")
    expected_failed = sum(should_fail for *_, should_fail in cases)
    print(f"tally: {tally.failed} failed of {tally.attempted} attempted, expected {expected_failed} failed")
    wrong += tally.failed != expected_failed

    # The same through a workload's own loop: one sweep mixture whose
    # enhancement is corrupted, or raises, fails every pairing row.
    original = pipeline.run_with_diagnostics

    def corrupted(*args, **kwargs):
        out, results = original(*args, **kwargs)
        out.samples[0, 100] = np.nan
        return out, results

    def raising(*args, **kwargs):
        raise RuntimeError("deliberate failure")

    for label, replacement in (("corrupted enhancement", corrupted), ("raising enhancement", raising)):
        tally = Tally()
        pipeline.run_with_diagnostics = replacement
        try:
            worker.Workload(0, 0, 1, tally, None).sweep_unit(0)
        finally:
            pipeline.run_with_diagnostics = original
        ok = tally.failed == len(worker.PAIRINGS)
        wrong += not ok
        print(f"{'PASS' if ok else 'FAIL'} sweep loop, {label}: {tally.failed} of {tally.attempted} failed")
        for note in tally.notes:
            print(f"    {note}")
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
