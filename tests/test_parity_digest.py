import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import blockbeam
from blockbeam import stft
from blockbeam.pipeline import OracleStems, run
from blockbeam.vad import infer_mask

TOOL = Path(__file__).resolve().parents[1] / "tools" / "parity_digest.py"


def test_parity_digest_prints_one_digest_per_reachable_configuration():
    src = str(Path(blockbeam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "0"], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    # 100 frames and batch x (irtf, mvdr) x (none, wiener) x 3 VAD modes, and
    # gev x (none, ban) x the 2 VAD modes that give it masks
    fields = [line.split() for line in out]
    assert len({tuple(f[:3]) for f in fields}) == len(out) == 32
    assert not any(pairing.startswith("gev") and vad == "none" for _, pairing, vad, _, _ in fields)
    # the fourth field digests the enhanced samples, the fifth their report
    assert all(re.fullmatch(r"[0-9a-f]{64}", f[3]) and re.fullmatch(r"[0-9a-f]{64}", f[4]) for f in fields)
    assert len({f[4] for f in fields}) == 32


def test_parity_digest_is_independent_of_the_cpu_count():
    # with one BLAS thread per call, run_with_diagnostics enhances blocks on
    # one thread per usable CPU: one CPU and two give the same 32 lines
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("needs 2 usable CPUs")
    src = str(Path(blockbeam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    outputs = []
    for pinned in (cpus[:1], cpus[:2]):
        outputs.append(
            subprocess.run(
                [sys.executable, str(TOOL), "--seed", "0"],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                preexec_fn=lambda pinned=pinned: os.sched_setaffinity(0, pinned),
            ).stdout.splitlines()
        )
    assert len(outputs[0]) == 32
    assert outputs[0] == outputs[1]


def test_parity_batch_network_configurations_split_the_vad_pass(monkeypatch):
    # at 2 block threads the tool's 3.2 s batch block (397 frames: chunks of
    # 384, 384, 384 and 39 columns) cuts each 384-column pass in two, so the
    # CPU-count test above compares split and whole forward passes
    spec = importlib.util.spec_from_file_location("parity_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    sim = tool.mixture(np.random.default_rng([0, 0]))
    net = tool.network(np.random.default_rng([0, 1]))
    batch = [cfg for cfg in tool.configurations() if cfg.is_batch and cfg.vad_mode == "network"]
    assert len(batch) == 6
    for cfg in batch:
        with mock.patch("blockbeam.pipeline.infer_mask", wraps=infer_mask) as spy:
            run(sim.mixture, cfg, network=net)
        assert [call.args[1].shape[1] for call in spy.call_args_list] == [192] * 6 + [39], cfg


def test_parity_batch_configurations_fan_out_their_analysis(monkeypatch):
    # at 2 block threads every batch configuration of the tool runs its
    # 397-frame mixture analysis (4 frame chunks) and its synthesis on both
    # threads, so the CPU-count test above compares fanned-out and serial
    # chunk loops; its 100-frame configurations fan out none
    spec = importlib.util.spec_from_file_location("parity_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    sim = tool.mixture(np.random.default_rng([0, 0]))
    net = tool.network(np.random.default_rng([0, 1]))
    oracle = OracleStems(clean=sim.clean, noise=sim.noise)
    in_order = stft._in_order
    for cfg in tool.configurations():
        loops = []

        def spy(work, items):
            loops.append((sys._getframe(1).f_code.co_name, len(items), min(stft._THREADS.get(), len(items))))
            return in_order(work, items)

        with mock.patch.object(stft, "_in_order", spy):
            run(sim.mixture, cfg, network=net, oracle=oracle)
        fanned = sorted({loop for loop in loops if loop[2] > 1})
        assert fanned == ([("analyze", 4, 2), ("synthesize", 4, 2)] if cfg.is_batch else []), cfg
