import os
import re
import subprocess
import sys
from pathlib import Path

import blockbeam

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
    assert not any(pairing.startswith("gev") and vad == "none" for _, pairing, vad, _ in fields)
    assert all(re.fullmatch(r"[0-9a-f]{64}", f[3]) for f in fields)
