"""Output checks. Each returns a description of the problem, or None.

An operation counts as failed when it raises, or when any check on its output
finds a problem; `Tally` keeps attempted and failed counts.
"""

from __future__ import annotations

import numpy as np


def expected_output_length(n_input: int, frame_len: int, hop: int) -> int:
    """Samples spanned by the full STFT frames of an input of n_input samples."""
    frames = (n_input - frame_len) // hop + 1
    return frame_len + (frames - 1) * hop


def output_problem(samples, n_input: int, frame_len: int, hop: int) -> str | None:
    """A single-channel output, finite, exactly on the input's STFT frame grid."""
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[0] != 1:
        return f"output shape {samples.shape} is not (1, samples)"
    expected = expected_output_length(n_input, frame_len, hop)
    if samples.shape[1] != expected:
        return f"output has {samples.shape[1]} samples, frame grid gives {expected}"
    if not np.all(np.isfinite(samples)):
        return f"output has {int(np.count_nonzero(~np.isfinite(samples)))} non-finite samples"
    return None


def repeat_problem(first, again) -> str | None:
    """A repeat of the same input and configuration must be bit-identical."""
    if not np.array_equal(np.asarray(first), np.asarray(again)):
        return "repeat of the same input and configuration is not bit-identical"
    return None


def mixture_problem(sim) -> str | None:
    """A simulated mixture must equal clean + noise sample for sample."""
    if not np.array_equal(sim.mixture.samples, sim.clean.samples + sim.noise.samples):
        return "simulated mixture != clean + noise"
    return None


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    MAX_NOTES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, label: str, *problems: str | None) -> bool:
        """Count one operation; it fails if any problem is given. Returns ok."""
        self.attempted += 1
        found = [p for p in problems if p]
        if found:
            self.failed += 1
            if len(self.notes) < self.MAX_NOTES:
                self.notes.append(f"{label}: {'; '.join(found)}")
        return not found

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "notes": self.notes}
