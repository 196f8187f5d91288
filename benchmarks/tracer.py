"""Span tracing of blockbeam from outside the library.

`Tracer.install()` replaces functions in the blockbeam module namespaces with
timing wrappers and `uninstall()` puts the originals back. Nothing in the
library is edited. What gets wrapped:

- every function that one blockbeam module binds from another (the stage
  calls `pipeline` makes, `postfilter` calling `beamform.apply_weights`, ...),
  so every call across a module boundary opens a span;
- the entry points the benchmark calls (`run`, `run_with_diagnostics`,
  `simulate`, `decompose`, `evaluate_estimate`, `read_wav`, `write_wav`,
  `load_network`);
- the LAPACK-backed numpy/scipy entry points, which are counted, not timed.

Only names that exist are wrapped, and a span belongs to the module that
defines the wrapped function (`fn.__module__`), so a stage that is removed or
renamed changes nothing but its own count. Spans are kept in memory and
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter

LAYERS = (
    "audio_io",
    "stft",
    "channel_health",
    "vad",
    "rtf",
    "beamform",
    "postfilter",
    "pipeline",
    "evalsim",
)

ENTRY_POINTS = {
    "pipeline": ("run", "run_with_diagnostics"),
    "evalsim": ("simulate", "decompose", "evaluate_estimate"),
    "audio_io": ("read_wav", "write_wav", "load_network"),
}

LAPACK_ENTRY_POINTS = {
    "numpy.linalg": ("eigh", "eigvalsh", "pinv", "inv", "lstsq"),
    "scipy.linalg": ("eigh", "eigvalsh", "pinv", "inv", "lstsq"),
}


def network_flop(net, channel_bins) -> int:
    """Floating-point operations of one dense forward pass, from the shapes:
    2 * in * out per layer and per frame (multiply-adds, bias and activation
    not counted)."""
    frames = math.prod(channel_bins.shape[1:])
    per_frame = sum(2 * layer.weights.shape[0] * layer.weights.shape[1] for layer in net.layers)
    return per_frame * frames


class Tracer:
    """Records spans [name, layer, start, end, parent index, request id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.decompositions: Counter = Counter()
        self.vad_flop = 0
        self.request = None
        self._stack: list[int] = []
        self._lapack_depth = 0
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ wrappers

    def _span(self, fn, name: str):
        layer = fn.__module__.rsplit(".", 1)[-1]
        spans, stack = self.spans, self._stack
        count_flop = name == "infer_mask"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            if count_flop and len(args) >= 2:
                self.vad_flop += network_flop(args[0], args[1])
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # count only the outermost call: pinv may call eigh internally
            if self._lapack_depth == 0:
                layer = self.spans[self._stack[-1]][1] if self._stack else None
                self.decompositions[layer] += 1
            self._lapack_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._lapack_depth -= 1

        return wrapper

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> "Tracer":
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"blockbeam.{layer}")
            except ImportError:
                continue
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("blockbeam.")
                    and obj.__module__ != module.__name__
                ):
                    self._patch(module, attr, self._span(obj, attr))
        for layer, names in ENTRY_POINTS.items():
            module = modules.get(layer)
            for attr in names:
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn):
                    self._patch(module, attr, self._span(fn, attr))
        for module_name, names in LAPACK_ENTRY_POINTS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                fn = getattr(module, attr, None)
                if callable(fn):
                    self._patch(module, attr, self._counted(fn))
        return self

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------ results

    def summary(self) -> dict:
        """Per-layer call counts and self times, and the traced end-to-end
        time (the summed duration of root spans). Self time is a span's
        duration minus that of its direct children, so the self times of
        all layers add up to the end-to-end time."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = Counter()
        e2e_s = 0.0
        for idx, (name, layer, start, end, parent, _) in enumerate(self.spans):
            calls[layer] += 1
            self_s[layer] += (end - start) - child_time[idx]
            if parent < 0:
                e2e_s += end - start
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "e2e_s": e2e_s,
            "decompositions": {str(k): v for k, v in self.decompositions.items()},
            "vad_flop": self.vad_flop,
        }

    def write_jsonl(self, path, phase: str) -> None:
        with open(path, "a") as fh:
            for idx, (name, layer, start, end, parent, request) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "phase": phase,
                            "id": idx,
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
