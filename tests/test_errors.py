"""The one rule for numbers from outside: `errors.whole_number` for counts,
indices and rates, `errors.real_number` for real-valued settings. Every entry
point that takes such a number rejects a bad one with a ConfigError that names
the field, and stores the value that the rule returns."""

import inspect
import os
import re

import numpy as np
import pytest

import blockbeam
from blockbeam.audio_io import MultichannelSignal, write_wav
from blockbeam.errors import ConfigError
from blockbeam.evalsim import (
    MixtureSpec,
    decaying_firs,
    decompose,
    delay_firs,
    evaluate_blockwise,
    evaluate_estimate,
    speech_like_source,
)
from blockbeam.pipeline import PipelineConfig
from blockbeam.stft import frames_for_duration_ms

# a 64-sample estimate with its stems, for the evaluator's rows
SIGNAL = np.ones(64)

ENTRY_POINTS = {
    "PipelineConfig": lambda **kw: PipelineConfig(**kw),
    "MultichannelSignal": lambda **kw: MultichannelSignal(np.zeros((1, 4)), **kw),
    "MixtureSpec": lambda **kw: MixtureSpec(channel_count=2, firs=delay_firs([0, 1])[np.newaxis], **kw),
    "delay_firs": lambda **kw: delay_firs([0, 5], **kw),
    "decaying_firs": lambda **kw: decaying_firs([0, 5], np.random.default_rng(0), **kw),
    "speech_like_source": lambda **kw: speech_like_source(sample_rate=16000, rng=np.random.default_rng(0), **kw),
    "decompose": lambda **kw: decompose(SIGNAL, SIGNAL, SIGNAL[np.newaxis], **kw),
    "evaluate_estimate": lambda **kw: evaluate_estimate(SIGNAL, SIGNAL, SIGNAL[np.newaxis], **kw),
    "evaluate_blockwise": lambda **kw: evaluate_blockwise(SIGNAL, SIGNAL, SIGNAL[np.newaxis], **{"window": 64, **kw}),
    "frames_for_duration_ms": lambda **kw: frames_for_duration_ms(**kw),
    # a 1-channel float32 file; a rate the header holds is written to the null device
    "write_wav": lambda **kw: write_wav(MultichannelSignal(np.zeros((1, 4)), **kw), os.devnull),
}

WHOLE_FIELDS = [
    ("PipelineConfig", "block_frames"),
    ("PipelineConfig", "sub_block_len"),
    ("PipelineConfig", "ref_channel"),
    ("MultichannelSignal", "sample_rate"),
    ("delay_firs", "taps"),
    ("decaying_firs", "extra_taps"),
    ("decompose", "filter_len"),
    ("evaluate_estimate", "filter_len"),
    ("evaluate_blockwise", "filter_len"),
    ("evaluate_blockwise", "window"),
]
REAL_FIELDS = [
    ("PipelineConfig", "t_mu"),
    ("PipelineConfig", "t_snr"),
    ("MixtureSpec", "snr_db"),
    ("decaying_firs", "decay"),
    ("speech_like_source", "duration_s"),
]
# real fields whose NaN, infinity or non-positive value keeps its own
# "positive and finite" message; only a bool or a string gets the rule's
TYPE_ONLY_FIELDS = [
    ("frames_for_duration_ms", "duration_ms"),
]
# values below a field's minimum or outside its range
OUT_OF_RANGE = [
    ("PipelineConfig", "sub_block_len", 0),
    ("PipelineConfig", "ref_channel", -1),
    ("MultichannelSignal", "sample_rate", 0),
    ("delay_firs", "taps", 5),  # the largest delay is 5, so 6 taps at least
    ("decaying_firs", "extra_taps", -1),
    ("PipelineConfig", "t_mu", -0.1),
    ("PipelineConfig", "t_mu", 1.5),
    ("decaying_firs", "decay", -0.5),
    ("decaying_firs", "decay", 1.5),
    ("speech_like_source", "duration_s", -1.0),
    ("speech_like_source", "duration_s", 1e300),  # more samples than an index holds
    ("speech_like_source", "duration_s", 1e308),  # a sample count that overflows to inf
    ("decompose", "filter_len", 0),
    ("evaluate_blockwise", "window", 0),
    ("write_wav", "sample_rate", 2**32),  # beyond the header's 32-bit rate field
    ("write_wav", "sample_rate", 2**30),  # 4-byte frames: a byte rate of 2**32
]

ROWS = (
    [(entry, field, value) for entry, field in WHOLE_FIELDS for value in (True, "1", 1.5)]
    + [(entry, field, value) for entry, field in REAL_FIELDS for value in (np.nan, np.inf, -np.inf, True, "1")]
    + [(entry, field, value) for entry, field in TYPE_ONLY_FIELDS for value in (True, "1")]
    + OUT_OF_RANGE
)


@pytest.mark.parametrize(
    "entry,field,value", ROWS, ids=[f"{entry}-{field}-{value!r}" for entry, field, value in ROWS]
)
def test_bad_number_names_its_field(entry, field, value):
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)} must be"):
        ENTRY_POINTS[entry](**{field: value})


@pytest.mark.parametrize("value", [np.int64(100), 100.0], ids=["int64", "float"])
def test_whole_block_frames_stored_as_int(value):
    cfg = PipelineConfig(block_frames=value)
    assert type(cfg.block_frames) is int and cfg.block_frames == 100


def test_whole_evaluator_lengths_accept_numpy_ints():
    want = evaluate_blockwise(SIGNAL, SIGNAL, SIGNAL[np.newaxis], 64, 8)
    assert evaluate_blockwise(SIGNAL, SIGNAL, SIGNAL[np.newaxis], np.int64(64), np.int64(8)) == want
    assert evaluate_estimate(SIGNAL, SIGNAL, SIGNAL[np.newaxis], np.int64(8)) == want[0]


def test_star_import_binds_exactly_all():
    # __all__ is every name the package imports for its users, once each;
    # submodules and __version__ are not part of it
    namespace = {}
    exec("from blockbeam import *", namespace)  # a name that does not resolve raises here
    del namespace["__builtins__"]
    public = [name for name, value in vars(blockbeam).items() if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(blockbeam.__all__) == sorted(namespace) == sorted(public)
