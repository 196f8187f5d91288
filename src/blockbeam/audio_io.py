"""Multichannel WAV input/output and VAD network weight files.

`scipy.io.wavfile` is imported by `read_wav` and `write_wav` when they run,
so importing the package does not load scipy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, SizeError, UnsupportedEncodingError

# Symmetric 16 bit convention: sample value v maps to v / 32768.
PCM16_SCALE = 32768.0

ACTIVATIONS = ("relu", "sigmoid")


@dataclass
class MultichannelSignal:
    """Time-domain audio, shape (channels, samples), nominal range [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 2:
            raise SizeError(f"expected (channels, samples) matrix, got ndim={self.samples.ndim}")
        if self.channel_count == 0:
            raise SizeError("a signal needs at least one channel")
        if int(self.sample_rate) <= 0:
            raise DataError(f"sample_rate must be positive, got {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)

    @property
    def channel_count(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate


def read_wav(path) -> MultichannelSignal:
    """Read a RIFF/WAVE file holding 16 bit PCM or 32 bit float samples.

    16 bit samples are scaled by 1/32768; float samples pass through unchanged.
    Raises FormatError for broken containers and UnsupportedEncodingError for
    any other sample encoding.
    """
    from scipy.io import wavfile  # see the module docstring

    try:
        rate, data = wavfile.read(path)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / PCM16_SCALE
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise UnsupportedEncodingError(
            f"{path}: unsupported sample encoding {data.dtype}, expected int16 or float32"
        )
    if samples.ndim == 1:
        samples = samples[np.newaxis, :]
    else:
        samples = samples.T
    return MultichannelSignal(samples, int(rate))


def write_wav(signal: MultichannelSignal, path, encoding: str = "float32") -> None:
    """Write a signal as 16 bit PCM or 32 bit float WAV.

    pcm16 clips to [-1, 1 - 1/32768] before quantization, so 2.0 stores as
    32767 and -1.0 as -32768. float32 output round-trips bit-exactly through
    read_wav.
    """
    from scipy.io import wavfile  # see the module docstring

    if not np.all(np.isfinite(signal.samples)):
        raise DataError("cannot write non-finite samples")
    if encoding == "pcm16":
        clipped = np.clip(signal.samples, -1.0, 1.0 - 1.0 / PCM16_SCALE)
        data = np.round(clipped * PCM16_SCALE).astype(np.int16)
    elif encoding == "float32":
        data = signal.samples.astype(np.float32)
    else:
        raise UnsupportedEncodingError(f"unsupported encoding {encoding!r}")
    out = data[0] if signal.channel_count == 1 else data.T
    wavfile.write(path, signal.sample_rate, out)


@dataclass
class NetworkLayer:
    """One fully-connected layer, stored in float32: the precision in which
    `vad.infer_mask` runs the forward pass."""

    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)
    activation: str  # "relu" | "sigmoid"

    def __post_init__(self):
        # values beyond float32 become inf; load_network rejects them
        with np.errstate(over="ignore"):
            self.weights = np.ascontiguousarray(self.weights, dtype=np.float32)
            self.bias = np.asarray(self.bias, dtype=np.float32)


@dataclass
class NetworkWeights:
    """Fully-connected VAD network: layers plus global input normalization."""

    layers: list[NetworkLayer]
    input_mean: np.ndarray
    input_std: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]


def _array(obj, what: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what}: not a numeric array") from exc
    if arr.ndim != ndim:
        raise FormatError(f"{what}: expected {ndim}-dimensional array, got shape {arr.shape}")
    return arr


def load_network(path) -> NetworkWeights:
    """Load network weights from the JSON weight-file format.

    Expected schema:
        {"layers": [{"w": [[...]], "b": [...], "act": "relu"|"sigmoid"}, ...],
         "mean": [...], "std": [...]}

    Validates the layer dimension chain and the normalization vectors. Every
    mean/std entry must be finite, and every weight and bias finite after the
    cast to float32 (so 1e39, which overflows float32, is rejected too);
    Python's json reads the tokens NaN and Infinity, so this is not implied.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc

    try:
        raw_layers = raw["layers"]
        raw_mean = raw["mean"]
        raw_std = raw["std"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: missing field {exc}") from exc
    if not raw_layers:
        raise FormatError(f"{path}: empty layer list")

    layers = []
    for idx, entry in enumerate(raw_layers):
        try:
            w = _array(entry["w"], f"layer {idx} weights", ndim=2)
            b = _array(entry["b"], f"layer {idx} bias", ndim=1)
            act = entry["act"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{path}: layer {idx} missing field {exc}") from exc
        if act not in ACTIVATIONS:
            raise FormatError(f"{path}: layer {idx} unknown activation {act!r}")
        if b.shape[0] != w.shape[0]:
            raise FormatError(
                f"{path}: layer {idx} bias length {b.shape[0]} != weight rows {w.shape[0]}"
            )
        if layers and w.shape[1] != layers[-1].weights.shape[0]:
            raise FormatError(
                f"{path}: layer {idx} input dim {w.shape[1]} breaks the chain "
                f"(previous output dim {layers[-1].weights.shape[0]})"
            )
        layer = NetworkLayer(w, b, act)
        if not (np.all(np.isfinite(layer.weights)) and np.all(np.isfinite(layer.bias))):
            raise FormatError(f"{path}: layer {idx} has non-finite weights or bias in float32")
        layers.append(layer)

    mean = _array(raw_mean, "mean", ndim=1)
    std = _array(raw_std, "std", ndim=1)
    in_dim = layers[0].weights.shape[1]
    if mean.shape[0] != in_dim or std.shape[0] != in_dim:
        raise FormatError(
            f"{path}: normalization length ({mean.shape[0]}, {std.shape[0]}) != input dim {in_dim}"
        )
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
        raise FormatError(f"{path}: input mean and std must be finite")
    if np.any(std <= 0):
        raise FormatError(f"{path}: input std must be elementwise positive")
    return NetworkWeights(layers, mean, std)
