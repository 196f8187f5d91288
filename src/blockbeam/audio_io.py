"""Multichannel WAV input/output and VAD network weight files.

`read_wav` and `write_wav` are a numpy + `struct` codec for 16 bit PCM and
32 bit float samples in a RIFF/WAVE container, so no audio path loads scipy.
RIFX and RF64 are not read. `write_wav` writes `scipy.io.wavfile.write`'s
header, and refuses what RIFF's header fields cannot hold before the file is
created: frames over 65535 bytes, a byte rate or a file of 4 GiB or more.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FormatError, SizeError, UnsupportedEncodingError, whole_number

# Symmetric 16 bit convention: sample value v maps to v / 32768.
PCM16_SCALE = 32768.0

# (format code, bits per sample) -> sample dtype, for PCM (1) and IEEE float (3)
_SAMPLE_DTYPES = {(1, 16): np.dtype("<i2"), (3, 32): np.dtype("<f4")}
_WRITE_FORMATS = {"pcm16": (1, 16), "float32": (3, 32)}
_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"  # of an extensible sub-format

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
        self.sample_rate = whole_number(self.sample_rate, "sample_rate", minimum=1)

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
    Chunks other than `fmt ` and `data` are skipped. Raises FormatError for a
    broken container and UnsupportedEncodingError for another sample encoding.
    """
    with open(path, "rb") as fh:
        end, head = os.fstat(fh.fileno()).st_size, fh.read(12)
        if head[:4] != b"RIFF" or head[8:12] != b"WAVE":  # RIFX and RF64 too
            raise FormatError(f"{path}: not a RIFF/WAVE file (starts {head!r})")
        fmt = name = None
        while len(chunk := fh.read(8)) == 8:
            name, size = struct.unpack("<4sI", chunk)
            if fh.tell() + size > end:
                raise FormatError(f"{path}: {name!r} chunk of {size} bytes runs past the end of the file")
            if name == b"data":
                break
            next_chunk = fh.tell() + size + size % 2  # an odd-sized chunk is followed by a pad byte
            fmt = fh.read(size) if name == b"fmt " else fmt
            fh.seek(next_chunk)
        if name != b"data" or len(fmt or b"") < 16:
            raise FormatError(f"{path}: needs a fmt chunk of 16 bytes or more, then a data chunk")
        tag, channels, rate, _, align, bits = struct.unpack_from("<HHIIHH", fmt)
        if tag == 0xFFFE and fmt[26:40] == _GUID_TAIL:  # WAVE_FORMAT_EXTENSIBLE
            (tag,) = struct.unpack_from("<H", fmt, 24)
        dtype = _SAMPLE_DTYPES.get((tag, bits))
        if dtype is None:
            raise UnsupportedEncodingError(f"{path}: unsupported sample encoding: format {tag:#x}, {bits} bit")
        if channels == 0 or align != channels * dtype.itemsize:
            raise FormatError(f"{path}: block align {align} for {channels} channels of {dtype.itemsize} bytes")
        if size % align:
            raise FormatError(f"{path}: data chunk of {size} bytes is not a whole number of frames")
        data = np.frombuffer(fh.read(size), dtype).reshape(-1, channels).T
    samples = data / PCM16_SCALE if dtype.kind == "i" else data.astype(np.float64)
    return MultichannelSignal(samples, rate)


def write_wav(signal: MultichannelSignal, path, encoding: str = "float32") -> None:
    """Write a signal as 16 bit PCM or 32 bit float WAV.

    pcm16 clips to [-1, 1 - 1/32768] before quantization, so 2.0 stores as
    32767 and -1.0 as -32768. float32 output round-trips bit-exactly through
    read_wav.
    """
    if encoding not in _WRITE_FORMATS:
        raise UnsupportedEncodingError(f"unsupported encoding {encoding!r}")
    tag, bits = _WRITE_FORMATS[encoding]
    (channels, n), rate = signal.samples.shape, signal.sample_rate
    align = channels * bits // 8
    if align > 0xFFFF:
        raise SizeError(f"{channels} channels of {bits} bit samples exceed a WAV frame's 65535 bytes")
    if rate * align > 0xFFFFFFFF:
        raise ConfigError(f"sample_rate must be <= {0xFFFFFFFF // align} for {align}-byte WAV frames, got {rate}")
    # scipy's layout: float32 adds a cbSize of 0 to the 16-byte fmt, and a fact chunk
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits) + (b"" if tag == 1 else b"\0\0")
    header_len = 12 + 8 + len(fmt) + (0 if tag == 1 else 12) + 8  # RIFF, fmt, fact and data headers
    if header_len + n * align >= 2**32:
        raise SizeError(f"{n} frames of {align} bytes make a WAV file of 4 GiB or more")
    if not np.all(np.isfinite(signal.samples)):
        raise DataError("cannot write non-finite samples")
    samples = signal.samples
    if tag == 1:
        samples = np.round(np.clip(samples, -1.0, 1.0 - 1.0 / PCM16_SCALE) * PCM16_SCALE)
    data = np.ascontiguousarray(samples.T, dtype=_SAMPLE_DTYPES[tag, bits])  # interleaved frames
    fact = b"" if tag == 1 else struct.pack("<4sII", b"fact", 4, n)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI4s4sI", b"RIFF", header_len - 8 + data.nbytes, b"WAVE", b"fmt ", len(fmt)))
        fh.write(fmt + fact + struct.pack("<4sI", b"data", data.nbytes))
        fh.write(data)


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
    if not isinstance(raw_layers, list) or not raw_layers:
        raise FormatError(f"{path}: layers must be a non-empty list, got {type(raw_layers).__name__}")

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
