"""Versioned binary model checkpoints.

Layout (little-endian):
    magic "TFKM", u32 version=1,
    u32 config length, config JSON (utf-8, sorted keys),
    u32 tensor count, then per tensor sorted by name:
        u16 name length, name utf-8, u8 ndim, u32 dims..., float32 data.

Parameters are stored as float32; a model trained in float32 round-trips
bit-exactly. The loader checks the tensor set against the names and shapes
`param_layout` derives from the stored config.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .transformer import SequenceClassifier, TransformerConfig, config_kwargs

CHECKPOINT_MAGIC = b"TFKM"
CHECKPOINT_VERSION = 1


def save_checkpoint(path: str | Path, model: SequenceClassifier) -> None:
    config_blob = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<I", len(model.params)))
        for name in sorted(model.params):
            tensor = np.ascontiguousarray(model.params[name], dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            fh.write(tensor.tobytes())


def load_checkpoint(path: str | Path) -> SequenceClassifier:
    """Read a TFKM v1 file into a float32 model.

    Raises ValueError, naming the file and where applicable the tensor, for a
    bad magic or version, a truncated header or tensor, a tensor name that is
    not UTF-8, a config that is not valid JSON or not a valid
    `TransformerConfig`, a tensor that is missing from, extra to or
    mis-shaped against `param_layout(config)`, and trailing bytes.
    """
    path = Path(path)
    raw = path.read_bytes()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise ValueError(f"{path}: truncated {what} ({len(raw)} bytes, needs {pos + n})")
        pos += n
        return raw[pos - n : pos]

    magic = take(4, "header")
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a model checkpoint (bad magic {magic!r})")
    version, config_len = struct.unpack("<II", take(8, "header"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    blob = take(config_len, "config")
    try:
        config = TransformerConfig(**config_kwargs(TransformerConfig, json.loads(blob.decode("utf-8")), "model"))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: invalid model config: {exc}") from exc
    model = SequenceClassifier.zeros(config, np.float32)
    (count,) = struct.unpack("<I", take(4, "header"))
    missing = set(model.params)
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"tensor #{i} header"))
        try:
            name = take(name_len, f"tensor #{i} header").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: tensor #{i} name is not UTF-8: {exc}") from exc
        (ndim,) = struct.unpack("<B", take(1, f"tensor {name!r} header"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"tensor {name!r} header"))
        if name not in missing:
            kind = "duplicate" if name in model.params else "unexpected"
            raise ValueError(f"{path}: {kind} tensor {name!r}")
        expected = model.params[name].shape
        if shape != expected:
            raise ValueError(f"{path}: tensor {name!r} has shape {shape}, config needs {expected}")
        data = take(4 * math.prod(shape), f"tensor {name!r}")
        model.params[name][...] = np.frombuffer(data, dtype="<f4").reshape(shape)
        missing.discard(name)
    if missing:
        raise ValueError(f"{path}: missing tensors {sorted(missing)}")
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes after the last tensor")
    return model
