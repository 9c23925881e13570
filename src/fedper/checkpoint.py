"""File output: atomic writes, and weight checkpoint IO as a JSON manifest
(layer shapes + split index) next to a flat little-endian float64 blob,
weights then bias per layer in order."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeError
from .nn import Layers, weights_blob

MANIFEST_SUFFIX = ".json"
BLOB_SUFFIX = ".bin"


def atomic_write(path: Path, data: str | bytes) -> None:
    """Write via a temporary file in the same directory and os.replace, so
    that a crash leaves either the old file or the new one, never a torn one.
    The temporary name is unique per process; the new file gets the usual
    umask-derived permissions."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_weights(prefix: str | Path, weights: Layers, split_index: int) -> tuple[Path, Path]:
    """Write <prefix>.json and <prefix>.bin; returns the two paths.

    split_index is the number of base layers among the layers stored here
    (len(weights) for a base-only file, 0 for a personal-only file).
    """
    prefix = Path(prefix)
    if not 0 <= split_index <= len(weights):
        raise ShapeError(f"split index {split_index} out of range for {len(weights)} layers")
    manifest = {
        "dtype": "<f8",
        "layer_shapes": [[int(w.shape[0]), int(w.shape[1])] for w, _ in weights],
        "split_index": int(split_index),
    }
    manifest_path = Path(str(prefix) + MANIFEST_SUFFIX)
    blob_path = Path(str(prefix) + BLOB_SUFFIX)
    atomic_write(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    atomic_write(blob_path, weights_blob(weights))
    return manifest_path, blob_path


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_weights(prefix: str | Path) -> tuple[Layers, int]:
    """Inverse of save_weights; round-trips bit-exactly."""
    prefix = Path(prefix)
    manifest_path = Path(str(prefix) + MANIFEST_SUFFIX)
    blob_path = Path(str(prefix) + BLOB_SUFFIX)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{manifest_path}: invalid manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("dtype") != "<f8":
        raise ParseError(f"{manifest_path}: manifest must be an object with dtype '<f8'")
    shapes = manifest.get("layer_shapes")
    split_index = manifest.get("split_index")
    if not (
        isinstance(shapes, list)
        and all(isinstance(s, list) and len(s) == 2 and all(map(_is_count, s)) for s in shapes)
        and _is_count(split_index)
    ):
        raise ParseError(
            f"{manifest_path}: manifest needs integer layer_shapes [[out, in], ...] and split_index"
        )

    raw = np.frombuffer(blob_path.read_bytes(), dtype="<f8")
    expected = sum(o * i + o for o, i in shapes)
    if raw.size != expected:
        raise ParseError(f"{blob_path}: blob holds {raw.size} floats, manifest implies {expected}")
    layers = []
    pos = 0
    for out_dim, in_dim in shapes:
        w = raw[pos : pos + out_dim * in_dim].reshape(out_dim, in_dim).copy()
        pos += out_dim * in_dim
        b = raw[pos : pos + out_dim].copy()
        pos += out_dim
        layers.append((w, b))
    return layers, split_index
