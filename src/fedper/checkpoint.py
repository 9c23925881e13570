"""File output: atomic writes, and weight checkpoint IO as a JSON manifest
(layer shapes, split index, client count if stacked) next to a flat
little-endian float64 blob, weights then bias (stacks) per layer in order."""

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


def write_json(path: Path, obj) -> None:
    """atomic_write of obj as JSON: keys sorted, indented by two, a final newline."""
    atomic_write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def save_weights(
    prefix: str | Path, weights: Layers, split_index: int, clients: int | None = None
) -> tuple[Path, Path]:
    """Write <prefix>.json and <prefix>.bin; returns the two paths.

    split_index is the number of base layers among the layers stored here
    (len(weights) for a base-only file, 0 for a personal-only file).  With
    clients=N, weights are (N, out, in)/(N, out) stacks, row j client j's,
    and the manifest records N, which a stack of no layers could not show.
    """
    prefix = Path(prefix)
    if not 0 <= split_index <= len(weights):
        raise ShapeError(f"split index {split_index} out of range for {len(weights)} layers")
    lead = 0 if clients is None else 1
    if any(w.ndim != 2 + lead or b.ndim != 1 + lead or lead and {len(w), len(b)} != {clients} for w, b in weights):
        raise ShapeError(f"weights do not match clients={clients}")
    manifest = {
        "dtype": "<f8",
        "layer_shapes": [[int(w.shape[lead]), int(w.shape[lead + 1])] for w, _ in weights],
        "split_index": int(split_index),
    }
    if clients is not None:
        manifest["clients"] = int(clients)
    manifest_path = Path(str(prefix) + MANIFEST_SUFFIX)
    blob_path = Path(str(prefix) + BLOB_SUFFIX)
    write_json(manifest_path, manifest)
    atomic_write(blob_path, weights_blob(weights))
    return manifest_path, blob_path


def _is_int(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def load_weights(prefix: str | Path) -> tuple[Layers, int]:
    """Inverse of save_weights; round-trips bit-exactly.  A stacked file's
    layers come back as stacks with the leading client axis.  A file pair
    save_weights would not write raises ParseError naming the file."""
    prefix = Path(prefix)
    manifest_path = Path(str(prefix) + MANIFEST_SUFFIX)
    blob_path = Path(str(prefix) + BLOB_SUFFIX)
    try:
        manifest = json.loads(manifest_path.read_bytes().decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ParseError(f"{manifest_path}: invalid manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("dtype") != "<f8":
        raise ParseError(f"{manifest_path}: manifest must be an object with dtype '<f8'")
    shapes = manifest.get("layer_shapes")
    split_index = manifest.get("split_index")
    n = manifest.get("clients", 1)
    if not (
        isinstance(shapes, list)
        and all(isinstance(s, list) and len(s) == 2 and all(_is_int(d, 1) for d in s) for s in shapes)
        and _is_int(split_index, 0) and split_index <= len(shapes)
        and _is_int(n, 1)
    ):
        raise ParseError(
            f"{manifest_path}: manifest needs layer_shapes [[out, in], ...] of ints >= 1, "
            "an int split_index of at most their count and, if given, an int clients >= 1"
        )

    data = blob_path.read_bytes()
    expected = 8 * n * sum(o * i + o for o, i in shapes)
    if len(data) != expected:
        raise ParseError(f"{blob_path}: blob holds {len(data)} bytes, manifest implies {expected}")
    raw = np.frombuffer(data, dtype="<f8")
    lead = (n,) if "clients" in manifest else ()
    layers, pos = [], 0
    for out_dim, in_dim in shapes:
        w = raw[pos : pos + n * out_dim * in_dim].reshape(*lead, out_dim, in_dim).copy()
        pos += n * out_dim * in_dim
        b = raw[pos : pos + n * out_dim].reshape(*lead, out_dim).copy()
        pos += n * out_dim
        layers.append((w, b))
    return layers, split_index
