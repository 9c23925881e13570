"""Per-client evaluation, cross-client aggregation, and tabular output."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .checkpoint import atomic_write
from .errors import SimulationError, UsageError
from .nn import Layers, RowBlock, _forward, check_data, cross_entropy

if TYPE_CHECKING:
    from .data import LabeledDataset
    from .model import ModelSpec
    from .protocol import RoundHistory


@dataclass(frozen=True)
class ClientMetrics:
    """One client's results for one round."""

    client_id: int
    round_idx: int
    test_accuracy: float
    train_loss: float


class EvalResult(NamedTuple):
    accuracy: float
    loss: float


class SummaryStats(NamedTuple):
    mean: float
    std: float
    min: float
    max: float


def evaluate(
    spec: "ModelSpec", base: Layers, personal: Layers, data: "LabeledDataset"
) -> EvalResult:
    """Accuracy (argmax of logits, ties to the lowest class index) and mean
    cross-entropy on a dataset.  Pure and deterministic."""
    if len(data) == 0:
        raise UsageError("evaluate requires a non-empty dataset")
    check_data(spec, data)
    logits = _forward(spec, base + personal, data.X)[-1]
    return EvalResult(float(accuracy(logits, data.y)), float(mean_loss(logits, data.y)))


def accuracy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The share of the n rows whose argmax (the lowest on a tie) is the label."""
    return (np.argmax(logits, axis=-1) == y).mean(axis=-1)


def mean_loss(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The mean cross-entropy of the n rows."""
    return cross_entropy(logits, y).mean(axis=-1)


def scores(spec: "ModelSpec", rows: RowBlock, base: Layers, personal: Layers, measure) -> list[float]:
    """measure (accuracy or mean_loss) of base + row j of the stacked
    personal layers on set j of rows, for every set j, bitwise as evaluate
    gives it.  Each of rows.groups is scored in one stacked forward pass
    (see nn._forward), the base broadcast: every set by the same gemms and
    reductions as in evaluate's call of its own."""
    results = [0.0] * len(rows.sizes)
    broadcast = [(w[None], b[None]) for w, b in base]
    for group, x, y in rows.groups:
        layers = broadcast + [(w.take(group, axis=0), b.take(group, axis=0)) for w, b in personal]
        for j, value in zip(group.tolist(), measure(_forward(spec, layers, x)[-1], y).tolist()):
            results[j] = value
    return results


def cross_client_stats(values: Sequence[float]) -> SummaryStats:
    """Mean, population standard deviation, min and max across clients.

    Values are sorted first (the stats are symmetric, so this makes the
    result exactly reorder-invariant) and anchored at the minimum so
    identical inputs yield an exactly zero std.
    """
    if len(values) == 0:
        raise UsageError("cross_client_stats requires at least one value")
    arr = np.sort(np.asarray(values, dtype=np.float64))
    shifted = arr - arr[0]
    mean = float(arr[0] + shifted.mean())
    std = float(np.sqrt(np.mean((shifted - shifted.mean()) ** 2)))
    return SummaryStats(mean, std, float(arr.min()), float(arr.max()))


def _format_cell(v) -> str:
    # repr keeps the full 17-significant-digit float round trip
    return repr(v) if isinstance(v, float) else str(v)


def emit(history: "RoundHistory", fmt: str, path: str | Path) -> None:
    """Write a RoundHistory as CSV or JSON (atomically): one
    `round,client,accuracy,loss` row per client and round, and JSON mirrors
    the same records."""
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown emit format {fmt!r}; expected 'csv' or 'json'")
    rows = [
        {"round": r.round_idx, "client": m.client_id, "accuracy": m.test_accuracy, "loss": m.train_loss}
        for r in history.rounds
        for m in r.clients
    ]
    columns = ["round", "client", "accuracy", "loss"]
    path = Path(path)
    try:
        if fmt == "csv":
            lines = [",".join(columns)]
            lines.extend(",".join(_format_cell(row[c]) for c in columns) for row in rows)
            atomic_write(path, "\n".join(lines) + "\n")
        else:
            atomic_write(path, json.dumps(rows, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise SimulationError(f"cannot write {path}: {exc}") from exc
