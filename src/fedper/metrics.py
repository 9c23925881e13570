"""Per-client evaluation, cross-client aggregation, and tabular output."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import SimulationError, UsageError
from .nn import WeightSet, _forward, cross_entropy, model_inputs

if TYPE_CHECKING:
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


@dataclass
class SweepPoint:
    value: int | str
    final_mean_accuracy: float
    final_std_accuracy: float
    history: "RoundHistory"


@dataclass
class SweepResult:
    """One re-run per axis value, points sorted by value."""

    axis: str
    points: list[SweepPoint]


def evaluate(spec: "ModelSpec", base: WeightSet, personal: WeightSet, data) -> EvalResult:
    """Accuracy (argmax of logits, ties to the lowest class index) and mean
    cross-entropy on a dataset (a LabeledDataset or a sequence of Samples).
    Pure and deterministic."""
    if len(data) == 0:
        raise UsageError("evaluate requires a non-empty sample list")
    x, y = model_inputs(spec, data)
    logits = _forward(spec, base.layers + personal.layers, x)[-1]
    predictions = np.argmax(logits, axis=1)  # np.argmax breaks ties toward the lowest index
    accuracy = float(np.mean(predictions == y))
    loss = float(np.mean(cross_entropy(logits, y)))
    return EvalResult(accuracy, loss)


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


def _history_rows(history: "RoundHistory") -> list[dict]:
    return [
        {"round": r.round_idx, "client": m.client_id, "accuracy": m.test_accuracy, "loss": m.train_loss}
        for r in history.rounds
        for m in r.clients
    ]


def _sweep_rows(sweep: SweepResult) -> list[dict]:
    return [
        {"axis": sweep.axis, "value": p.value, **row}
        for p in sweep.points
        for row in _history_rows(p.history)
    ]


def _format_cell(v) -> str:
    # repr keeps the full 17-significant-digit float round trip
    return repr(v) if isinstance(v, float) else str(v)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(obj, fmt: str, path: str | Path) -> None:
    """Write a RoundHistory or SweepResult as CSV or JSON (atomically).

    History rows are `round,client,accuracy,loss`; sweep output is the long
    format with leading `axis,value` columns.  JSON mirrors the same records.
    """
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown emit format {fmt!r}; expected 'csv' or 'json'")
    if isinstance(obj, SweepResult):
        rows = _sweep_rows(obj)
        columns = ["axis", "value", "round", "client", "accuracy", "loss"]
    else:
        rows = _history_rows(obj)
        columns = ["round", "client", "accuracy", "loss"]

    path = Path(path)
    try:
        if fmt == "csv":
            lines = [",".join(columns)]
            lines.extend(",".join(_format_cell(row[c]) for c in columns) for row in rows)
            _atomic_write(path, "\n".join(lines) + "\n")
        else:
            _atomic_write(path, json.dumps(rows, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise SimulationError(f"cannot write {path}: {exc}") from exc
