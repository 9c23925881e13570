"""Per-client evaluation, cross-client aggregation, and tabular output."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .checkpoint import atomic_write
from .errors import SimulationError, UsageError
from .nn import Layers, RowBlock, _activations, _forward, _launch_views, _segment, _split, check_data, cross_entropy
from .nn import unstack_weights, weight_block

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
    acts = _activations(spec, data.X)
    logits = _forward(spec, acts, [_segment(base + personal, acts)])
    return EvalResult(float(accuracy(logits, data.y)), float(mean_loss(logits, data.y)))


def accuracy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The share of the n rows whose argmax (the lowest on a tie) is the label."""
    return (np.argmax(logits, axis=-1) == y).mean(axis=-1)


def mean_loss(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The mean cross-entropy of the n rows."""
    return cross_entropy(logits, y).mean(axis=-1)


class ScoringPlan:
    """Scoring of every set of a RowBlock by its row of a weight_block, in
    launches planned once: rows.groups, whose sets of one length are a
    segment, so every set goes through the gemms and reductions of
    evaluate's call of its own.  They run in workspace if it has the rows."""

    def __init__(self, spec: "ModelSpec", rows: RowBlock, block: np.ndarray, workspace: list | None = None) -> None:
        self.spec, self.rows, self.block = spec, rows, block
        self.launches, self.workspace = _launch_views(spec, block, rows.groups, len(spec.layers), workspace)

    def __call__(self, measure) -> list[float]:
        """measure (accuracy or mean_loss) of row j of the block on set j of
        the rows, for every set j."""
        block, x, y = self.block, self.rows.x, self.rows.y
        results = np.empty(len(self.rows.sizes))
        for members, idx, shapes, (sub, _, _, acts, _, segments) in self.launches:
            if sub is not block:  # "clip": see LockstepPlan.run
                block.take(members, axis=0, out=sub, mode="clip")
            x.take(idx, axis=0, out=acts[0], mode="clip")
            # measure is a mean over a set's rows: over sets of one row each
            # it is each row's value, and a set's measure is their mean
            values = measure(_forward(self.spec, acts, segments)[:, None], y.take(idx)[:, None])
            results[members] = np.concatenate(
                [np.add.reduce(v, axis=-1) / n for (_, (v,)), (_, n) in zip(_split(shapes, [values]), shapes)]
            )
        return results.tolist()


def scores(spec: "ModelSpec", rows: RowBlock, base: Layers, personal: Layers, measure) -> list[float]:
    """measure (accuracy or mean_loss) of base + row j of the stacked
    personal layers on set j of rows, for every set j, bitwise as evaluate
    gives it; see ScoringPlan."""
    block, _ = weight_block(spec, [base + unstack_weights(personal, j) for j in range(len(rows.sizes))])
    return ScoringPlan(spec, rows, block)(measure)


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
