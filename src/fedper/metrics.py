"""Per-row measures and evaluation, cross-client statistics, and tabular
output.  A measure gives one value per row of logits and labels: correct
here, and the loss, fedper.nn.cross_entropy.  A run scores with them on
fedper.nn.LockstepPlan.score, which takes each set's mean; evaluate is that
pass with one client."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .checkpoint import atomic_write, write_json
from .errors import SimulationError, UsageError
from .nn import Layers, LockstepPlan, RowBlock, check_data, check_weights, cross_entropy, weight_block

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
    """Accuracy (the mean of correct: argmax of logits, ties to the lowest
    class index) and mean cross-entropy of base + personal on a dataset: the
    engine's scoring pass with one client.  Pure and deterministic."""
    if len(data) == 0:
        raise UsageError("evaluate requires a non-empty dataset")
    check_data(spec, data)
    check_weights(spec, base, personal)
    block, _ = weight_block([base + personal])
    plan = LockstepPlan(spec, RowBlock(data.X, data.y, [len(data)]), block, 1, len(data), len(spec.layers))
    (acc,), (loss,) = plan.score(correct), plan.score(cross_entropy)
    return EvalResult(acc, loss)


def correct(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """1.0 where a row's argmax (the lowest class on a tie) is its label, else 0.0."""
    return (np.argmax(logits, axis=-1) == y).astype(np.float64)


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
            write_json(path, rows)
    except OSError as exc:
        raise SimulationError(f"cannot write {path}: {exc}") from exc
