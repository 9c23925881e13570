"""A reference for what a run records, written with plain numpy and sharing
no code with the engine in fedper.nn: one client, one set, one 2-D array
at a time."""

from __future__ import annotations

import numpy as np


def score(layers, activations, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Accuracy and mean cross-entropy of the model whose layers are the
    (W, b) pairs of layers, each followed by its activation ("relu" or
    "identity"), on the rows x with labels y.  Accuracy takes the argmax of
    the logits (the lowest class on a tie); the loss of a row is
    log(sum(exp(z - max))) + max - z[label]."""
    z = x
    for (w, b), activation in zip(layers, activations):
        z = z @ w.T + b
        if activation == "relu":
            z = np.maximum(z, 0.0)
    top = z.max(axis=1)
    losses = np.log(np.exp(z - top[:, None]).sum(axis=1)) + top - z[np.arange(len(y)), y]
    return float((np.argmax(z, axis=1) == y).mean()), float(losses.mean())
