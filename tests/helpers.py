"""Shared test oracles, all independent of the library code paths they check."""

from __future__ import annotations

import math

import numpy as np

from fedper.data import LabeledDataset
from fedper.model import ModelSpec
from fedper.nn import Layers, LayerSpec


def rand_spec(rng: np.random.Generator, max_layers: int = 3, max_dim: int = 8) -> ModelSpec:
    n_layers = int(rng.integers(1, max_layers + 1))
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(n_layers + 1)]
    layers = []
    for i in range(n_layers):
        act = "identity" if i == n_layers - 1 else "relu"
        layers.append(LayerSpec(dims[i], dims[i + 1], act))
    k_personal = int(rng.integers(0, n_layers))
    return ModelSpec(tuple(layers), k_personal)


def rand_weights(layer_specs, rng: np.random.Generator) -> Layers:
    return [
        (rng.standard_normal((l.out_dim, l.in_dim)), rng.standard_normal(l.out_dim))
        for l in layer_specs
    ]


def rand_batch(spec: ModelSpec, rng: np.random.Generator, size: int) -> LabeledDataset:
    """size random rows, drawn row by row: features, then the label."""
    rows = [(rng.standard_normal(spec.in_dim), int(rng.integers(0, spec.out_dim))) for _ in range(size)]
    x = np.array([x for x, _ in rows]).reshape(size, spec.in_dim)
    return LabeledDataset(x, [y for _, y in rows], spec.out_dim)


def ref_loss(spec: ModelSpec, base: Layers, personal: Layers, batch) -> float:
    """Independent loss oracle: plain per-sample forward plus textbook
    softmax cross-entropy, no caching, no vectorized batching."""
    total = 0.0
    for x, y in zip(batch.X, batch.y):
        a = x
        for lspec, (w, b) in zip(spec.layers, base + personal):
            z = w @ a + b
            a = np.where(z > 0, z, 0.0) if lspec.activation == "relu" else z
        shifted = a - a.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        total += -math.log(probs[y])
    return total / len(batch)


def fd_gradients(
    spec: ModelSpec, base: Layers, personal: Layers, batch, h: float = 1e-5
) -> tuple[Layers, Layers]:
    """Central finite differences of ref_loss over every weight and bias."""

    def loss_with(sets):
        return ref_loss(spec, sets[0], sets[1], batch)

    def copies():
        return [[(w.copy(), b.copy()) for w, b in ws] for ws in (base, personal)]

    out = []
    for which in (0, 1):
        grads = []
        source = (base, personal)[which]
        for li, (w, b) in enumerate(source):
            gw = np.zeros_like(w)
            gb = np.zeros_like(b)
            for arr, grad in ((w, gw), (b, gb)):
                flat = arr.reshape(-1)
                gflat = grad.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    sets = copies()
                    sets[which][li][0 if arr is w else 1].reshape(-1)[i] = orig + h
                    up = loss_with(sets)
                    sets = copies()
                    sets[which][li][0 if arr is w else 1].reshape(-1)[i] = orig - h
                    down = loss_with(sets)
                    gflat[i] = (up - down) / (2 * h)
            grads.append((gw, gb))
        out.append(grads)
    return out[0], out[1]


def assert_grad_close(analytic: Layers, fd: Layers, rtol=1e-6, atol=1e-9) -> None:
    """Relative error <= rtol with an atol floor for near-zero components."""
    assert len(analytic) == len(fd)
    for (aw, ab), (fw, fb) in zip(analytic, fd):
        assert np.allclose(aw, fw, rtol=rtol, atol=atol), np.abs(aw - fw).max()
        assert np.allclose(ab, fb, rtol=rtol, atol=atol), np.abs(ab - fb).max()
