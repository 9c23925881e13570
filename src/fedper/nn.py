"""Dense feed-forward networks: forward pass, exact backpropagation, and the
lock-step mini-batch SGD engine that runs every client's local training.

Weights are float64 throughout so that protocol-level equivalence tests can
compare trajectories bitwise.  A network is described by a ModelSpec (see
fedper.model) and carried as two WeightSets: the shared base layers followed
by the client-local personalization layers.  For training, the weights of N
clients are stacked layer by layer into (N, out, in) and (N, out) arrays.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError, ShapeError, UsageError

if TYPE_CHECKING:
    from .model import ModelSpec

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: out_dim x in_dim weight matrix plus bias, then activation."""

    in_dim: int
    out_dim: int
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ConfigError(f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}")


@dataclass(frozen=True)
class SgdConfig:
    """Mini-batch SGD hyperparameters for one local training pass."""

    eta: float
    epochs: int
    batch_size: int

    def __post_init__(self) -> None:
        # eta == 0 is allowed: the zero step size is the degenerate no-op case.
        if not math.isfinite(self.eta) or self.eta < 0:
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.eta}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class Sample:
    """One labeled example: feature vector x and non-negative class label y."""

    x: np.ndarray
    y: int

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 1:
            raise ShapeError(f"sample features must be 1-D, got shape {x.shape}")
        if self.y < 0:
            raise UsageError(f"class label must be non-negative, got {self.y}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", int(self.y))


@dataclass(eq=False)
class WeightSet:
    """Ordered list of (weight matrix, bias vector) pairs, one per layer."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    def __len__(self) -> int:
        return len(self.layers)

    def copy(self) -> "WeightSet":
        return WeightSet([(w.copy(), b.copy()) for w, b in self.layers])


def weights_equal(a: WeightSet, b: WeightSet) -> bool:
    """Bitwise equality of two weight sets."""
    if len(a) != len(b):
        return False
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        if wa.shape != wb.shape or ba.shape != bb.shape:
            return False
        if wa.tobytes() != wb.tobytes() or ba.tobytes() != bb.tobytes():
            return False
    return True


def weights_blob(ws: WeightSet) -> bytes:
    """Little-endian float64 bytes of all layers, weights then bias each."""
    parts = []
    for w, b in ws.layers:
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(parts)


def weights_checksum(ws: WeightSet) -> str:
    """SHA-256 of the weight blob; equal checksums mean bitwise equal values."""
    return hashlib.sha256(weights_blob(ws)).hexdigest()


def init_weights(layer_specs: Sequence[LayerSpec], rng: np.random.Generator) -> WeightSet:
    """Random initialization: W uniform on +-sqrt(6/(fan_in+fan_out)), biases zero."""
    layers = []
    for spec in layer_specs:
        limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        w = rng.uniform(-limit, limit, size=(spec.out_dim, spec.in_dim))
        b = np.zeros(spec.out_dim)
        layers.append((w, b))
    return WeightSet(layers)


def check_weights_match(layer_specs: Sequence[LayerSpec], ws: WeightSet, offset: int = 0) -> None:
    """Raise ShapeError (naming the layer index) if ws does not realize the specs."""
    if len(ws) != len(layer_specs):
        raise ShapeError(f"expected {len(layer_specs)} layers starting at index {offset}, got {len(ws)}")
    for i, (spec, (w, b)) in enumerate(zip(layer_specs, ws.layers)):
        if w.shape != (spec.out_dim, spec.in_dim):
            raise ShapeError(
                f"layer {offset + i}: weight shape {w.shape} != expected "
                f"({spec.out_dim}, {spec.in_dim})"
            )
        if b.shape != (spec.out_dim,):
            raise ShapeError(f"layer {offset + i}: bias shape {b.shape} != expected ({spec.out_dim},)")


def _check_model_weights(spec: "ModelSpec", base: WeightSet, personal: WeightSet) -> None:
    if len(base) != spec.k_base or len(personal) != spec.k_personal:
        raise ShapeError(
            f"weight split ({len(base)} base, {len(personal)} personal) does not match "
            f"spec ({spec.k_base} base, {spec.k_personal} personal)"
        )
    check_weights_match(spec.layers[: spec.k_base], base, offset=0)
    check_weights_match(spec.layers[spec.k_base :], personal, offset=spec.k_base)


def model_inputs(spec: "ModelSpec", data) -> tuple[np.ndarray, np.ndarray]:
    """Features (n, in_dim) and labels (n,) of a dataset.

    A LabeledDataset (anything with X and y arrays) passes through as is; a
    sequence of Samples, which callers of the public API may still hand in,
    is stacked.
    """
    if hasattr(data, "X"):
        x, y = data.X, data.y
    elif len(data) == 0:
        return np.empty((0, spec.in_dim)), np.empty(0, dtype=np.intp)
    else:
        x, y = np.stack([s.x for s in data]), np.array([s.y for s in data], dtype=np.intp)
    if len(y) and x.shape[1] != spec.in_dim:
        raise ShapeError(f"layer 0: input dim {x.shape[1]} != expected {spec.in_dim}")
    return x, y


def stack_weights(sets: Sequence[WeightSet]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Layer-wise (N, out, in) weight and (N, out) bias stacks of N weight
    sets; row j is a copy of sets[j]."""
    return [
        (np.stack([s.layers[i][0] for s in sets]), np.stack([s.layers[i][1] for s in sets]))
        for i in range(len(sets[0]))
    ]


def unstack_weights(layers: Sequence[tuple[np.ndarray, np.ndarray]], j: int) -> WeightSet:
    """Row j of layer stacks, as views."""
    return WeightSet([(w[j], b[j]) for w, b in layers])


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    return z


def _chain(name: str, delta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """delta times the derivative of the activation whose output is a
    (relu: a > 0 exactly where its input is; identity: exactly delta)."""
    if name == "relu":
        return delta * (a > 0.0)
    return delta


def _forward(
    spec: "ModelSpec", layers: Sequence[tuple[np.ndarray, np.ndarray]], x: np.ndarray
) -> list[np.ndarray]:
    """Run the stack on (..., batch, in_dim) inputs; returns every layer's
    activations, the input first and the network output last.

    Leading dims index stacked weights: with (G, out, in) weights and
    (G, batch, in) inputs every slice g is its own forward pass.
    """
    acts = [x]
    for lspec, (w, b) in zip(spec.layers, layers):
        acts.append(_activate(lspec.activation, acts[-1] @ w.swapaxes(-1, -2) + b[..., None, :]))
    return acts


def _softmax_parts(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row max, exp(logits - max) and its row sums: the stable softmax."""
    zmax = logits.max(axis=-1, keepdims=True)
    expz = np.exp(logits - zmax)
    return zmax, expz, expz.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row softmax cross-entropy, logsumexp(logits) - logits[y]."""
    zmax, _, sums = _softmax_parts(logits)
    picked = np.take_along_axis(logits, y[..., None], axis=-1)
    return np.log(sums[..., 0]) + zmax[..., 0] - picked[..., 0]


def _backprop(
    spec: "ModelSpec",
    layers: Sequence[tuple[np.ndarray, np.ndarray]],
    acts: list[np.ndarray],
    y: np.ndarray,
    first_trained: int = 0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact gradients of the batch-mean cross-entropy for layers
    first_trained.. (in order), from a cached forward pass.  Leading dims
    are stacked weights as in _forward."""
    _, expz, sums = _softmax_parts(acts[-1])
    # softmax minus the one-hot label; subtracting 0.0 leaves a value exact
    delta = expz / sums - (y[..., None] == np.arange(expz.shape[-1]))
    delta /= y.shape[-1]
    # the final layer's activation is part of the chain too
    delta = _chain(spec.layers[-1].activation, delta, acts[-1])
    grads = []
    for i in range(len(layers) - 1, first_trained - 1, -1):
        grads.append((delta.swapaxes(-1, -2) @ acts[i], delta.sum(axis=-2)))
        if i > first_trained:
            delta = _chain(spec.layers[i - 1].activation, delta @ layers[i][0], acts[i])
    return grads[::-1]


def forward(spec: "ModelSpec", base: WeightSet, personal: WeightSet, x: np.ndarray) -> np.ndarray:
    """Forward pass for a single feature vector; returns the logits."""
    _check_model_weights(spec, base, personal)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != spec.in_dim:
        raise ShapeError(f"layer 0: input shape {x.shape} != expected ({spec.in_dim},)")
    return _forward(spec, base.layers + personal.layers, x[None, :])[-1][0]


def loss_and_grad(
    spec: "ModelSpec", base: WeightSet, personal: WeightSet, batch: Sequence[Sample]
) -> tuple[float, WeightSet, WeightSet]:
    """Mean cross-entropy over the batch plus exact gradients for both weight sets."""
    if len(batch) == 0:
        raise UsageError("loss_and_grad requires a non-empty batch")
    _check_model_weights(spec, base, personal)
    x, y = model_inputs(spec, batch)
    layers = base.layers + personal.layers
    acts = _forward(spec, layers, x)
    loss = float(np.mean(cross_entropy(acts[-1], y)))
    grads = _backprop(spec, layers, acts, y)
    kb = spec.k_base
    return loss, WeightSet(grads[:kb]), WeightSet(grads[kb:])


def minibatch_indices(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch's batches: a fresh permutation of range(n) cut into batch_size
    slices, last partial slice included.  Every sample appears exactly once."""
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def train_lockstep(
    spec: "ModelSpec",
    layers: list[tuple[np.ndarray, np.ndarray]],
    data: Sequence[tuple[np.ndarray, np.ndarray]],
    rngs: Sequence[np.random.Generator],
    epochs: int,
    batch_size: int,
    eta: float,
    first_trained: int = 0,
) -> None:
    """Mini-batch SGD for N clients at once, updating stacked weights in place.

    layers holds one (W (N, out, in), b (N, out)) stack per model layer, row
    j being client j's copy; data[j] = (X_j, y_j) and rngs[j] are client j's
    training set and generator.  Each client walks exactly the batches it
    would walk alone: per epoch a fresh permutation from its own generator,
    cut into batch_size slices with the last one partial, each step moving
    its weights by -eta * gradient.  Layers before first_trained are frozen:
    they take part in the forward pass, but no gradient is computed for them
    and they are never updated.

    At step t every client that still has batches takes its t-th one.
    Clients whose batches have the same size form a bucket, which runs one
    stacked forward and backward pass: np.matmul runs each client's own gemm
    on its own slice, and every reduction runs within one client's slice.
    Buckets are never padded, because padding would change the shape of
    each client's gemm and reductions, and with them the rounding.  Unpadded,
    every client's arithmetic is the same as in a run on its own, and no
    client reads another's weights, data or generator; so the result is
    bitwise independent of which clients share a bucket and of the order in
    which buckets run.
    """
    everyone = list(range(len(data)))
    sizes = [len(y) for _, y in data]
    starts = np.cumsum([0] + sizes[:-1])
    x_all = np.concatenate([x for x, _ in data])
    y_all = np.concatenate([y for _, y in data])
    # every client's batches for the whole pass, as rows of x_all
    plans = [
        [start + idx for _ in range(epochs) for idx in minibatch_indices(n, batch_size, gen)]
        for n, start, gen in zip(sizes, starts, rngs)
    ]
    for t in range(max(len(plan) for plan in plans)):
        buckets: dict[int, list[int]] = {}
        for j, plan in enumerate(plans):
            if t < len(plan):
                buckets.setdefault(len(plan[t]), []).append(j)
        for clients in buckets.values():
            rows = np.stack([plans[j][t] for j in clients])
            # a bucket of every client works on the stacks in place, any
            # other on gathered copies that are scattered back
            whole = clients == everyone
            ws = layers if whole else [(w[clients], b[clients]) for w, b in layers]
            grads = _backprop(spec, ws, _forward(spec, ws, x_all[rows]), y_all[rows], first_trained)
            for i, (gw, gb) in enumerate(grads, start=first_trained):
                w, b = ws[i]
                w -= eta * gw
                b -= eta * gb
                if not whole:
                    layers[i][0][clients] = w
                    layers[i][1][clients] = b


def sgd(
    spec: "ModelSpec",
    base: WeightSet,
    personal: WeightSet,
    dataset: Sequence[Sample],
    cfg: SgdConfig,
    rng: np.random.Generator,
) -> tuple[WeightSet, WeightSet]:
    """Mini-batch SGD over the dataset for cfg.epochs epochs.

    Each epoch draws a fresh permutation from rng and walks batches of
    cfg.batch_size, updating both weight sets by -eta * gradient.  Inputs are
    not mutated; the updated copies are returned.
    """
    if len(dataset) == 0:
        raise UsageError("sgd requires a non-empty dataset")
    _check_model_weights(spec, base, personal)
    layers = stack_weights([WeightSet(base.layers + personal.layers)])
    data = [model_inputs(spec, dataset)]
    train_lockstep(spec, layers, data, [rng], cfg.epochs, cfg.batch_size, cfg.eta)
    kb = spec.k_base
    return unstack_weights(layers[:kb], 0), unstack_weights(layers[kb:], 0)
