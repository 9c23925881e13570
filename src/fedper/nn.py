"""Dense feed-forward networks: forward pass, exact backpropagation, and the
lock-step mini-batch SGD engine that runs every client's local training.

Weights are float64 throughout so that protocol-level equivalence tests can
compare trajectories bitwise.  A network is described by a ModelSpec (see
fedper.model), and its weights are a list of (W, b) pairs, one per layer: the
shared base layers followed by the client-local personalization layers, so
the model is base + personal.  For training, the weights of N clients are
stacked layer by layer into (N, out, in) and (N, out) arrays.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError, ShapeError, UsageError

if TYPE_CHECKING:
    from .data import LabeledDataset
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


# (weight matrix, bias vector) per layer, in order; stacked weights carry a
# leading client axis on both arrays.
Layers = list[tuple[np.ndarray, np.ndarray]]


def weights_equal(a: Layers, b: Layers) -> bool:
    """Bitwise equality of two weight lists."""
    if len(a) != len(b):
        return False
    for (wa, ba), (wb, bb) in zip(a, b):
        if wa.shape != wb.shape or ba.shape != bb.shape:
            return False
        if wa.tobytes() != wb.tobytes() or ba.tobytes() != bb.tobytes():
            return False
    return True


def weights_blob(ws: Layers) -> bytes:
    """Little-endian float64 bytes of all layers, weights then bias each."""
    parts = []
    for w, b in ws:
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(parts)


def weights_checksum(ws: Layers) -> str:
    """SHA-256 of the weight blob; equal checksums mean bitwise equal values."""
    return hashlib.sha256(weights_blob(ws)).hexdigest()


def init_weights(layer_specs: Sequence[LayerSpec], rng: np.random.Generator) -> Layers:
    """Random initialization: W uniform on +-sqrt(6/(fan_in+fan_out)), biases zero."""
    layers = []
    for spec in layer_specs:
        limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        w = rng.uniform(-limit, limit, size=(spec.out_dim, spec.in_dim))
        b = np.zeros(spec.out_dim)
        layers.append((w, b))
    return layers


def _check_model_weights(spec: "ModelSpec", base: Layers, personal: Layers) -> None:
    """Raise ShapeError (naming the layer index) unless base + personal
    realizes the spec's layers with its base/personal split."""
    if len(base) != spec.k_base or len(personal) != spec.k_personal:
        raise ShapeError(
            f"weight split ({len(base)} base, {len(personal)} personal) does not match "
            f"spec ({spec.k_base} base, {spec.k_personal} personal)"
        )
    for i, (lspec, (w, b)) in enumerate(zip(spec.layers, base + personal)):
        if w.shape != (lspec.out_dim, lspec.in_dim):
            raise ShapeError(
                f"layer {i}: weight shape {w.shape} != expected ({lspec.out_dim}, {lspec.in_dim})"
            )
        if b.shape != (lspec.out_dim,):
            raise ShapeError(f"layer {i}: bias shape {b.shape} != expected ({lspec.out_dim},)")


def check_data(spec: "ModelSpec", data: "LabeledDataset") -> None:
    """Raise ShapeError unless the dataset's rows are the model's input width
    and its classes fit the model's outputs."""
    if data.X.shape[1] != spec.in_dim:
        raise ShapeError(f"layer 0: input dim {data.X.shape[1]} != expected {spec.in_dim}")
    if data.num_classes > spec.out_dim:
        raise ShapeError(f"dataset has {data.num_classes} classes, the model outputs {spec.out_dim}")


def stack_weights(sets: Sequence[Layers]) -> Layers:
    """Layer-wise (N, out, in) weight and (N, out) bias stacks of N weight
    lists; row j is a copy of sets[j]."""
    return [
        (np.stack([s[i][0] for s in sets]), np.stack([s[i][1] for s in sets]))
        for i in range(len(sets[0]))
    ]


def unstack_weights(layers: Layers, j: int) -> Layers:
    """Row j of layer stacks, as views."""
    return [(w[j], b[j]) for w, b in layers]


def _flat_views(spec: "ModelSpec", block: np.ndarray, first: int = 0) -> Layers:
    """Stacked (W, b) views of layers first.. into an (n, P) block whose
    rows hold them end to end, each layer's W (row-major) then its b."""
    n, views, start = len(block), [], 0
    for lspec in spec.layers[first:]:
        mid = start + lspec.out_dim * lspec.in_dim
        end = mid + lspec.out_dim
        views.append((block[:, start:mid].reshape(n, lspec.out_dim, lspec.in_dim), block[:, mid:end]))
        start = end
    return views


def _chain(name: str, delta: np.ndarray, a: np.ndarray) -> None:
    """Multiply delta in place by the derivative of the activation whose
    output is a (relu: a > 0 exactly where its input is; identity: 1)."""
    if name == "relu":
        delta *= a > 0.0


def _forward(spec: "ModelSpec", layers: Layers, x: np.ndarray) -> list[np.ndarray]:
    """Run the stack on (..., batch, in_dim) inputs; returns every layer's
    activations, the input first and the network output last.

    Leading dims index stacked weights: with (G, out, in) weights and
    (G, batch, in) inputs every slice g is its own forward pass.
    """
    acts = [x]
    for lspec, (w, b) in zip(spec.layers, layers):
        z = acts[-1] @ w.swapaxes(-1, -2)
        z += b[..., None, :]
        if lspec.activation == "relu":
            np.maximum(z, 0.0, out=z)
        acts.append(z)
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
    spec: "ModelSpec", layers: Layers, acts: list[np.ndarray], onehot: np.ndarray, grads: Layers
) -> None:
    """Exact gradients of the batch-mean cross-entropy for the last
    len(grads) layers, written into grads, from a cached forward pass.
    onehot is True at each row's label.  Leading dims are stacked weights as
    in _forward."""
    first_trained = len(layers) - len(grads)
    _, delta, sums = _softmax_parts(acts[-1])
    # softmax minus the one-hot label; subtracting 0.0 leaves a value exact
    delta /= sums
    delta -= onehot
    delta /= delta.shape[-2]
    # the final layer's activation is part of the chain too
    _chain(spec.layers[-1].activation, delta, acts[-1])
    for i in range(len(layers) - 1, first_trained - 1, -1):
        gw, gb = grads[i - first_trained]
        np.matmul(delta.swapaxes(-1, -2), acts[i], out=gw)
        delta.sum(axis=-2, out=gb)
        if i > first_trained:
            delta = delta @ layers[i][0]
            _chain(spec.layers[i - 1].activation, delta, acts[i])


def forward(spec: "ModelSpec", base: Layers, personal: Layers, x: np.ndarray) -> np.ndarray:
    """Forward pass for a single feature vector; returns the logits."""
    _check_model_weights(spec, base, personal)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != spec.in_dim:
        raise ShapeError(f"layer 0: input shape {x.shape} != expected ({spec.in_dim},)")
    return _forward(spec, base + personal, x[None, :])[-1][0]


def loss_and_grad(
    spec: "ModelSpec", base: Layers, personal: Layers, batch: "LabeledDataset"
) -> tuple[float, Layers, Layers]:
    """Mean cross-entropy over the batch plus exact gradients for base and personal."""
    if len(batch) == 0:
        raise UsageError("loss_and_grad requires a non-empty batch")
    _check_model_weights(spec, base, personal)
    check_data(spec, batch)
    layers = base + personal
    acts = _forward(spec, layers, batch.X)
    loss = float(np.mean(cross_entropy(acts[-1], batch.y)))
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
    _backprop(spec, layers, acts, np.eye(spec.out_dim, dtype=bool).take(batch.y, axis=0), grads)
    kb = spec.k_base
    return loss, grads[:kb], grads[kb:]


def minibatch_indices(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    """One epoch's batches: a fresh permutation of range(n) cut into batch_size
    slices, last partial slice included.  Every sample appears exactly once."""
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def train_lockstep(
    spec: "ModelSpec",
    layers: Layers,
    data: Sequence["LabeledDataset"],
    rngs: Sequence[np.random.Generator],
    epochs: int,
    batch_size: int,
    eta: float,
    first_trained: int = 0,
) -> None:
    """Mini-batch SGD for N clients at once, updating stacked weights in place.

    layers holds one (W (N, out, in), b (N, out)) stack per model layer, row
    j being client j's copy; data[j] and rngs[j] are client j's training set
    and generator.  Each client walks exactly the batches it would walk
    alone: per epoch a fresh permutation from its own generator, cut into
    batch_size slices with the last one partial, each step moving its
    weights by -eta * gradient.  Layers before first_trained are frozen:
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

    For the pass, the weights live in one (N, P) block, row j holding client
    j's layers end to end (see _flat_views).  A bucket of every client works
    on it in place; any other gathers its rows into a spare block and
    scatters them back.  Gradients fill the trained columns of a second
    block, so an update is two whole-block operations.
    """
    sizes = [len(d) for d in data]
    starts = np.cumsum([0] + sizes[:-1])
    x_all = np.concatenate([d.X for d in data])
    # row r is True at the label of row r of x_all
    onehot = np.eye(spec.out_dim, dtype=bool).take(np.concatenate([d.y for d in data]), axis=0)
    # every client's batches for the whole pass, as indices into its own data
    plans = [
        [idx for _ in range(epochs) for idx in minibatch_indices(n, batch_size, gen)]
        for n, gen in zip(sizes, rngs)
    ]
    flat = np.concatenate([a.reshape(len(data), -1) for w, b in layers for a in (w, b)], axis=1)
    frozen = sum(w[0].size + b[0].size for w, b in layers[:first_trained])
    spare, grad = np.empty_like(flat), np.empty((len(data), flat.shape[1] - frozen))
    # per bucket size: its weight block, that block's layers and trained
    # columns, and its gradient block and that block's layers
    views: dict[int, tuple] = {}
    for t in range(max(len(plan) for plan in plans)):
        buckets: dict[int, list[int]] = {}
        for j, plan in enumerate(plans):
            if t < len(plan):
                buckets.setdefault(len(plan[t]), []).append(j)
        for bucket in buckets.values():
            n, clients = len(bucket), np.array(bucket)
            if n not in views:
                block = flat if n == len(data) else spare[:n]
                views[n] = (block, _flat_views(spec, block), block[:, frozen:], grad[:n],
                            _flat_views(spec, grad[:n], first_trained))
            block, ws, trained, g, gs = views[n]
            if block is not flat:
                # clients are in range; "clip" skips the checked mode's buffered copy
                np.take(flat, clients, axis=0, out=block, mode="clip")
            # the batches' rows of x_all; take gathers faster than fancy indexing
            rows = np.array([plans[j][t] for j in bucket]) + starts[clients, None]
            acts = _forward(spec, ws, x_all.take(rows, axis=0))
            _backprop(spec, ws, acts, onehot.take(rows, axis=0), gs)
            g *= eta
            trained -= g
            if block is not flat:
                flat[clients] = block
    for (w, b), (fw, fb) in zip(layers[first_trained:], _flat_views(spec, flat)[first_trained:]):
        w[...] = fw
        b[...] = fb


def sgd(
    spec: "ModelSpec",
    base: Layers,
    personal: Layers,
    dataset: "LabeledDataset",
    cfg: SgdConfig,
    rng: np.random.Generator,
) -> tuple[Layers, Layers]:
    """Mini-batch SGD over the dataset for cfg.epochs epochs.

    Each epoch draws a fresh permutation from rng and walks batches of
    cfg.batch_size, updating base and personal by -eta * gradient.  Inputs are
    not mutated; the updated copies are returned.
    """
    if len(dataset) == 0:
        raise UsageError("sgd requires a non-empty dataset")
    _check_model_weights(spec, base, personal)
    check_data(spec, dataset)
    layers = stack_weights([base + personal])
    train_lockstep(spec, layers, [dataset], [rng], cfg.epochs, cfg.batch_size, cfg.eta)
    kb = spec.k_base
    return unstack_weights(layers[:kb], 0), unstack_weights(layers[kb:], 0)
