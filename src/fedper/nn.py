"""Dense feed-forward networks: forward pass, exact backpropagation, and the
lock-step mini-batch SGD engine that runs every client's local training.

Weights are float64 throughout so that protocol-level equivalence tests can
compare trajectories bitwise.  A network is described by a ModelSpec (see
fedper.model), and its weights are a list of (W, b) pairs, one per layer: the
shared base layers followed by the client-local personalization layers, so
the model is base + personal.  For training, the weights of N clients are
stacked layer by layer into (N, out, in) and (N, out) arrays.

The engine is planned once per run, because a client's training set never
changes: a RowBlock holds every client's training rows (features, labels and
one-hot labels) end to end, and a LockstepPlan fixes which clients share
each stacked launch, where each launch's rows come from, and the weight and
gradient blocks.  A training pass (LockstepPlan.run) only draws each
client's permutations and runs the launches.  sgd is the same engine with a
single client.
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
    # the ufunc reductions themselves skip ndarray.max's and .sum's Python wrappers
    zmax = np.maximum.reduce(logits, axis=-1, keepdims=True)
    expz = logits - zmax
    np.exp(expz, out=expz)
    return zmax, expz, np.add.reduce(expz, axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row softmax cross-entropy, logsumexp(logits) - logits[y]."""
    zmax, _, sums = _softmax_parts(logits)
    picked = np.take_along_axis(logits, y[..., None], axis=-1)
    return np.log(sums[..., 0]) + zmax[..., 0] - picked[..., 0]


def _backprop(
    spec: "ModelSpec", layers: Layers, acts: list[np.ndarray], onehot: np.ndarray, grads: Layers
) -> None:
    """Exact gradients of the batch-mean cross-entropy for the last
    len(grads) layers, written into grads, from a cached forward pass whose
    hidden activations it overwrites.  onehot is True at each row's label.
    Leading dims are stacked weights as in _forward."""
    first_trained = len(layers) - len(grads)
    _, delta, sums = _softmax_parts(acts[-1])
    # softmax minus the one-hot label; subtracting 0.0 leaves a value exact
    delta /= sums
    delta -= onehot
    delta /= delta.shape[-2]
    # the final layer's activation is part of the chain too; relu's
    # derivative is 1 exactly where its output a is > 0, identity's is 1
    if spec.layers[-1].activation == "relu":
        delta *= acts[-1] > 0.0
    for i in range(len(layers) - 1, first_trained - 1, -1):
        gw, gb = grads[i - first_trained]
        np.matmul(delta.swapaxes(-1, -2), acts[i], out=gw)
        np.add.reduce(delta, axis=-2, out=gb)
        if i > first_trained:
            # acts[i] is read here for the last time, so the next delta
            # overwrites it instead of taking new memory
            alive = acts[i] > 0.0 if spec.layers[i - 1].activation == "relu" else None
            delta = np.matmul(delta, layers[i][0], out=acts[i])
            if alive is not None:
                delta *= alive


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


@dataclass(frozen=True, eq=False)
class RowBlock:
    """The labeled rows of several sets end to end, in a chosen set order:
    set j, of sizes[j] rows, is rows starts[j] onwards of x and y (and of
    onehot, row r True at the label of row r, if the block has one)."""

    x: np.ndarray
    y: np.ndarray
    starts: np.ndarray
    sizes: list[int]
    onehot: np.ndarray | None = None

    @classmethod
    def of(
        cls, sets: Sequence["LabeledDataset"], order: Sequence[int] | None = None, onehot_width: int = 0
    ) -> "RowBlock":
        """The sets listed in order (default: all, in turn) copied into one
        block, with onehot_width-wide one-hot rows if it is not 0; the
        starts of sets left out are 0."""
        order = list(range(len(sets)) if order is None else order)
        starts = np.zeros(len(sets), dtype=np.intp)
        starts[order] = np.cumsum([0] + [len(sets[j]) for j in order[:-1]])
        y = np.concatenate([sets[j].y for j in order])
        onehot = np.eye(onehot_width, dtype=bool).take(y, axis=0) if onehot_width else None
        return cls(np.concatenate([sets[j].X for j in order]), y, starts, [len(d) for d in sets], onehot)


class LockstepPlan:
    """Mini-batch SGD for N clients at once on stacked weights, planned once
    for clients whose training sets never change.

    Client j trains on its rows of the block, rows.starts[j] onwards, n_j =
    sizes[j] of them.  It walks exactly the batches it would walk alone: per
    epoch a fresh permutation from its own generator, cut into batch_size
    slices with the last one partial, each step moving its weights by -eta *
    gradient.  Layers before first_trained are frozen: they take part in the
    forward pass, but no gradient is computed for them and they are never
    updated.

    At step t every client that still has batches takes its t-th one.
    Clients whose batches have the same size form a bucket, which runs one
    stacked forward and backward pass (a launch): np.matmul runs each
    client's own gemm on its own slice, and every reduction runs within one
    client's slice.  Buckets are never padded, because padding would change
    the shape of each client's gemm and reductions, and with them the
    rounding.  Unpadded, every client's arithmetic is the same as in a run
    on its own, and no client reads another's weights, data or generator; so
    the result is bitwise independent of which clients share a bucket and of
    the order in which buckets run.

    Which clients share which launch depends only on the set sizes, so it is
    planned here, once: per launch its clients and, per member, where its
    batch starts in the pass's order array, which holds every client's
    permutations end to end.  A pass (run) only draws the permutations into
    that array and runs the launches.

    For a pass, the weights live in one (N, P) block, row j holding client
    j's layers end to end (see _flat_views).  A launch of every client works
    on it in place; any other gathers its rows into a spare block and
    scatters them back.  Gradients fill the trained columns of a second
    block, so an update is two whole-block operations.
    """

    def __init__(
        self, spec: "ModelSpec", rows: RowBlock, epochs: int, batch_size: int, first_trained: int = 0
    ) -> None:
        self.spec, self.rows, self.epochs, self.first_trained = spec, rows, epochs, first_trained
        sizes = rows.sizes
        # client j's permutations fill order[offsets[j] : offsets[j] + epochs * sizes[j]]
        self.offsets = np.cumsum([0] + [epochs * n for n in sizes[:-1]]).tolist()
        self.order = np.empty(epochs * sum(sizes), dtype=np.intp)
        # every client's batches, step by step, as (size, first position in order)
        steps = [
            [(min(batch_size, n - i), off + e * n + i) for e in range(epochs) for i in range(0, n, batch_size)]
            for n, off in zip(sizes, self.offsets)
        ]
        n_params = sum(s.out_dim * (s.in_dim + 1) for s in spec.layers)
        frozen = sum(s.out_dim * (s.in_dim + 1) for s in spec.layers[:first_trained])
        self.flat = np.empty((len(sizes), n_params))
        self.weights = _flat_views(spec, self.flat)
        spare, grad = np.empty_like(self.flat), np.empty((len(sizes), n_params - frozen))
        # per bucket size: its weight block, that block's layers and trained
        # columns, and its gradient block and that block's layers
        views: dict[int, tuple] = {}
        # no batch is larger than the largest set, whatever batch_size is
        samples = np.arange(min(batch_size, max(sizes)))
        # per launch: its clients, the position of each one's batch in order
        # (a column), the offsets of a batch's samples, and the views of its
        # bucket size
        self.launches: list[tuple[np.ndarray, np.ndarray, np.ndarray, tuple]] = []
        for t in range(max(len(s) for s in steps)):
            buckets: dict[int, list[int]] = {}
            for j, s in enumerate(steps):
                if t < len(s):
                    buckets.setdefault(s[t][0], []).append(j)
            for size, clients in buckets.items():
                n = len(clients)
                if n not in views:
                    block = self.flat if n == len(sizes) else spare[:n]
                    views[n] = (block, _flat_views(spec, block), block[:, frozen:], grad[:n],
                                _flat_views(spec, grad[:n], first_trained))
                bases = np.array([steps[j][t][1] for j in clients])[:, None]
                self.launches.append((np.array(clients), bases, samples[:size], views[n]))

    def batches(self, rngs: Sequence[np.random.Generator]):
        """Draw one pass's permutations, rngs[j] being client j's generator,
        and yield each launch with its members' batches: one row of the
        block per member and sample, (len(clients), batch size)."""
        order, rows = self.order, self.rows
        for j, gen in enumerate(rngs):
            n, off, start = rows.sizes[j], self.offsets[j], rows.starts[j]
            for e in range(self.epochs):
                np.add(gen.permutation(n), start, out=order[off + e * n : off + (e + 1) * n])
        for launch in self.launches:
            yield launch, order.take(launch[1] + launch[2])

    def run(self, layers: Layers, rngs: Sequence[np.random.Generator], eta: float) -> None:
        """One training pass, updating the stacked weights in place: layers
        holds one (W (N, out, in), b (N, out)) stack per model layer, row j
        being client j's copy, and rngs[j] is client j's generator."""
        spec, flat, x, onehot = self.spec, self.flat, self.rows.x, self.rows.onehot
        for (w, b), (fw, fb) in zip(layers, self.weights):
            fw[...] = w
            fb[...] = b
        for (clients, _, _, (block, ws, trained, g, gs)), rows in self.batches(rngs):
            if block is not flat:
                # clients are in range; "clip" skips the checked mode's buffered copy
                np.take(flat, clients, axis=0, out=block, mode="clip")
            # take gathers faster than fancy indexing; the activations are
            # freed before the next launch allocates its own
            _backprop(spec, ws, _forward(spec, ws, x.take(rows, axis=0)), onehot.take(rows, axis=0), gs)
            g *= eta
            trained -= g
            if block is not flat:
                flat[clients] = block
        for (w, b), (fw, fb) in zip(layers[self.first_trained :], self.weights[self.first_trained :]):
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
    rows = RowBlock.of([dataset], onehot_width=spec.out_dim)
    LockstepPlan(spec, rows, cfg.epochs, cfg.batch_size).run(layers, [rng], cfg.eta)
    kb = spec.k_base
    return unstack_weights(layers[:kb], 0), unstack_weights(layers[kb:], 0)
