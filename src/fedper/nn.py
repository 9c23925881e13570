"""Dense feed-forward networks: forward pass, exact backpropagation, and the
lock-step mini-batch SGD engine that runs every client's local training.

Weights are float64 throughout so that protocol-level equivalence tests can
compare trajectories bitwise.  A network is described by a ModelSpec (see
fedper.model), and its weights are a list of (W, b) pairs, one per layer: the
shared base layers followed by the client-local personalization layers, so
the model is base + personal.  For training, the weights of N clients are
stacked layer by layer into (N, out, in) and (N, out) arrays.

The engine is planned once per run, because a client's training set never
changes: a RowBlock holds every client's training rows and labels end to
end, in client order, and groups the sets of each length for stacked
scoring; a LockstepPlan fixes which clients share each stacked launch and
where each launch's rows come from.  It trains the clients' weights, one
(N, P) block (weight_block), in place: a pass (LockstepPlan.run) only draws
each client's permutations and runs the launches, each of which gathers its
rows and builds their one-hot labels.  sgd is the same engine with a single
client.
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


def weight_block(spec: "ModelSpec", sets: Sequence[Layers]) -> tuple[np.ndarray, Layers]:
    """An (N, P) block whose row j holds a copy of sets[j], a weight list of
    the spec's layers, and its layer stacks: per layer an (N, out, in) weight
    and an (N, out) bias view of the block."""
    block = np.empty((len(sets), sum(s.out_dim * (s.in_dim + 1) for s in spec.layers)))
    layers = _flat_views(spec, block)
    for j, ws in enumerate(sets):
        for (w, b), (lw, lb) in zip(layers, ws):
            w[j] = lw
            b[j] = lb
    return block, layers


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


# Up to 8 columns and from 128 rows the softmax row max is a chain of
# np.maximum over the columns.  With numpy 2.4 on AVX-512 it took 0.06 ms to
# the reduction's 1.2 ms on a (100, 256, 4) launch, but 5.5 us to 1.8 on
# (1, 16, 4), and from 9 columns 11 us to 7 even on (10, 16, 9).
CHAIN_MAX_COLUMNS, CHAIN_MIN_ROWS = 8, 128


def _row_max(a: np.ndarray) -> np.ndarray:
    """np.maximum.reduce(a, axis=-1, keepdims=True); the chain folds the
    columns in the reduction's order and rounds nothing."""
    w = a.shape[-1]
    if w > CHAIN_MAX_COLUMNS or a.size < CHAIN_MIN_ROWS * w:
        return np.maximum.reduce(a, axis=-1, keepdims=True)
    out = np.maximum(a[..., :1], a[..., 1:2] if w > 1 else a[..., :1])
    for k in range(2, w):
        np.maximum(out, a[..., k : k + 1], out=out)
    return out


def _softmax_parts(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row max, exp(logits - max) and its row sums: the stable softmax."""
    zmax = _row_max(logits)
    expz = logits - zmax
    np.exp(expz, out=expz)
    # the ufunc reduction itself skips ndarray.sum's Python wrapper
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


def _end_to_end(parts: Sequence[np.ndarray]) -> np.ndarray:
    """parts end to end: the array whose rows they are, in order and with no
    rows around or between them, if there is one, else a new one."""
    whole, at = parts[0].base, np.cumsum([0] + [p.nbytes for p in parts])
    if isinstance(whole, np.ndarray) and whole.flags.c_contiguous and whole.nbytes == at[-1] and all(
        p.base is whole and p.dtype == whole.dtype and p.shape[1:] == whole.shape[1:] and p.flags.c_contiguous
        and p.ctypes.data == whole.ctypes.data + a for p, a in zip(parts, at)
    ):
        return whole
    return np.concatenate(parts)


# The most rows one launch or one scoring group holds: above it, the stacked
# forward of large sets ran slower than scoring them one by one.
ROW_BUDGET = 4096


def budget_chunks(members: list[int], rows_each: int) -> list[list[int]]:
    """members in order, in chunks of as many as fit in ROW_BUDGET rows at
    rows_each rows a member, and at least one."""
    step = max(1, ROW_BUDGET // max(rows_each, 1))
    return [members[k : k + step] for k in range(0, len(members), step)]


class RowBlock:
    """The labeled rows of several sets end to end, in the order given: set
    j, of sizes[j] rows, is rows starts[j] onwards of x and y.  Features or
    labels that already are those rows of one array, in that order, are
    that array, uncopied.

    groups splits the sets of each length, each length where it first
    occurs, into budget_chunks chunks: per chunk, its members (an index
    array) and the (g, n) indices of their rows, which stack its g sets of
    n rows."""

    def __init__(self, sets: Sequence["LabeledDataset"]) -> None:
        self.sizes = [len(d) for d in sets]
        self.x = _end_to_end([d.X for d in sets])
        self.y = _end_to_end([d.y for d in sets])
        self.starts = np.cumsum([0] + self.sizes[:-1])
        by_length: dict[int, list[int]] = {}
        for j, n in enumerate(self.sizes):
            by_length.setdefault(n, []).append(j)
        self.groups = [
            (np.array(chunk), self.starts[chunk][:, None] + np.arange(n))
            for n, same in by_length.items() for chunk in budget_chunks(same, n)
        ]


class LockstepPlan:
    """Mini-batch SGD for N clients at once on stacked weights, planned once
    for clients whose training sets never change.

    Client j trains on its rows of the row block, rows.starts[j] onwards,
    n_j = sizes[j] of them.  It walks exactly the batches it would walk alone: per epoch a fresh
    permutation from its own generator, cut into batch_size slices with the
    last one partial, each step moving its weights by -eta * gradient.  Layers before first_trained are frozen:
    they take part in the forward pass, but no gradient is computed for them
    and they are never updated.

    At step t every client that still has batches takes its t-th one.
    Clients whose batches have the same size form a bucket, which runs as
    stacked forward and backward passes (launches) of as many of its clients
    as fit in ROW_BUDGET rows (budget_chunks): np.matmul runs each client's
    own gemm on its own slice, and every reduction runs within one client's
    slice.  Buckets are never padded, because padding would change the
    shape of each client's gemm and reductions, and with them the rounding.
    Unpadded, every client's arithmetic is the same as in a run on its own,
    and no client reads another's weights, data or generator; so the result
    is bitwise independent of which clients share a launch and of the order
    in which launches run.

    Which clients share which launch depends only on the set sizes, so it is
    planned here, once: per launch its clients and, per member, where its
    batch starts in the pass's order array, which holds every client's
    permutations end to end.  A pass (run) only draws the permutations into
    that array and runs the launches.

    The weights are the given (N, P) block, laid out as weight_block lays
    it out, row j holding client j's layers; every pass trains it in place.
    A launch of every client works on it directly; any other gathers its
    rows into a spare block and scatters them back.  Gradients fill the
    trained columns of a second block, so an update is two whole-block
    operations.  A launch gathers its rows and labels from the row block and
    one-hot encodes the labels itself.  Its arrays hold at most ROW_BUDGET
    rows, unless one batch is larger, and are freed before the next launch
    allocates its own.
    """

    def __init__(
        self, spec: "ModelSpec", rows: RowBlock, block: np.ndarray,
        epochs: int, batch_size: int, first_trained: int = 0,
    ) -> None:
        self.spec, self.rows, self.block, self.epochs = spec, rows, block, epochs
        sizes = rows.sizes
        # client j's permutations fill order[offsets[j] : offsets[j] + epochs * sizes[j]]
        self.offsets = np.cumsum([0] + [epochs * n for n in sizes[:-1]]).tolist()
        self.order = np.empty(epochs * sum(sizes), dtype=np.intp)
        # every client's batches, step by step, as (size, first position in order)
        steps = [
            [(min(batch_size, n - i), off + e * n + i) for e in range(epochs) for i in range(0, n, batch_size)]
            for n, off in zip(sizes, self.offsets)
        ]
        frozen = sum(s.out_dim * (s.in_dim + 1) for s in spec.layers[:first_trained])
        spare, grad = np.empty_like(block), np.empty((len(sizes), block.shape[1] - frozen))
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
            for size, bucket in buckets.items():
                for clients in budget_chunks(bucket, size):
                    n = len(clients)
                    if n not in views:
                        sub = block if n == len(sizes) else spare[:n]
                        views[n] = (sub, _flat_views(spec, sub), sub[:, frozen:], grad[:n],
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

    def run(self, rngs: Sequence[np.random.Generator], eta: float) -> None:
        """One training pass of the block, in place; rngs[j] is client j's
        generator."""
        spec, block, x, y = self.spec, self.block, self.rows.x, self.rows.y
        eye = np.eye(spec.out_dim, dtype=bool)
        for (clients, _, _, (sub, ws, trained, g, gs)), rows in self.batches(rngs):
            if sub is not block:
                # clients are in range; "clip" skips the checked mode's buffered copy
                np.take(block, clients, axis=0, out=sub, mode="clip")
            # take gathers faster than fancy indexing; the activations and
            # the one-hot labels are freed before the next launch allocates
            _backprop(spec, ws, _forward(spec, ws, x.take(rows, axis=0)), eye.take(y.take(rows), axis=0), gs)
            g *= eta
            trained -= g
            if sub is not block:
                block[clients] = sub


def sgd(
    spec: "ModelSpec", base: Layers, personal: Layers, dataset: "LabeledDataset",
    cfg: SgdConfig, rng: np.random.Generator, first_trained: int = 0,
) -> tuple[Layers, Layers]:
    """Mini-batch SGD over the dataset for cfg.epochs epochs, on the
    lock-step engine with one client.

    Each epoch draws a fresh permutation from rng and walks batches of
    cfg.batch_size, updating base and personal by -eta * gradient; layers
    before first_trained stay frozen.  Inputs are not mutated; the updated
    copies are returned.
    """
    if len(dataset) == 0:
        raise UsageError("sgd requires a non-empty dataset")
    _check_model_weights(spec, base, personal)
    check_data(spec, dataset)
    block, layers = weight_block(spec, [base + personal])
    LockstepPlan(spec, RowBlock([dataset]), block, cfg.epochs, cfg.batch_size, first_trained).run([rng], cfg.eta)
    kb = spec.k_base
    return unstack_weights(layers[:kb], 0), unstack_weights(layers[kb:], 0)
