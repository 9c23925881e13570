"""Dense feed-forward networks: forward pass, exact backpropagation, and the
lock-step engine that runs every client's local training and scoring.

Weights are float64 throughout so that protocol-level equivalence tests can
compare trajectories bitwise.  A network is described by a ModelSpec (see
fedper.model), and its weights are a list of (W, b) pairs, one per layer: the
shared base layers followed by the client-local personalization layers, so
the model is base + personal.  For training, the weights of N clients are
the rows of one (N, P) block, which columns alone lays out (every layer
from an even column), viewed per layer as (N, out, in) and (N, out) stacks.

The engine is planned once per run, as a client's data never changes.  One
planner (launches) makes every launch: one per lock-step step (more past
the plan's row budget, ROW_BUDGET unless given), its batches of one size a
segment.  A RowBlock holds the clients' rows and labels end to end, in
client order, in the arrays it is given, which no plan copies; sets views
a range of its sets.  A LockstepPlan lays out, once, its launches' views
of one workspace (the plans of a group of a run's clients share one) and
works on one (N, P) weight block (weight_block), or a view of a range of
its rows: every launch gathers its members' rows of it into the plan's
launch block.  Plans on disjoint clients share nothing they write, so
fedper.protocol runs those of several client groups on threads at once.
run shuffles each client's slice of the order array in place, trains and
scatters the rows back; score, on a one-epoch plan whose batch is the
whole set, takes each set's mean of a per-row measure.  sgd is the same
engine with one client, as is fedper.metrics.evaluate, each reading its
set's arrays as they are; loss_and_grad alone runs a launch of its own,
one segment of one batch.
"""

from __future__ import annotations

import hashlib
import itertools
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


def weights_equal(a: Layers, b: Layers) -> bool:
    """Bitwise equality of two float64 weight lists: shapes and blobs."""
    shapes = [[(w.shape, bias.shape) for w, bias in ws] for ws in (a, b)]
    return shapes[0] == shapes[1] and weights_blob(a) == weights_blob(b)


def init_weights(layer_specs: Sequence[LayerSpec], rng: np.random.Generator) -> Layers:
    """Random initialization: W uniform on +-sqrt(6/(fan_in+fan_out)), biases zero."""
    layers = []
    for spec in layer_specs:
        limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        w = rng.uniform(-limit, limit, size=(spec.out_dim, spec.in_dim))
        b = np.zeros(spec.out_dim)
        layers.append((w, b))
    return layers


def check_weights(spec: "ModelSpec", base: Layers, personal: Layers) -> None:
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


def unstack_weights(layers: Layers, j: int) -> Layers:
    """Row j of layer stacks, as views."""
    return [(w[j], b[j]) for w, b in layers]


def columns(shapes: Sequence[tuple[int, int]]) -> list[int]:
    """Where each layer of these (out, in) weight shapes starts in a row of
    a weight block, then the row's width.  A layer is its W (row-major),
    its b and, if that is odd, one pad column (0.0): every W starts at an
    even column, 16-byte aligned like a fresh array, as OpenBLAS's generic
    core rounds some products differently at an odd float64 offset."""
    return list(itertools.accumulate(((o * i + o + 1) // 2 * 2 for o, i in shapes), initial=0))


def weight_block(sets: Sequence[Layers]) -> tuple[np.ndarray, Layers]:
    """An (N, P) block whose row j holds a copy of sets[j], weight lists of
    the shapes of sets[0], laid out by columns (pads 0.0), and its layer
    stacks: per layer an (N, out, in) weight and an (N, out) bias view."""
    shapes = [w.shape for ws in sets[:1] for w, _ in ws]
    block = np.zeros((len(sets), columns(shapes)[-1]))
    layers = _flat_views(shapes, block)
    for j, ws in enumerate(sets):
        for (w, b), (lw, lb) in zip(layers, ws):
            w[j] = lw
            b[j] = lb
    return block, layers


def _flat_views(shapes: Sequence[tuple[int, int]], block: np.ndarray) -> Layers:
    """Stacked (W, b) views of layers of these (out, in) weight shapes into
    an (n, P) block whose rows are laid out by columns."""
    return [
        (block[:, a : a + o * i].reshape(len(block), o, i), block[:, a + o * i : a + o * i + o])
        for a, (o, i) in zip(columns(shapes), shapes)
    ]


def _activations(spec: "ModelSpec", x: np.ndarray) -> list[np.ndarray]:
    """x, a launch's (rows, in_dim) rows, then an empty (rows, out) array per layer."""
    return [x] + [np.empty((len(x), s.out_dim)) for s in spec.layers]


def _split(shapes: Sequence[tuple[int, int]], arrays: Sequence[np.ndarray]):
    """Per segment (g, n) of a launch: the slice of its g members and its
    (g, n, ...) view of each of arrays, which hold the launch's rows in order."""
    m = r = 0
    for g, n in shapes:
        yield slice(m, m + g), [a[r : r + g * n].reshape(g, n, *a.shape[1:]) for a in arrays]
        m, r = m + g, r + g * n


def _segment(layers: Layers, acts: Sequence[np.ndarray], grads: Layers = ()) -> list[tuple]:
    """A segment's operands per layer: input and output activations (the
    output becomes the delta in _backprop), W, W transposed, b as a row, the
    output transposed, and gradients for the last len(grads) layers."""
    grads = [(None, None)] * (len(layers) - len(grads)) + list(grads)
    return [
        (acts[i], acts[i + 1], w, w.swapaxes(-1, -2), b[..., None, :], acts[i + 1].swapaxes(-1, -2), gw, gb)
        for i, ((w, b), (gw, gb)) in enumerate(zip(layers, grads))
    ]


def _forward(spec: "ModelSpec", acts: list[np.ndarray], segments: Sequence[list[tuple]]) -> np.ndarray:
    """Run the stack on a launch's rows, acts[0], into acts[1:]; returns the
    logits, acts[-1].  Each segment's gemms and bias adds run on its own
    rows, every (n, in) slice of them its own pass; relu runs once over all
    the launch's rows."""
    for i, lspec in enumerate(spec.layers):
        for segment in segments:
            x, z, _, wt, bias, _, _, _ = segment[i]
            np.matmul(x, wt, out=z)
            z += bias
        if lspec.activation == "relu":
            np.maximum(acts[i + 1], 0.0, out=acts[i + 1])
    return acts[-1]


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


def _softmax_parts(logits: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row max, exp(logits - max) (into out if given) and its row sums."""
    zmax = _row_max(logits)
    expz = np.subtract(logits, zmax, out=out)
    np.exp(expz, out=expz)
    # the ufunc reduction itself skips ndarray.sum's Python wrapper
    return zmax, expz, np.add.reduce(expz, axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row softmax cross-entropy of (rows, classes) logits,
    logsumexp(logits) - logits[y]."""
    zmax, _, sums = _softmax_parts(logits)
    return np.log(sums[:, 0]) + zmax[:, 0] - logits[np.arange(len(y)), y]


def _backprop(
    spec: "ModelSpec", acts: list[np.ndarray], segments: Sequence[list[tuple]],
    onehot: np.ndarray, counts, first_trained: int = 0,
) -> None:
    """Exact gradients of each batch's mean cross-entropy for the layers from
    first_trained on, written into the segments' gradient views, from the
    launch's forward pass, whose activations become the deltas.  onehot is
    True at each row's label; counts is each row's batch size (a column or a
    number).  Gemms and reductions run per segment, the rest once."""
    logits = acts[-1]
    # the final layer's activation is part of the chain too; relu's
    # derivative is 1 exactly where its output a is > 0, identity's is 1
    alive = logits > 0.0 if spec.layers[-1].activation == "relu" else None
    _, delta, sums = _softmax_parts(logits, out=logits)
    # softmax minus the one-hot label; subtracting 0.0 leaves a value exact
    delta /= sums
    delta -= onehot
    delta /= counts
    for i in range(len(spec.layers) - 1, first_trained - 1, -1):
        if alive is not None:
            acts[i + 1] *= alive
        # acts[i] is read here for the last time, so the next delta
        # overwrites it instead of taking new memory
        alive = acts[i] > 0.0 if i > first_trained and spec.layers[i - 1].activation == "relu" else None
        for segment in segments:
            x, z, w, _, _, zt, gw, gb = segment[i]
            np.matmul(zt, x, out=gw)
            np.add.reduce(z, axis=-2, out=gb)
            if i > first_trained:
                np.matmul(z, w, out=x)


def loss_and_grad(
    spec: "ModelSpec", base: Layers, personal: Layers, batch: "LabeledDataset"
) -> tuple[float, Layers, Layers]:
    """Mean cross-entropy over the batch plus exact gradients for base and personal."""
    if len(batch) == 0:
        raise UsageError("loss_and_grad requires a non-empty batch")
    check_weights(spec, base, personal)
    check_data(spec, batch)
    layers = base + personal
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
    acts = _activations(spec, batch.X)
    segments = [_segment(layers, acts, grads)]
    loss = float(np.mean(cross_entropy(_forward(spec, acts, segments), batch.y)))
    _backprop(spec, acts, segments, np.eye(spec.out_dim, dtype=bool).take(batch.y, axis=0), len(batch))
    kb = spec.k_base
    return loss, grads[:kb], grads[kb:]


# The most rows one launch holds: above it, the stacked forward of large
# sets ran slower than scoring them one by one.
ROW_BUDGET = 4096


def launches(
    sizes: Sequence[int], offsets: Sequence[int], epochs: int, batch_size: int, budget: int | None = None
) -> list[tuple]:
    """The stacked launches of a lock-step pass of sets of these sizes,
    each walked epochs times in batches of batch_size, the last one partial:
    the batch of epoch e that starts at sample i of set j starts at position
    offsets[j] + e * sizes[j] + i of an order array.  A launch holds batches
    of one step: at step t they go by size, each size where it first occurs
    and its sets in order, as many to a launch as fit in budget rows
    (ROW_BUDGET if None) and at least one.  Per launch: its members, its
    rows' positions and its segments' (members, batch size), one segment per
    size."""
    budget = ROW_BUDGET if budget is None else budget
    steps = [
        [(min(batch_size, n - i), j, off + e * n + i) for e in range(epochs) for i in range(0, n, batch_size)]
        for j, (n, off) in enumerate(zip(sizes, offsets))
    ]
    planned = []
    for t in range(max(map(len, steps))):
        buckets: dict[int, list[tuple[int, int, int]]] = {}
        for s in steps:
            if t < len(s):
                buckets.setdefault(s[t][0], []).append(s[t])
        cuts, rows = [[]], 0
        for batch in itertools.chain(*buckets.values()):
            if cuts[-1] and rows + batch[0] > budget:
                cuts, rows = cuts + [[]], 0
            cuts[-1].append(batch)
            rows += batch[0]
        for batches in cuts:
            n, members, at = np.array(batches).T
            # batch b's samples are positions at[b] onwards, rows cumsum(n)[b - 1] onwards
            positions = np.arange(n.sum()) + np.repeat(at - np.cumsum(n) + n, n)
            shapes = tuple((len(list(run)), k) for k, run in itertools.groupby(n.tolist()))
            planned.append((members.copy(), positions, shapes))  # contiguous indices gather faster
    return planned


class RowBlock:
    """The labeled rows of several sets end to end, in the order given: set
    j, of sizes[j] rows, is rows starts[j] onwards of the features x and
    the labels y, which are held as given."""

    def __init__(self, x: np.ndarray, y: np.ndarray, sizes: Sequence[int]) -> None:
        self.x, self.y, self.sizes = x, y, list(sizes)
        self.starts = np.cumsum([0] + self.sizes[:-1])

    def sets(self, lo: int, hi: int) -> "RowBlock":
        """Sets lo..hi-1 as a RowBlock of views of this one's arrays."""
        start = sum(self.sizes[:lo])
        end = start + sum(self.sizes[lo:hi])
        return RowBlock(self.x[start:end], self.y[start:end], self.sizes[lo:hi])


def _launch_views(
    spec: "ModelSpec", block: np.ndarray, planned: list[tuple], first_trained: int, workspace: list | None = None
) -> tuple[list[tuple], list[np.ndarray]]:
    """The launches of planned, each with its views of one workspace (the
    given _activations arrays if they have the rows): its members' rows of
    a launch block, their columns from layer first_trained on and a
    gradient block for them, its activations, each row's batch size and its
    segments' operands."""
    most = max(len(p) for _, p, _ in planned)
    if workspace is None or len(workspace[0]) < most:
        workspace = _activations(spec, np.empty((most, spec.in_dim)))
    layer_shapes = [(s.out_dim, s.in_dim) for s in spec.layers]
    frozen = columns(layer_shapes)[first_trained]
    launch_block = np.empty((max(len(m) for m, _, _ in planned), block.shape[1]))
    grad = np.zeros((len(launch_block), block.shape[1] - frozen))  # its pads stay 0.0
    work, views = {}, []
    for members, positions, shapes in planned:
        if shapes not in work:  # launches of one layout share views
            sub, g, acts = launch_block[: len(members)], grad[: len(members)], [a[: len(positions)] for a in workspace]
            segments = [
                _segment(_flat_views(layer_shapes, sub[ms]), live, _flat_views(layer_shapes[first_trained:], g[ms]))
                for ms, live in _split(shapes, acts)
            ]
            counts = np.repeat([float(n) for _, n in shapes], [k * n for k, n in shapes])[:, None]
            work[shapes] = (sub, sub[:, frozen:], g, acts, counts, segments)
        views.append((members, positions, shapes, work[shapes]))
    return views, workspace


class LockstepPlan:
    """Mini-batch SGD for N clients at once on stacked weights, planned once
    for clients whose training sets never change.

    Client j trains on its rows of the row block, rows.starts[j] onwards,
    n_j = sizes[j] of them.  It walks exactly the batches it would walk
    alone: per epoch a fresh permutation from its own generator, cut into
    batch_size slices with the last one partial, each step moving its
    weights by -eta * gradient.  Layers before first_trained are frozen:
    they take part in the forward pass, but are never updated.

    A step runs as one launch (more past budget rows, ROW_BUDGET if None),
    planned by launches(); its batches of one size are a segment.
    np.matmul runs each client's own gemm on its own slice of a segment,
    and every reduction runs within one client's slice; no batch is padded,
    as padding would change the gemm shapes and with them the rounding.
    So every client's arithmetic is that of a run on its own, whichever
    clients share a launch; the elementwise work runs once per launch.

    The weights are the given (N, P) block, each row laid out by columns,
    row j holding client j's layers.  Every launch gathers its members'
    rows into the plan's launch block, and run scatters them back.
    The plan lays out every launch's views of one workspace (_launch_views),
    workspace's arrays if they have the rows.  A plan that trains a layer
    also holds the order array, whose per-client slices run fills and
    shuffles in place, the draws of gen.permutation (an arange, shuffled).

    Scoring is a pass of the same planner: with one epoch whose batch is
    the whole set, each set is one batch, whose positions are its rows.
    """

    def __init__(
        self, spec: "ModelSpec", rows: RowBlock, block: np.ndarray, epochs: int, batch_size: int,
        first_trained: int = 0, workspace: list | None = None, budget: int | None = None,
    ) -> None:
        self.spec, self.rows, self.block, self.epochs, self.first_trained = spec, rows, block, epochs, first_trained
        sizes = rows.sizes
        # client j's permutations fill order[offsets[j] : offsets[j] + epochs * sizes[j]]
        offsets = np.cumsum([0] + [epochs * n for n in sizes[:-1]]).tolist()
        if first_trained < len(spec.layers):  # only a pass that trains shuffles
            self.template = np.concatenate([np.tile(np.arange(a, a + n), epochs) for a, n in zip(rows.starts, sizes)])
            self.order = np.empty_like(self.template)
            self.shuffles = np.split(self.order, np.cumsum([n for n in sizes for _ in range(epochs)])[:-1])
        planned = launches(sizes, offsets, epochs, batch_size, budget)
        self.launches, self.workspace = _launch_views(spec, block, planned, first_trained, workspace)

    def batches(self, rngs: Sequence[np.random.Generator]):
        """Draw one pass's permutations, rngs[j] being client j's generator,
        and yield each launch with its rows of the row block."""
        order = self.order
        np.copyto(order, self.template)
        for gen, part in zip((gen for gen in rngs for _ in range(self.epochs)), self.shuffles):
            gen.shuffle(part)
        for launch in self.launches:
            yield launch, order.take(launch[1])

    def run(self, rngs: Sequence[np.random.Generator], eta: float) -> None:
        """One training pass of the block, in place; rngs[j] is client j's
        generator."""
        spec, block, x, y, first = self.spec, self.block, self.rows.x, self.rows.y, self.first_trained
        eye = np.eye(spec.out_dim, dtype=bool)
        for (clients, _, _, (sub, trained, g, acts, counts, segments)), rows in self.batches(rngs):
            # every index is in range; "clip" skips the checked mode's
            # buffered copy, which it makes for out=
            block.take(clients, axis=0, out=sub, mode="clip")
            x.take(rows, axis=0, out=acts[0], mode="clip")
            _forward(spec, acts, segments)
            _backprop(spec, acts, segments, eye.take(y.take(rows), axis=0), counts, first)
            g *= eta
            trained -= g
            block[clients] = sub

    def score(self, measure) -> list[float]:
        """The mean over set j's rows of measure (fedper.metrics.correct or
        cross_entropy, one value per row of logits and labels) of row j of
        the block, for every set j, bitwise as evaluate gives it: the plan
        must be of one epoch whose batch is the whole set."""
        if sum(len(launch[0]) for launch in self.launches) != len(self.rows.sizes):
            raise UsageError("score needs a plan of one epoch whose batch is the whole set")
        block, x, y = self.block, self.rows.x, self.rows.y
        results = np.empty(len(self.rows.sizes))
        for members, rows, shapes, (sub, _, _, acts, _, segments) in self.launches:
            block.take(members, axis=0, out=sub, mode="clip")  # "clip": see run
            x.take(rows, axis=0, out=acts[0], mode="clip")
            values = measure(_forward(self.spec, acts, segments), y.take(rows))
            results[members] = np.concatenate(
                [np.add.reduce(v, axis=-1) / n for (_, (v,)), (_, n) in zip(_split(shapes, [values]), shapes)]
            )
        return results.tolist()


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
    check_weights(spec, base, personal)
    check_data(spec, dataset)
    block, layers = weight_block([base + personal])
    rows = RowBlock(dataset.X, dataset.y, [len(dataset)])
    LockstepPlan(spec, rows, block, cfg.epochs, cfg.batch_size, first_trained).run([rng], cfg.eta)
    kb = spec.k_base
    return unstack_weights(layers[:kb], 0), unstack_weights(layers[kb:], 0)
