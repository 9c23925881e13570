"""Dataset generation, ingestion, and the two heterogeneity regimes:
balanced class-restricted partitions and unbalanced per-user volumes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import rng as rngmod
from .checkpoint import atomic_write
from .errors import ConfigError, ParseError, ShapeError

K_CLASS = "k_class"
UNBALANCED_USERS = "unbalanced_users"
PARTITION_MODES = (K_CLASS, UNBALANCED_USERS)


@dataclass(frozen=True)
class PartitionSpec:
    """How a dataset is spread over clients.

    k_class mode restricts each client to k of the label classes and divides
    every class equally among the clients allowed to sample it.
    unbalanced_users mode draws a per-client volume from volume_range and
    samples that many items (without replacement per client; clients may
    overlap), optionally relabeling per client to model rater disagreement.
    """

    mode: str
    num_clients: int
    k: int = 1
    volume_range: tuple[int, int] = (1, 1)
    train_fraction: float = 0.8
    seed: int = 0
    rater_disagreement: bool = False

    def __post_init__(self) -> None:
        if self.mode not in PARTITION_MODES:
            raise ConfigError(f"unknown partition mode {self.mode!r}; expected one of {PARTITION_MODES}")
        if self.num_clients < 1:
            raise ConfigError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.mode == K_CLASS and self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        lo, hi = self.volume_range
        if self.mode == UNBALANCED_USERS and not 1 <= lo <= hi:
            raise ConfigError(f"volume_range must satisfy 1 <= min <= max, got {self.volume_range}")
        if not 0 < self.train_fraction <= 1:
            raise ConfigError(f"train_fraction must be in (0, 1], got {self.train_fraction}")


@dataclass(eq=False)
class LabeledDataset:
    """Features X (n, d) float64 and labels y (n,) intp, plus the number of
    label classes; every label is in [0, num_classes)."""

    X: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.intp)
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.X.ndim != 2 or self.y.ndim != 1 or len(self.X) != len(self.y):
            raise ShapeError(f"features {self.X.shape} and labels {self.y.shape} are not (n, d) and (n,)")
        bad = np.flatnonzero((self.y < 0) | (self.y >= self.num_classes))
        if bad.size:
            i = int(bad[0])
            raise ConfigError(f"sample {i} has label {self.y[i]} outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, idx: np.ndarray) -> "LabeledDataset":
        """The rows at the given indices, in that order (a copy)."""
        return LabeledDataset(self.X[idx], self.y[idx], self.num_classes)


def class_means(num_classes: int, dim: int) -> np.ndarray:
    """Deterministic mixture means, pairwise at least unit-separated:
    class c sits at (1 + c // dim) times basis vector c % dim."""
    means = np.zeros((num_classes, dim))
    for c in range(num_classes):
        means[c, c % dim] = 1.0 + c // dim
    return means


def synth_classification(
    num_classes: int,
    dim: int,
    per_class: int,
    label_permutations: Sequence[Sequence[int]] | None = None,
    seed: int = 0,
    sigma: float = 0.5,
) -> LabeledDataset:
    """Gaussian-mixture classification data, one mean per class.

    label_permutations gives one label bijection per cluster; sample i of a
    class belongs to cluster i % len(label_permutations) and carries that
    cluster's permuted label.  Two clusters with conflicting permutations make
    the same feature region appear under different labels, which is what a
    shared global model cannot resolve.  Samples are ordered by generating
    class, then draw index.
    """
    if num_classes < 1 or dim < 1 or per_class < 1:
        raise ConfigError("num_classes, dim and per_class must all be >= 1")
    perms = [list(range(num_classes))] if label_permutations is None else [list(p) for p in label_permutations]
    for p in perms:
        if sorted(p) != list(range(num_classes)):
            raise ConfigError(f"label permutation {p} is not a bijection of range({num_classes})")

    gen = rngmod.stream(seed, rngmod.DATASET)
    means = class_means(num_classes, dim)
    x = np.empty((num_classes * per_class, dim))
    for c in range(num_classes):
        # drawn in place, then the same products and sums as means[c] + sigma * draws
        rows = gen.standard_normal(out=x[c * per_class : (c + 1) * per_class])
        rows *= sigma
        rows += means[c]
    cluster = np.arange(per_class) % len(perms)
    y = np.concatenate([np.asarray(perms)[cluster, c] for c in range(num_classes)])
    return LabeledDataset(x, y, num_classes)


def synth_shells(
    num_classes: int,
    dim: int,
    per_class: int,
    seed: int = 0,
    radius_step: float = 1.0,
    noise: float = 0.1,
) -> LabeledDataset:
    """Concentric-shell data: class c lives on the sphere of radius
    (c + 1) * radius_step with radial jitter.  Not linearly separable, so a
    model whose layers are all linear cannot do better than chance on it."""
    if num_classes < 1 or dim < 1 or per_class < 1:
        raise ConfigError("num_classes, dim and per_class must all be >= 1")
    gen = rngmod.stream(seed, rngmod.DATASET)
    shells = []
    for c in range(num_classes):
        direction = gen.standard_normal((per_class, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = (c + 1) * radius_step + noise * gen.standard_normal((per_class, 1))
        shells.append(direction * radius)
    return LabeledDataset(np.concatenate(shells), np.repeat(np.arange(num_classes), per_class), num_classes)


def _check_every_client_sampled(spec: PartitionSpec, num_classes: int, sizes: list[int]) -> None:
    """Raise ConfigError if a k_class client's shares, sizes[j] samples in all, leave it none."""
    if 0 in sizes:
        j = sizes.index(0)
        raise ConfigError(
            f"k_class client {j} would get no sample: each of its classes "
            f"{client_classes(spec, num_classes)[j]} has fewer samples than clients allowed it"
        )


def check_partition_size(
    spec: PartitionSpec, n: int, num_classes: int, class_counts: Callable[[], Sequence[int]]
) -> None:
    """Raise ConfigError unless n samples of num_classes classes, class c
    having class_counts()[c] of them, can be partitioned under spec with
    each client's n_j samples (the class_shares of its k_class classes, or
    its unbalanced_users client_volume, at most volume_range max) above
    ceil(train_fraction * n_j), leaving it a test sample.  class_counts is
    called only once k_class_owners has found every class held by a client,
    so labels that imply far more classes than the clients hold are never
    counted class by class."""
    if spec.mode == UNBALANCED_USERS:
        lo, hi = spec.volume_range
        if hi > n:
            raise ConfigError(f"volume_range max {hi} exceeds dataset size {n}")
        # a test set never shrinks as the volume grows: draw volumes only if the least keeps none
        drawn = lo == math.ceil(spec.train_fraction * lo)
        sizes = [client_volume(spec, j)[1] for j in range(spec.num_clients)] if drawn else []
    else:  # k_class gives every sample to exactly one client
        if spec.num_clients > n:
            raise ConfigError(f"{spec.num_clients} k_class clients exceed the {n} samples; some would get none")
        sizes, owners = [0] * spec.num_clients, k_class_owners(spec, num_classes)
        for count, clients in zip(class_counts(), owners):
            for j, take in zip(clients, class_shares(int(count), len(clients))):
                sizes[j] += take
        _check_every_client_sampled(spec, num_classes, sizes)
    for j, n_j in enumerate(sizes):
        if n_j == math.ceil(spec.train_fraction * n_j):
            raise ConfigError(f"client {j} has an empty test set: its split trains on all {n_j} of its samples")


def client_classes(spec: PartitionSpec, num_classes: int) -> list[list[int]]:
    """Deterministic cyclic class assignment: client j gets classes
    {(j*s + i) mod C : 0 <= i < k} with stride s = max(1, C // N)."""
    stride = max(1, num_classes // spec.num_clients)
    return [
        sorted({(j * stride + i) % num_classes for i in range(spec.k)})
        for j in range(spec.num_clients)
    ]


def k_class_owners(spec: PartitionSpec, num_classes: int) -> list[list[int]]:
    """The clients allowed each class (client_classes), in client order.
    Raises ConfigError if k exceeds the number of classes or a class has no
    client; that check stops at the first such class, so it never walks
    more than the N * k assigned ones, however many classes the labels
    imply."""
    if spec.mode != K_CLASS:
        raise ConfigError(f"partition mode is {spec.mode!r}, expected {K_CLASS!r}")
    if spec.k > num_classes:
        raise ConfigError(f"k={spec.k} exceeds the number of classes {num_classes}")
    assignment = client_classes(spec, num_classes)
    covered = set().union(*assignment)
    for c in range(num_classes):
        if c not in covered:
            raise ConfigError(
                f"class {c} has no eligible client under N={spec.num_clients}, k={spec.k}; "
                "increase k or num_clients"
            )
    owners: list[list[int]] = [[] for _ in range(num_classes)]
    for j, classes in enumerate(assignment):
        for c in classes:
            owners[c].append(j)
    return owners


def class_shares(n: int, owners: int) -> list[int]:
    """How many of a class's n samples each of its owners takes, in client
    order: equal shares, one more each to the first n % owners."""
    share, rem = divmod(n, owners)
    return [share + (rank < rem) for rank in range(owners)]


def partition_k_class_indices(ds: LabeledDataset, spec: PartitionSpec) -> list[np.ndarray]:
    """Sample indices per client for the class-restricted balanced partition.

    Each class's samples are split into class_shares among its eligible
    clients (k_class_owners); within-share selection is shuffled by the
    spec seed.  The result is an exact partition of the dataset's indices;
    a client whose classes have too few samples gets none
    (partition_indices refuses that).
    """
    gen = rngmod.stream(spec.seed, rngmod.PARTITION)
    shares: list[list[np.ndarray]] = [[] for _ in range(spec.num_clients)]
    for c, owners in enumerate(k_class_owners(spec, ds.num_classes)):
        idx = np.flatnonzero(ds.y == c)
        gen.shuffle(idx)
        pos = 0
        for j, take in zip(owners, class_shares(len(idx), len(owners))):
            shares[j].append(idx[pos : pos + take])
            pos += take
    return [np.concatenate(parts) for parts in shares]


def client_volume(spec: PartitionSpec, client_id: int) -> tuple[np.random.Generator, int]:
    """Client client_id's partition stream and its volume, its first draw."""
    gen = rngmod.stream(spec.seed, rngmod.PARTITION, client_id)
    return gen, int(gen.integers(spec.volume_range[0], spec.volume_range[1] + 1))


def partition_unbalanced_indices(ds: LabeledDataset, spec: PartitionSpec) -> list[np.ndarray]:
    """Sample indices per client for the unbalanced per-user regime.

    Client j draws its volume n_j uniformly from volume_range and then n_j
    items without replacement, all from its own seeded stream; different
    clients may overlap.  A volume_range max above len(ds) is refused.
    """
    if spec.mode != UNBALANCED_USERS:
        raise ConfigError(f"partition mode is {spec.mode!r}, expected {UNBALANCED_USERS!r}")
    if spec.volume_range[1] > len(ds):
        raise ConfigError(f"volume_range max {spec.volume_range[1]} exceeds dataset size {len(ds)}")
    volumes = (client_volume(spec, j) for j in range(spec.num_clients))
    return [gen.choice(len(ds), size=n_j, replace=False) for gen, n_j in volumes]


def partition_indices(ds: LabeledDataset, spec: PartitionSpec) -> list[np.ndarray]:
    """Each client's sample indices.  Refuses only a volume_range past the data
    and a k_class client left without a sample; experiment.check_fits the rest."""
    if spec.mode == UNBALANCED_USERS:
        return partition_unbalanced_indices(ds, spec)
    indices = partition_k_class_indices(ds, spec)
    _check_every_client_sampled(spec, ds.num_classes, [len(idx) for idx in indices])
    return indices


def relabel(spec: PartitionSpec, client_id: int, y: np.ndarray, num_classes: int) -> np.ndarray:
    """A client's labels of items labeled y: under unbalanced_users with
    rater_disagreement, a client-specific permutation of the classes."""
    if spec.mode == UNBALANCED_USERS and spec.rater_disagreement:
        return rngmod.stream(spec.seed, rngmod.PARTITION, client_id, 1).permutation(num_classes)[y]
    return y


def partition(ds: LabeledDataset, spec: PartitionSpec) -> list[LabeledDataset]:
    """One dataset per client, gathered at partition_indices and relabeled."""
    return [
        LabeledDataset(ds.X[idx], relabel(spec, j, ds.y[idx], ds.num_classes), ds.num_classes)
        for j, idx in enumerate(partition_indices(ds, spec))
    ]


def split_positions(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions of n samples that train_test_split sends to train and
    to test: a seeded permutation, cut after ceil(fraction * n)."""
    if not 0 < fraction <= 1:
        raise ConfigError(f"train fraction must be in (0, 1], got {fraction}")
    perm = rngmod.stream(seed, rngmod.SPLIT).permutation(n)
    n_train = math.ceil(fraction * n)
    return perm[:n_train], perm[n_train:]


def train_test_split(
    ds: LabeledDataset, fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded shuffle, then ceil(fraction * n) samples to train, rest to test."""
    train, test = split_positions(len(ds), fraction, seed)
    return ds.subset(train), ds.subset(test)


def save_csv(ds: LabeledDataset, path: str | Path) -> None:
    """Write `f0,...,f{d-1},label` rows atomically; floats use repr so a reload is exact."""
    lines = [",".join([f"f{i}" for i in range(ds.X.shape[1])] + ["label"])]
    for x, y in zip(ds.X, ds.y):
        lines.append(",".join([repr(float(v)) for v in x] + [str(int(y))]))
    atomic_write(Path(path), "\n".join(lines) + "\n")


def load_csv(path: str | Path) -> LabeledDataset:
    """Parse a `f0,...,f{d-1},label` CSV into a dataset; C = max label + 1."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except ValueError as exc:  # a UnicodeDecodeError
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[-1].strip() != "label" or any(
        h.strip() != f"f{i}" for i, h in enumerate(header[:-1])
    ):
        raise ParseError(f"{path}: line 1: expected header f0,...,f{{d-1}},label, got {lines[0]!r}")
    dim = len(header) - 1

    rows: list[list[float]] = []
    labels: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != dim + 1:
            raise ParseError(f"{path}: line {lineno}: expected {dim + 1} fields, got {len(fields)}")
        try:
            row = [float(v) for v in fields[:-1]]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: bad feature value: {exc}") from exc
        bad = [v.strip() for v, x in zip(fields, row) if not math.isfinite(x)]
        if bad:
            raise ParseError(f"{path}: line {lineno}: non-finite feature value {bad[0]!r}")
        rows.append(row)
        label_text = fields[-1].strip()
        try:
            y = int(label_text)
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: non-integer label {label_text!r}") from exc
        if y < 0:
            raise ParseError(f"{path}: line {lineno}: negative label {y}")
        if y > np.iinfo(np.intp).max:
            raise ParseError(f"{path}: line {lineno}: label {y} is too large (at most {np.iinfo(np.intp).max})")
        labels.append(y)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    x = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    return LabeledDataset(x, labels, max(labels) + 1)
