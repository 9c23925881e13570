"""Assembles datasets, partitions, and federation runs into experiments,
including the points of an axis sweep (heterogeneity level,
personalization depth, algorithm).  A run's data reach the federation as
client_shards lays them out: one fedper.nn.RowBlock of training rows and
one of test rows."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import rng as rngmod
from .data import LabeledDataset, PartitionSpec, check_partition_size, partition_indices, relabel, split_positions
from .data import partition, train_test_split  # unused here; the benchmark traces both by these names
from .errors import ConfigError
from .nn import RowBlock
from .protocol import FederationResult, RoundHistory, RunConfig, run_federation


def client_shards(ds: LabeledDataset, spec: PartitionSpec) -> tuple[RowBlock, RowBlock]:
    """Partition the dataset over clients, then split each shard into its own
    train and test sets with a per-client seed derived from the partition
    seed: bitwise what partition and train_test_split give.  Returns the
    training and the test RowBlock, each side's rows one take of ds, in
    client order, and so its labels.  Only indices are held per client:
    each side takes its labels, relabels them client by client in place,
    then takes its features."""
    sides: tuple[list, list] = ([], [])  # per side, per client: its rows of ds
    for j, idx in enumerate(partition_indices(ds, spec)):
        seed = rngmod.derive_seed(spec.seed, rngmod.SPLIT, j)
        for side, pos in zip(sides, split_positions(len(idx), spec.train_fraction, seed)):
            side.append(idx.take(pos))
    blocks = []
    for side in sides:
        sizes = [len(i) for i in side]
        idx = np.concatenate(side)
        side.clear()
        y = ds.y.take(idx)
        for j, yj in enumerate(np.split(y, np.cumsum(sizes)[:-1])):
            yj[...] = relabel(spec, j, yj, ds.num_classes)
        blocks.append(RowBlock(ds.X.take(idx, axis=0), y, sizes))
    return blocks[0], blocks[1]


def check_fits(cfg: RunConfig, dim: int, num_classes: int, n: int, class_counts: Callable[[], Sequence[int]]) -> None:
    """Reject a run that does not fit a dataset of n samples of dim features
    and num_classes classes, class c having class_counts()[c] of them: its
    model must map dim features to num_classes scores, and its partition
    must leave every client a sample and a test sample
    (data.check_partition_size).  This is the one check of a run against
    its data: config.resolve applies it to the shape a synthetic config
    declares, before the dataset is built, and check_dataset to a dataset."""
    if cfg.spec.in_dim != dim:
        raise ConfigError(f"model input dim {cfg.spec.in_dim} != dataset feature dim {dim}")
    if cfg.spec.out_dim != num_classes:
        raise ConfigError(f"model output dim {cfg.spec.out_dim} != dataset classes {num_classes}")
    check_partition_size(cfg.partition, n, num_classes, class_counts)


def check_dataset(cfg: RunConfig, ds: LabeledDataset) -> None:
    """check_fits on ds's shape, before any partitioning or training: every
    command checks its runs against the dataset it built or loaded."""
    check_fits(cfg, ds.X.shape[1], ds.num_classes, len(ds), lambda: np.bincount(ds.y, minlength=ds.num_classes))


def run_experiment(
    cfg: RunConfig,
    ds: LabeledDataset,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 0,
) -> FederationResult:
    """Partition + split + run_federation, fully determined by cfg and ds.
    The federation holds no reference to ds: a caller that holds none
    either frees it before training starts."""
    check_dataset(cfg, ds)
    trains, tests = client_shards(ds, cfg.partition)
    del ds
    return run_federation(cfg, trains, tests, checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every)


def run_sweep(runs: Sequence[RunConfig], ds: LabeledDataset) -> list[RoundHistory]:
    """Run each resolved sweep point (see config.resolve_sweep) on ds and
    return its history, in order.  Every point is checked against ds, its
    partition and every client's test split included, before the first one
    trains."""
    for run in runs:
        check_dataset(run, ds)
    return [run_experiment(run, ds).history for run in runs]
