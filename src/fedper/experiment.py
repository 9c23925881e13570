"""Assembles datasets, partitions, and federation runs into experiments,
including the points of an axis sweep (heterogeneity level,
personalization depth, algorithm)."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from . import rng as rngmod
from .data import LabeledDataset, PartitionSpec, check_partition_fits, partition_indices, relabel, split_positions
from .data import partition, train_test_split  # unused here; the benchmark traces both by these names
from .errors import ConfigError
from .protocol import FederationResult, RoundHistory, RunConfig, run_federation


def client_shards(ds: LabeledDataset, spec: PartitionSpec) -> list[tuple[LabeledDataset, LabeledDataset]]:
    """Partition the dataset over clients, then split each shard into its own
    train and test sets with a per-client seed derived from the partition
    seed: bitwise what partition and train_test_split give.  Each side's
    rows are one take of ds, in client order, and so are its labels (a
    RowBlock takes both over uncopied); every set is a view of them.  Only
    indices are held per client: each side takes its labels, relabels them
    client by client in place, then takes its features."""
    sides: tuple[list, list] = ([], [])  # per side, per client: its rows of ds
    for j, idx in enumerate(partition_indices(ds, spec)):
        seed = rngmod.derive_seed(spec.seed, rngmod.SPLIT, j)
        for side, kind, pos in zip(sides, ("training", "test"), split_positions(len(idx), spec.train_fraction, seed)):
            if len(pos) == 0:  # a usage error, found before any row is gathered
                raise ConfigError(f"client {j} has an empty {kind} set")
            side.append(idx.take(pos))
    shards = []
    for side in sides:
        cuts = np.cumsum([len(i) for i in side])[:-1]
        idx = np.concatenate(side)
        side.clear()
        y = np.split(ds.y.take(idx), cuts)
        for j, yj in enumerate(y):
            yj[...] = relabel(spec, j, yj, ds.num_classes)
        pieces = zip(np.split(ds.X.take(idx, axis=0), cuts), y)
        shards.append([LabeledDataset(xj, yj, ds.num_classes) for xj, yj in pieces])
    return list(zip(*shards))


def check_dataset(cfg: RunConfig, ds: LabeledDataset) -> None:
    """Reject a run whose model does not match ds before any partitioning
    or training.  partition_indices checks that the partition fits ds
    (data.check_partition_size) before it partitions."""
    if cfg.spec.in_dim != ds.X.shape[1]:
        raise ConfigError(f"model input dim {cfg.spec.in_dim} != dataset feature dim {ds.X.shape[1]}")
    if cfg.spec.out_dim != ds.num_classes:
        raise ConfigError(f"model output dim {cfg.spec.out_dim} != dataset classes {ds.num_classes}")


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
    shards = client_shards(ds, cfg.partition)
    del ds
    return run_federation(cfg, shards, checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every)


def run_sweep(runs: Sequence[RunConfig], ds: LabeledDataset) -> list[RoundHistory]:
    """Run each resolved sweep point (see config.resolve_sweep) on ds and
    return its history, in order.  Every point is checked against ds, its
    partition included, before the first one trains."""
    for run in runs:
        check_dataset(run, ds)
        check_partition_fits(run.partition, ds)
    return [run_experiment(run, ds).history for run in runs]
