"""Assembles datasets, partitions, and federation runs into experiments,
including the points of an axis sweep (heterogeneity level,
personalization depth, algorithm)."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from . import rng as rngmod
from .data import K_CLASS, LabeledDataset, PartitionSpec, partition_indices, relabel, split_positions
from .data import partition, train_test_split  # unused here; the benchmark traces both by these names
from .errors import ConfigError
from .nn import layout_order
from .protocol import FederationResult, RoundHistory, RunConfig, run_federation


def client_shards(ds: LabeledDataset, spec: PartitionSpec) -> list[tuple[LabeledDataset, LabeledDataset]]:
    """Partition the dataset over clients, then split each shard into its own
    train and test sets with a per-client seed derived from the partition
    seed: bitwise what partition and train_test_split give.  Each side's
    rows are one take of ds, in the order a RowBlock lays them out
    (nn.layout_order; the RowBlock then takes them over uncopied); every set
    is a view of them.  Only indices are held per client: each side takes
    its labels, relabels them client by client in place, then takes its
    features."""
    sides: tuple[list, list] = ([], [])  # per side, per client: its rows of ds
    for j, idx in enumerate(partition_indices(ds, spec)):
        seed = rngmod.derive_seed(spec.seed, rngmod.SPLIT, j)
        for side, pos in zip(sides, split_positions(len(idx), spec.train_fraction, seed)):
            side.append(idx.take(pos))
    shards = []
    for side in sides:
        order = layout_order([len(i) for i in side])
        cuts = np.cumsum([len(side[j]) for j in order])[:-1]
        idx = np.concatenate([side[j] for j in order])
        side.clear()
        y = np.split(ds.y.take(idx), cuts)
        for j, yj in zip(order, y):
            yj[...] = relabel(spec, j, yj, ds.num_classes)
        pieces = zip(np.split(ds.X.take(idx, axis=0), cuts), y)
        sets = [LabeledDataset(xj, yj, ds.num_classes) for xj, yj in pieces]
        shards.append([sets[k] for k in np.argsort(order)])
    return list(zip(*shards))


def check_dataset(cfg: RunConfig, ds: LabeledDataset) -> None:
    """Reject a run that cannot work on ds before any partitioning or
    training.  The model must match the data; under k_class each client
    needs k of the classes, and as every sample goes to exactly one client,
    more clients than samples would leave one with none."""
    if cfg.spec.in_dim != ds.X.shape[1]:
        raise ConfigError(f"model input dim {cfg.spec.in_dim} != dataset feature dim {ds.X.shape[1]}")
    if cfg.spec.out_dim != ds.num_classes:
        raise ConfigError(f"model output dim {cfg.spec.out_dim} != dataset classes {ds.num_classes}")
    spec = cfg.partition
    if spec.mode == K_CLASS and spec.k > ds.num_classes:
        raise ConfigError(f"k={spec.k} exceeds the number of classes {ds.num_classes}")
    if spec.mode == K_CLASS and spec.num_clients > len(ds):
        raise ConfigError(f"{spec.num_clients} k_class clients exceed the {len(ds)} samples; some would get none")


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
    return its history, in order.  Every point is checked against ds before
    the first one trains."""
    for run in runs:
        check_dataset(run, ds)
    return [run_experiment(run, ds).history for run in runs]
