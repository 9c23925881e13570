"""Assembles datasets, partitions, and federation runs into experiments,
including the axis sweeps (heterogeneity level, personalization depth,
algorithm)."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Sequence

from . import rng as rngmod
from .data import K_CLASS, LabeledDataset, partition, train_test_split
from .errors import ConfigError, UsageError
from .metrics import SweepPoint, SweepResult, cross_client_stats
from .model import ModelSpec
from .protocol import FederationResult, RunConfig, run_federation

ALGORITHMS = ("fedper", "fedavg")

AXIS_K = "k"
AXIS_KP = "kp"
AXIS_ALGORITHM = "algorithm"
SWEEP_AXES = (AXIS_K, AXIS_KP, AXIS_ALGORITHM)


def algorithm_k_personal(algorithm: str, k_personal: int) -> int:
    """FedAvg is FedPer with no personalization layers."""
    return 0 if algorithm == "fedavg" else k_personal


def client_shards(
    ds: LabeledDataset, partition_spec
) -> list[tuple[LabeledDataset, LabeledDataset]]:
    """Partition the dataset over clients, then split each shard into its own
    train and test sets with a per-client seed derived from the partition seed."""
    return [
        train_test_split(
            shard, partition_spec.train_fraction, rngmod.derive_seed(partition_spec.seed, rngmod.SPLIT, j)
        )
        for j, shard in enumerate(partition(ds, partition_spec))
    ]


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
    """Partition + split + run_federation, fully determined by cfg and ds."""
    check_dataset(cfg, ds)
    shards = client_shards(ds, cfg.partition)
    return run_federation(cfg, shards, checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every)


def sweep_seed(master_seed: int, axis: str, value: int | str) -> int:
    """Per-point master seed, derived from the axis value itself so that
    reordering the values list leaves every point unchanged."""
    code = ALGORITHMS.index(value) if axis == AXIS_ALGORITHM else int(value)
    return rngmod.derive_seed(master_seed, rngmod.SWEEP, SWEEP_AXES.index(axis), code)


def sweep_variant(cfg: RunConfig, axis: str, value: int | str) -> RunConfig:
    """The base config with one axis changed and the per-value derived master
    seed.  The resolved partition seed is kept so shards stay comparable."""
    if axis not in SWEEP_AXES:
        raise UsageError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if axis == AXIS_ALGORITHM and value not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {value!r}; expected one of {ALGORITHMS}")
    if axis == AXIS_K and cfg.partition.mode != K_CLASS:
        raise UsageError(f"axis {AXIS_K} needs partition.mode {K_CLASS}; {cfg.partition.mode} ignores k")
    cfg = replace(cfg, master_seed=sweep_seed(cfg.master_seed, axis, value))
    if axis == AXIS_K:
        return replace(cfg, partition=replace(cfg.partition, k=int(value)))
    if axis == AXIS_KP:
        return replace(cfg, spec=ModelSpec(cfg.spec.layers, int(value)))
    return replace(cfg, spec=ModelSpec(cfg.spec.layers, algorithm_k_personal(value, cfg.spec.k_personal)))


def run_sweep(
    cfg: RunConfig,
    ds: LabeledDataset,
    axis: str,
    values: Sequence[int | str],
) -> SweepResult:
    """Re-run the experiment once per axis value; points are independent runs
    and come back sorted by value.  The values must be distinct, and every
    point's config is checked before the first one trains."""
    if len(values) == 0:
        raise UsageError("sweep needs at least one value")
    # each point writes a file named by its value, so a repeat would overwrite one
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise UsageError(f"sweep values must be distinct, got {repeated[0]!r} more than once")
    variants = [sweep_variant(cfg, axis, value) for value in values]
    for variant in variants:
        check_dataset(variant, ds)
    points = []
    for value, variant in zip(values, variants):
        result = run_experiment(variant, ds)
        stats = cross_client_stats(result.history.final_accuracies())
        points.append(SweepPoint(value, stats.mean, stats.std, result.history))
    points.sort(key=lambda p: p.value)
    return SweepResult(axis, points)
