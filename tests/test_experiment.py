from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import fedper.experiment
from fedper.config import apply_overrides, build_dataset, default_config, resolve_sweep, sweep_seed
from fedper.data import PartitionSpec, partition, synth_classification, train_test_split
from fedper.errors import ConfigError, UsageError
from fedper.experiment import client_shards, run_experiment, run_sweep
from fedper.model import ModelSpec
from fedper.nn import LayerSpec, RowBlock, SgdConfig
from fedper.protocol import RunConfig
from fedper.rng import SPLIT, derive_seed


def base_setup(num_clients=4, k=2, rounds=3, k_personal=1, seed=101):
    spec = ModelSpec(
        (LayerSpec(4, 8, "relu"), LayerSpec(8, 4, "identity")), k_personal
    )
    part = PartitionSpec(mode="k_class", num_clients=num_clients, k=k, train_fraction=0.8, seed=31)
    cfg = RunConfig(
        spec=spec, rounds=rounds, sgd=SgdConfig(0.05, 2, 8),
        fine_tune=False, master_seed=seed, partition=part,
    )
    ds = synth_classification(4, 4, 40, seed=17)
    return cfg, ds


def sweep_setup(axis, values, rounds=3):
    """The sweep of a small config dict: its base run, one run per value and
    the dataset they share."""
    cfg = apply_overrides(default_config(), [
        f"rounds={rounds}", "dataset.dim=4", "dataset.per_class=40", "partition.num_clients=4",
        'model.layers=[{"in_dim":4,"out_dim":8,"activation":"relu"},{"in_dim":8,"out_dim":4,"activation":"identity"}]',
        "sgd.eta=0.05", "sgd.epochs=2", "sgd.batch_size=8", "master_seed=101",
    ])
    base, runs = resolve_sweep(cfg, axis, values)
    return base, runs, build_dataset(base.dataset)


class TestPipeline:
    def test_shards_split_per_client(self):
        cfg, ds = base_setup()
        shards = client_shards(ds, cfg.partition)
        assert len(shards) == 4
        for train, test in shards:
            total = len(train) + len(test)
            assert len(train) == pytest.approx(0.8 * total, abs=1)
            assert len(test) >= 1

    @pytest.mark.parametrize("spec", [
        # 7 clients over 4 classes: ragged sets
        PartitionSpec(mode="k_class", num_clients=7, k=2, train_fraction=0.8, seed=31),
        PartitionSpec(
            mode="unbalanced_users", num_clients=6, volume_range=(3, 60), train_fraction=0.7, seed=5,
            rater_disagreement=True,
        ),
    ])
    def test_one_gather_per_side_equals_partition_then_split(self, spec):
        ds = synth_classification(4, 3, 40, seed=17)
        shards = client_shards(ds, spec)
        expected = [
            train_test_split(shard, spec.train_fraction, derive_seed(spec.seed, SPLIT, j))
            for j, shard in enumerate(partition(ds, spec))
        ]
        assert len(shards) == len(expected) == spec.num_clients
        for got, want in zip(shards, expected):
            for g, w in zip(got, want):
                assert g.num_classes == w.num_classes
                assert g.X.tobytes() == w.X.tobytes() and g.y.tobytes() == w.y.tobytes()
        for side in (0, 1):
            sets = [pair[side] for pair in shards]
            x_block, y_block = sets[0].X.base, sets[0].y.base
            assert x_block is not None and y_block is not None
            assert all(d.X.base is x_block and d.y.base is y_block for d in sets)
            assert len(x_block) == len(y_block) == sum(len(d) for d in sets)
            # the row block reads the rows where they were gathered
            rows = RowBlock(sets)
            assert rows.x is x_block and rows.y is y_block

    def test_deterministic(self):
        cfg, ds = base_setup()
        assert run_experiment(cfg, ds).history == run_experiment(cfg, ds).history

    def test_class_count_mismatch_rejected(self):
        cfg, _ = base_setup()
        bad = synth_classification(3, 4, 10, seed=0)
        with pytest.raises(ConfigError):
            run_experiment(cfg, bad)


class TestSweep:
    def test_singleton_equals_direct_run(self):
        base, runs, ds = sweep_setup("k", [2])
        direct = run_experiment(replace(base.run, master_seed=sweep_seed(base.run.master_seed, "k", 2)), ds)
        histories = run_sweep(runs, ds)
        assert len(histories) == 1
        assert histories[0] == direct.history

    def test_kp_zero_point_equals_fedavg_baseline(self):
        base, runs, ds = sweep_setup("kp", [0, 1])
        fedavg_cfg = replace(
            base.run,
            spec=ModelSpec(base.run.spec.layers, 0),
            master_seed=sweep_seed(base.run.master_seed, "kp", 0),
        )
        baseline = run_experiment(fedavg_cfg, ds)
        assert run_sweep(runs, ds)[0] == baseline.history

    def test_reordering_values_changes_nothing(self):
        _, runs_a, ds = sweep_setup("k", [2, 4])
        _, runs_b, _ = sweep_setup("k", [4, 2])
        a, b = run_sweep(runs_a, ds), run_sweep(runs_b, ds)
        assert a == b[::-1]

    def test_unknown_axis_rejected(self):
        with pytest.raises(UsageError):
            sweep_setup("rounds", [1])

    def test_empty_values_rejected(self):
        with pytest.raises(UsageError):
            sweep_setup("k", [])

    @pytest.mark.parametrize("axis, values", [("kp", [1, 0, 1]), ("algorithm", ["fedavg", "fedavg"])])
    def test_repeated_values_rejected_before_training(self, axis, values, monkeypatch):
        monkeypatch.setattr(fedper.experiment, "run_experiment", mock.Mock(side_effect=AssertionError("trained")))
        with pytest.raises(UsageError, match="must be distinct"):
            sweep_setup(axis, values)

    def test_bad_late_value_rejected_before_training(self, monkeypatch):
        monkeypatch.setattr(fedper.experiment, "run_experiment", mock.Mock(side_effect=AssertionError("trained")))
        # kp: no base layer left, caught when the point resolves
        with pytest.raises(ConfigError):
            sweep_setup("kp", [0, 2])
        # k: more classes per client than the dataset has, caught when the point resolves too
        with pytest.raises(ConfigError, match="k=5 exceeds the number of classes 4"):
            sweep_setup("k", [2, 5])
        # k: clients left without a sample of these data's 2 per class, caught against the data
        _, runs, _ = sweep_setup("k", [2, 4])
        with pytest.raises(ConfigError, match="k_class client 2 would get no sample"):
            run_sweep(runs, synth_classification(4, 4, 2, seed=0))
