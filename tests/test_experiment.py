from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import fedper.experiment
from fedper.data import PartitionSpec, synth_classification
from fedper.errors import ConfigError, UsageError
from fedper.experiment import client_shards, run_experiment, run_sweep, sweep_seed, sweep_variant
from fedper.model import ModelSpec
from fedper.nn import LayerSpec, SgdConfig
from fedper.protocol import RunConfig


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


class TestPipeline:
    def test_shards_split_per_client(self):
        cfg, ds = base_setup()
        shards = client_shards(ds, cfg.partition)
        assert len(shards) == 4
        for train, test in shards:
            total = len(train) + len(test)
            assert len(train) == pytest.approx(0.8 * total, abs=1)
            assert len(test) >= 1

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
        cfg, ds = base_setup()
        sweep = run_sweep(cfg, ds, "k", [2])
        direct = run_experiment(sweep_variant(cfg, "k", 2), ds)
        assert len(sweep.points) == 1
        assert sweep.points[0].history == direct.history

    def test_kp_zero_point_equals_fedavg_baseline(self):
        cfg, ds = base_setup()
        sweep = run_sweep(cfg, ds, "kp", [0, 1])
        fedavg_cfg = replace(
            cfg,
            spec=ModelSpec(cfg.spec.layers, 0),
            master_seed=sweep_seed(cfg.master_seed, "kp", 0),
        )
        baseline = run_experiment(fedavg_cfg, ds)
        point = next(p for p in sweep.points if p.value == 0)
        assert point.history == baseline.history

    def test_reordering_values_changes_nothing(self):
        cfg, ds = base_setup()
        a = run_sweep(cfg, ds, "k", [2, 4])
        b = run_sweep(cfg, ds, "k", [4, 2])
        assert [p.value for p in a.points] == [2, 4]
        assert [p.value for p in b.points] == [2, 4]
        for pa, pb in zip(a.points, b.points):
            assert pa.history == pb.history

    def test_algorithm_axis(self):
        cfg, ds = base_setup()
        sweep = run_sweep(cfg, ds, "algorithm", ["fedper", "fedavg"])
        assert [p.value for p in sweep.points] == ["fedavg", "fedper"]

    def test_points_carry_final_stats(self):
        cfg, ds = base_setup()
        point = run_sweep(cfg, ds, "k", [4]).points[0]
        finals = point.history.final_accuracies()
        assert point.final_mean_accuracy == pytest.approx(np.mean(finals))

    def test_long_format_emission(self, tmp_path):
        from fedper.metrics import emit

        cfg, ds = base_setup(rounds=2)
        sweep = run_sweep(cfg, ds, "k", [2, 4])
        path = tmp_path / "sweep.csv"
        emit(sweep, "csv", path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "axis,value,round,client,accuracy,loss"
        assert len(rows) == 1 + 2 * 2 * 4  # two points, 2 rounds, 4 clients

    def test_unknown_axis_rejected(self):
        cfg, ds = base_setup()
        with pytest.raises(UsageError):
            run_sweep(cfg, ds, "rounds", [1])

    def test_empty_values_rejected(self):
        cfg, ds = base_setup()
        with pytest.raises(UsageError):
            run_sweep(cfg, ds, "k", [])

    @pytest.mark.parametrize("axis, values", [("kp", [1, 0, 1]), ("algorithm", ["fedavg", "fedavg"])])
    def test_repeated_values_rejected_before_training(self, axis, values, monkeypatch):
        cfg, ds = base_setup()
        monkeypatch.setattr(fedper.experiment, "run_experiment", mock.Mock(side_effect=AssertionError("trained")))
        with pytest.raises(UsageError, match="must be distinct"):
            run_sweep(cfg, ds, axis, values)

    def test_bad_late_value_rejected_before_training(self, monkeypatch):
        cfg, ds = base_setup()
        monkeypatch.setattr(fedper.experiment, "run_experiment", mock.Mock(side_effect=AssertionError("trained")))
        with pytest.raises(ConfigError):
            run_sweep(cfg, ds, "kp", [0, len(cfg.spec.layers)])  # no base layer left
