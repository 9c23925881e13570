import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedper.experiment
from fedper.config import apply_overrides, build_dataset, default_config, resolve, resolve_sweep, sweep_seed
from fedper.data import LabeledDataset, PartitionSpec, partition, synth_classification, train_test_split
from fedper.errors import ConfigError, UsageError
from fedper.experiment import check_dataset, check_fits, client_shards, run_experiment, run_sweep
from fedper.model import ModelSpec
from fedper.nn import LayerSpec, LockstepPlan, SgdConfig, columns
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
    """The sweep of a small config dict: its effective config, one run per
    value and the dataset they share."""
    cfg = apply_overrides(default_config(), [
        f"rounds={rounds}", "dataset.dim=4", "dataset.per_class=40", "partition.num_clients=4",
        'model.layers=[{"in_dim":4,"out_dim":8,"activation":"relu"},{"in_dim":8,"out_dim":4,"activation":"identity"}]',
        "sgd.eta=0.05", "sgd.epochs=2", "sgd.batch_size=8", "master_seed=101",
    ])
    effective, runs = resolve_sweep(cfg, axis, values)
    return effective, runs, build_dataset(effective["dataset"])


class TestFineTunedRun:
    def test_each_round_fine_tunes_with_the_base_frozen_then_trains_it(self, monkeypatch):
        """Every round of a fine-tuned run first runs the one-epoch
        fine-tune pass, which leaves the base columns of the weight block
        bitwise unchanged, then the SGD pass, which changes them."""
        cfg, ds = base_setup(rounds=2)
        cfg = replace(cfg, fine_tune=True)
        nbase = columns([(s.out_dim, s.in_dim) for s in cfg.spec.layers])[cfg.spec.k_base]
        passes, run = [], LockstepPlan.run

        def recorded(plan, rngs, eta):
            before = plan.block[:, :nbase].tobytes()
            run(plan, rngs, eta)
            passes.append((plan.epochs, plan.block[:, :nbase].tobytes() == before))

        monkeypatch.setattr(LockstepPlan, "run", recorded)
        run_experiment(cfg, ds)
        assert cfg.sgd.epochs != 1
        assert passes == [(1, True), (cfg.sgd.epochs, False)] * cfg.rounds


class TestPipeline:
    def test_shards_split_per_client(self):
        cfg, ds = base_setup()
        trains, tests = client_shards(ds, cfg.partition)
        assert len(trains.sizes) == len(tests.sizes) == 4
        for train, test in zip(trains.sizes, tests.sizes):
            assert train == pytest.approx(0.8 * (train + test), abs=1)
            assert test >= 1

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
        sides = client_shards(ds, spec)
        expected = [
            train_test_split(shard, spec.train_fraction, derive_seed(spec.seed, SPLIT, j))
            for j, shard in enumerate(partition(ds, spec))
        ]
        assert len(expected) == spec.num_clients
        for rows, want in zip(sides, zip(*expected)):
            assert rows.sizes == [len(w) for w in want]
            assert rows.x.tobytes() == np.concatenate([w.X for w in want]).tobytes()
            assert rows.y.tobytes() == np.concatenate([w.y for w in want]).tobytes()

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
        effective, runs, ds = sweep_setup("k", [2])
        run = resolve(effective).run  # the base's own k is 2
        direct = run_experiment(replace(run, master_seed=sweep_seed(run.master_seed, "k", 2)), ds)
        histories = run_sweep(runs, ds)
        assert len(histories) == 1
        assert histories[0] == direct.history

    def test_kp_zero_point_equals_fedavg_baseline(self):
        effective, runs, ds = sweep_setup("kp", [0, 1])
        run = resolve(effective).run
        fedavg_cfg = replace(
            run,
            spec=ModelSpec(run.spec.layers, 0),
            master_seed=sweep_seed(run.master_seed, "kp", 0),
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
        # kp: more personal layers than the model's 2, caught when the point resolves
        with pytest.raises(ConfigError, match="k_personal=3 exceeds the model's 2 layers"):
            sweep_setup("kp", [0, 3])
        # k: more classes per client than the dataset has, caught when the point resolves too
        with pytest.raises(ConfigError, match="k=5 exceeds the number of classes 4"):
            sweep_setup("k", [2, 5])
        # k: clients left without a sample of these data's 2 per class, caught against the data;
        # at train_fraction 0.5 the k=2 point's clients of 2 samples each keep one to test on
        _, runs, _ = sweep_setup("k", [2, 4])
        halved = [replace(run, partition=replace(run.partition, train_fraction=0.5)) for run in runs]
        with pytest.raises(ConfigError, match="k_class client 2 would get no sample"):
            run_sweep(halved, synth_classification(4, 4, 2, seed=0))
        # at 0.8 they train on both, caught against the data at the first point
        with pytest.raises(ConfigError, match="client 0 has an empty test set"):
            run_sweep(runs, synth_classification(4, 4, 2, seed=0))


@st.composite
def synthetic_configs(draw):
    """A small synthetic config whose model may miss its data's width or
    class count, and whose partition may leave a client short."""
    num_classes, dim = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    # one in four models misses its data's width, one in four its classes
    in_dim, out_dim = (n + draw(st.sampled_from([0, 0, 0, 1])) for n in (dim, num_classes))
    layers = [
        {"in_dim": in_dim, "out_dim": 3, "activation": "relu"},
        {"in_dim": 3, "out_dim": out_dim, "activation": "identity"},
    ]
    lo = draw(st.integers(1, 8))
    settings = {
        "dataset.kind": draw(st.sampled_from(["gaussian_mixture", "shells"])),
        "dataset.cluster_permutation": draw(st.sampled_from(["identity", "cycle", "swap"])),
        "dataset.clusters": draw(st.integers(1, 3)),
        "dataset.num_classes": num_classes,
        "dataset.dim": dim,
        "dataset.per_class": draw(st.integers(1, 12)),
        "model.layers": layers,
        "partition.mode": draw(st.sampled_from(["k_class", "unbalanced_users"])),
        "partition.num_clients": draw(st.integers(1, 5)),
        "partition.k": draw(st.integers(1, num_classes + 1)),
        "partition.volume_range": [lo, lo + draw(st.integers(0, 8))],
        "partition.train_fraction": draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
        "partition.seed": draw(st.integers(0, 2**32)),
    }
    return apply_overrides(default_config(), [f"{key}={json.dumps(value)}" for key, value in settings.items()])


def refusal(check, *args):
    """The message check(*args) refuses with, or None if it passes."""
    try:
        check(*args)
    except ConfigError as exc:
        return str(exc)
    return None


class TestFitCheck:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(cfg=synthetic_configs())
    def test_the_declared_shape_is_the_built_shape(self, cfg):
        """resolve refuses a synthetic config before its dataset is built,
        from the shape the config declares: num_classes classes of per_class
        samples each, dim features wide.  Both generators must build exactly
        that shape, so that check_dataset on the built dataset says what the
        check on the declared one said."""
        kind = cfg["dataset"]["kind"]
        # as csv, resolve leaves the data to check_dataset, so any run resolves
        resolved = resolve({**cfg, "dataset": {**cfg["dataset"], "kind": "csv", "path": "unread.csv"}})
        run, ds_cfg = resolved.run, {**resolved.dataset, "kind": kind}
        num_classes, per_class = ds_cfg["num_classes"], ds_cfg["per_class"]
        ds = build_dataset(ds_cfg)
        assert ds.X.shape == (num_classes * per_class, ds_cfg["dim"]) and ds.num_classes == num_classes
        assert np.bincount(ds.y, minlength=num_classes).tolist() == [per_class] * num_classes
        declared = refusal(check_fits, run, ds_cfg["dim"], num_classes, len(ds), lambda: [per_class] * num_classes)
        assert declared == refusal(check_dataset, run, ds)
        assert declared == refusal(resolve, cfg)

    def test_labels_are_counted_only_once_the_model_scores_their_classes(self):
        """A loaded label can imply more classes than memory could count:
        the model's width refuses them first."""
        cfg, _ = base_setup()
        ds = LabeledDataset(np.zeros((2, 4)), [0, 2**60], 2**60 + 1)
        with pytest.raises(ConfigError, match=f"model output dim 4 != dataset classes {2**60 + 1}"):
            check_dataset(cfg, ds)

    @pytest.mark.parametrize("num_classes", [10**10, 10**19])
    def test_declared_classes_are_counted_only_once_the_model_scores_them(self, num_classes):
        """resolve refuses a synthetic config declaring more classes than
        memory could count by the model's width, before it counts any."""
        cfg = apply_overrides(default_config(), [f"dataset.num_classes={num_classes}"])
        with pytest.raises(ConfigError, match=f"model output dim 4 != dataset classes {num_classes}$"):
            resolve(cfg)
