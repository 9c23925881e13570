import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fedper.cli
import fedper.experiment
import fedper.nn
import fedper.protocol
from fedper.cli import main
from fedper.config import (
    SCHEMA, SECTIONS, apply_overrides, build_dataset, cluster_permutations, default_config, resolve, sweep_seed,
)
from fedper.data import PartitionSpec, partition_indices, synth_classification, save_csv
from fedper.errors import ConfigError
from fedper.experiment import client_shards
from fedper.model import ModelSpec, linearize_base


SMALL = [
    "--set", "rounds=2",
    "--set", "dataset.per_class=30",
    "--set", "partition.num_clients=4",
]

# 5 samples of each of 4 classes over 4 k=2 clients: client 3 gets 4, and
# ceil(0.8 * 4) = 4 of them train
NO_TEST_SAMPLE = "client 3 has an empty test set: its split trains on all 4 of its samples"


def read_bytes_tree(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestConfig:
    def test_defaults_resolve(self):
        resolved = resolve(default_config())
        assert resolved.effective["algorithm"] == "fedper"
        assert resolved.run.spec.k_personal == 1
        assert resolved.run.partition.seed is not None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"roundz": 3}))
        assert main(["run", "--config", str(path)]) == 2

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sgd": {"learning_rate": 0.1}}))
        assert main(["run", "--config", str(path)]) == 2

    # a truncated file, and an integer past Python's int digit limit
    @pytest.mark.parametrize("text", ['{"rounds": 2', '{"rounds": ' + "9" * 5000 + "}"], ids=["truncated", "huge"])
    def test_invalid_json_is_usage_error(self, text, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"{path}: invalid JSON: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    def test_swap_permutation_swaps_label_pairs_in_odd_clusters(self, tmp_path):
        assert cluster_permutations("swap", 3, 5) == [[0, 1, 2, 3, 4], [1, 0, 3, 2, 4], [0, 1, 2, 3, 4]]
        assert cluster_permutations("swap", 2, 4) == [[0, 1, 2, 3], [1, 0, 3, 2]]
        overrides = ["--set", "dataset.cluster_permutation=swap", "--set", "rounds=1"]
        assert main(["run", *overrides, "--out", str(tmp_path / "o")]) == 0

    def test_fedavg_forces_no_personal_layers(self):
        cfg = apply_overrides(default_config(), ["algorithm=fedavg", "model.k_personal=1"])
        resolved = resolve(cfg)
        assert resolved.run.spec.k_personal == 0

    def test_linear_base_ablation_applied_to_run(self):
        resolved = resolve(apply_overrides(default_config(), ["ablation=linear_base"]))
        assert resolved.run.spec == linearize_base(ModelSpec.from_json(default_config()["model"]))
        # the echoed config keeps the model as given, so a rerun ablates again
        assert resolved.effective["model"] == default_config()["model"]

    def test_override_parsing_types(self):
        cfg = apply_overrides(
            default_config(),
            ["rounds=7", "fine_tune=true", "output.run_id=abc", "sgd.eta=0.25"],
        )
        assert cfg["rounds"] == 7
        assert cfg["fine_tune"] is True
        assert cfg["output"]["run_id"] == "abc"
        assert cfg["sgd"]["eta"] == 0.25

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), ["sgd.velocity=1"])

    def test_model_dataset_dim_cross_check(self):
        cfg = apply_overrides(default_config(), ["dataset.dim=5"])
        with pytest.raises(ConfigError):
            resolve(cfg)


class TestInputValidation:
    @pytest.mark.parametrize(
        "key",
        [
            "rounds", "master_seed", "sgd.epochs", "sgd.batch_size", "partition.num_clients", "partition.k",
            "output.checkpoint_every", "dataset.num_classes", "dataset.dim", "dataset.per_class",
            "dataset.clusters", "dataset.cluster_shift",
        ],
    )
    def test_boolean_for_integer_key_is_usage_error(self, key, tmp_path):
        assert main(["run", *SMALL, "--set", f"{key}=true", "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "setting",
        [
            'partition.rater_disagreement="no"',
            "partition.rater_disagreement=1",
            'partition.train_fraction="0.5"',
            "dataset.per_class=30.5",
            "dataset.sigma=abc",
            "dataset.sigma=NaN",
            "dataset.radius_step=abc",
            "dataset.noise=true",
            "dataset.seed=abc",
            "dataset.seed=1.5",
            "partition.seed=abc",
            "partition.seed=-1",
            "model.k_personal=abc",
            "model.k_personal=1.9",
            "model.k_personal=true",
            'model.layers=[{"in_dim":8,"out_dim":4}]',
            'model.layers=[{"in_dim":8,"out_dim":4,"activation":"identity","bias":false}]',
            'model.layers=[{"in_dim":true,"out_dim":4,"activation":"identity"}]',
            'model.layers=[{"in_dim":8,"out_dim":4.0,"activation":"identity"}]',
            "model.layers=5",
            pytest.param("sgd.eta=1" + "0" * 400, id="sgd.eta=int-too-large-for-a-float"),
            pytest.param("sgd.eta=1" + "0" * 5000, id="sgd.eta=int-past-the-digit-limit"),
            "output.dir=5",
            'output.dir=""',
            r'output.dir="d\u0000"',
            r'output.run_id="a\u0000b"',
            "dataset.path=5",
            "model=5",
            "sgd=[]",
            "output=null",
            "dataset={}",
        ],
    )
    def test_mistyped_value_is_usage_error(self, setting, tmp_path):
        assert main(["run", *SMALL, "--set", setting, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_section_in_config_file_must_be_an_object(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"sgd": []}))
        assert main(["run", *SMALL, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_more_k_class_clients_than_samples_rejected_before_partitioning(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fedper.experiment, "partition_indices", lambda *args: pytest.fail("partitioned"))
        args = ["run", *SMALL, "--set", "partition.num_clients=1000000", "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "kp", "--values", "0,1"], ["partition"]])
    @pytest.mark.parametrize("settings, message", [
        (["partition.num_clients=900"], "900 k_class clients exceed the 800 samples; some would get none"),
        (
            ["partition.mode=unbalanced_users", "partition.volume_range=[60,801]"],
            "volume_range max 801 exceeds dataset size 800",
        ),
    ], ids=["k_class-clients", "unbalanced-volume"])
    def test_partition_past_the_dataset_size_is_usage_error_before_building(
        self, command, settings, message, tmp_path, monkeypatch, capsys,
    ):
        """A synthetic dataset has num_classes * per_class samples (4 * 200
        here), so a partition that cannot fit them is refused before the
        dataset is built."""
        monkeypatch.setattr(fedper.cli, "build_dataset", lambda *args: pytest.fail("built the dataset"))
        args = [*command, *(a for s in settings for a in ("--set", s)), "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_csv_partition_past_the_dataset_size_writes_no_manifest(self, tmp_path, capsys):
        """A CSV dataset's size is known once it is loaded, and partition
        refuses then, as run does, instead of writing empty clients."""
        save_csv(synth_classification(4, 8, 5, seed=0), tmp_path / "d.csv")
        settings = ["dataset.kind=csv", f"dataset.path={tmp_path / 'd.csv'}", "partition.num_clients=30"]
        args = ["partition", *(a for s in settings for a in ("--set", s)), "--out", str(tmp_path / "m.json")]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: 30 k_class clients exceed the 20 samples; some would get none\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("kind", ["synthetic", "csv"])
    def test_k_class_client_without_a_sample_writes_no_manifest(self, kind, tmp_path, monkeypatch, capsys):
        """One sample of each of 4 classes, 4 clients of 2 classes each:
        every class has two clients and one sample, so client 3, second in
        line for both of its classes, would get none.  A synthetic dataset
        is refused before it is built, a csv one once it is loaded."""
        settings = ["partition.num_clients=4", "dataset.per_class=1"]
        if kind == "csv":
            save_csv(synth_classification(4, 8, 1, seed=0), tmp_path / "d.csv")
            settings += ["dataset.kind=csv", f"dataset.path={tmp_path / 'd.csv'}"]
        else:
            monkeypatch.setattr(fedper.cli, "build_dataset", lambda *args: pytest.fail("built the dataset"))
        args = ["partition", *(a for s in settings for a in ("--set", s)), "--out", str(tmp_path / "m.json")]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "error: k_class client 3 would get no sample: each of its classes [0, 3] "
            "has fewer samples than clients allowed it\n"
        )
        assert not (tmp_path / "m.json").exists()

    def test_sweep_point_leaving_a_client_without_a_sample_refused_before_any_trains(
        self, tmp_path, monkeypatch, capsys,
    ):
        """At k=4 each of 4 clients holds all 4 classes of 2 samples each,
        so clients 2 and 3 would get none; the k=1 point before it is not
        trained, and the dataset is not built."""
        monkeypatch.setattr(fedper.cli, "build_dataset", lambda *args: pytest.fail("built the dataset"))
        monkeypatch.setattr(fedper.experiment, "run_experiment", lambda *args: pytest.fail("trained"))
        settings = ["dataset.per_class=2", "partition.num_clients=4", "partition.train_fraction=0.5", "rounds=1"]
        args = ["sweep", "--axis", "k", "--values", "1,4", *(a for s in settings for a in ("--set", s))]
        assert main([*args, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: k_class client 2 would get no sample")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("base_k, client", [(2, 3), (1, 1)], ids=["base-refused", "point-refused"])
    def test_sweep_point_leaving_a_client_without_a_test_sample_refused_before_any_trains(
        self, base_k, client, tmp_path, monkeypatch, capsys,
    ):
        """5 samples of each of 4 classes over 4 clients: at k=4 clients 1
        to 3 get 4 samples, all of which ceil(0.8 * 4) sends to training;
        at k=2, the sweep's base, so does client 3.  The sweep is refused
        before the dataset is built, whichever of them is first."""
        monkeypatch.setattr(fedper.cli, "build_dataset", lambda *args: pytest.fail("built the dataset"))
        monkeypatch.setattr(fedper.experiment, "run_experiment", lambda *args: pytest.fail("trained"))
        settings = ["dataset.per_class=5", "partition.num_clients=4", "rounds=1", f"partition.k={base_k}"]
        args = ["sweep", "--axis", "k", "--values", "1,4", *(a for s in settings for a in ("--set", s))]
        assert main([*args, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: client {client} has an empty test set: its split trains on all 4 of its samples\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_csv_sweep_point_leaving_a_client_without_a_test_sample_refused_before_any_trains(
        self, tmp_path, monkeypatch, capsys,
    ):
        """A CSV dataset's class counts are known once it is loaded: every
        point's splits are checked against it before the first one trains."""
        monkeypatch.setattr(fedper.experiment, "run_experiment", lambda *args: pytest.fail("trained"))
        save_csv(synth_classification(4, 8, 5, seed=0), tmp_path / "d.csv")
        settings = [
            "dataset.kind=csv", f"dataset.path={tmp_path / 'd.csv'}", "partition.num_clients=4", "partition.k=1",
        ]
        args = ["sweep", "--axis", "k", "--values", "1,4", *(a for s in settings for a in ("--set", s))]
        assert main([*args, "--out", str(tmp_path / "o")]) == 2
        assert "error: client 1 has an empty test set" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed, code", [(16, 0), (6, 2)])
    def test_unbalanced_client_without_a_test_sample_refused_by_its_drawn_volume(
        self, seed, code, tmp_path, monkeypatch, capsys,
    ):
        """Volumes of 4 or 5: a client that draws 4 trains on all of them,
        one that draws 5 keeps one to test on.  At partition seed 16 all
        four clients draw 5 and the run goes ahead, though the least volume
        of the range would leave none; at seed 6 client 2 draws 4, and the
        run is refused before the dataset is built."""
        if code:
            monkeypatch.setattr(fedper.cli, "build_dataset", lambda *args: pytest.fail("built the dataset"))
        settings = ["partition.mode=unbalanced_users", "partition.volume_range=[4,5]", f"partition.seed={seed}"]
        args = ["run", *SMALL, *(a for s in settings for a in ("--set", s)), "--out", str(tmp_path / "o")]
        assert main(args) == code
        if code:
            assert capsys.readouterr().err == (
                "error: client 2 has an empty test set: its split trains on all 4 of its samples\n"
            )

    # (dataset, settings, the refusal): a dataset of None is synthetic, of
    # those settings; else the arguments of synth_classification, written
    # to a csv file.  Client 3 is the one to fall short in both partitions.
    REFUSED = {
        "no-sample": (None, ["dataset.per_class=1"], "k_class client 3 would get no sample: each of its classes "
                      "[0, 3] has fewer samples than clients allowed it"),
        "csv-no-sample": ((4, 8, 1), [], "k_class client 3 would get no sample: each of its classes "
                          "[0, 3] has fewer samples than clients allowed it"),
        "no-test-sample": (None, ["dataset.per_class=5"], NO_TEST_SAMPLE),
        "csv-no-test-sample": ((4, 8, 5), [], NO_TEST_SAMPLE),
        "csv-wrong-width": ((4, 5, 30), [], "model input dim 8 != dataset feature dim 5"),
        "csv-too-few-classes": ((3, 8, 30), [], "model output dim 4 != dataset classes 3"),
    }

    @pytest.mark.parametrize(
        "command", [["run"], ["sweep", "--axis", "kp", "--values", "0,1"], ["partition"]], ids=["run", "sweep", "partition"]
    )
    @pytest.mark.parametrize("dataset, settings, message", REFUSED.values(), ids=REFUSED)
    def test_a_config_that_does_not_fit_its_data_is_refused_by_every_command(
        self, command, dataset, settings, message, tmp_path, monkeypatch, capsys,
    ):
        """One check decides whether a run fits its data, so run, sweep and
        partition refuse the same configs with the same line, writing
        nothing: a synthetic config before its dataset is built, a csv one
        once its file is loaded."""
        settings = [*settings, "partition.num_clients=4", "rounds=1"]
        if dataset is None:
            monkeypatch.setattr(fedper.cli, "build_dataset", lambda *args: pytest.fail("built the dataset"))
        else:
            save_csv(synth_classification(*dataset, seed=0), tmp_path / "d.csv")
            settings += ["dataset.kind=csv", f"dataset.path={tmp_path / 'd.csv'}"]
        args = [*command, *(a for s in settings for a in ("--set", s)), "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if dataset is None else ["d.csv"])

    @pytest.mark.parametrize("path", [None, 5, '""', r'"q\u0000"'])
    def test_csv_path_must_be_a_non_empty_string(self, path, tmp_path):
        settings = ["--set", "dataset.kind=csv"] + ([] if path is None else ["--set", f"dataset.path={path}"])
        assert main(["run", *SMALL, *settings, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("run_id", ["../../x", "a/b", "a\\b", ".", ".."])
    def test_run_id_must_stay_in_the_output_directory(self, run_id, tmp_path):
        out = tmp_path / "d" / "e"
        assert main(["run", *SMALL, "--set", f"output.run_id={run_id}", "--out", str(out)]) == 2
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize(
        "run_id, message",
        [
            pytest.param("a" * 300, "at most 200 bytes in UTF-8, got 300", id="300-ascii-chars"),
            pytest.param("\u00e9" * 101, "at most 200 bytes in UTF-8, got 202", id="101-two-byte-chars"),
            pytest.param("a\ud800", "encodable as a file name", id="lone-surrogate"),
        ],
    )
    def test_run_id_that_cannot_name_a_file_is_usage_error(self, run_id, message, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"output": {"run_id": run_id}}))
        out = tmp_path / "o"
        assert main(["run", *SMALL, "--config", str(config), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_longest_run_id_names_every_sweep_file(self, tmp_path):
        run_id = "\u00e9" * 100  # 200 bytes
        out = tmp_path / "o"
        args = ["sweep", *SMALL, "--axis", "algorithm", "--values", "fedper,fedavg"]
        assert main([*args, "--set", f"output.run_id={run_id}", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            f"{run_id}_algorithm_fedavg.csv", f"{run_id}_algorithm_fedper.csv", f"{run_id}_config.json"
        ]

    @pytest.mark.parametrize("axis, values", [("kp", "1,1"), ("kp", "1,01"), ("algorithm", "fedper,fedper")])
    def test_repeated_sweep_values_are_usage_error(self, axis, values, tmp_path):
        out = tmp_path / "o"
        assert main(["sweep", *SMALL, "--axis", axis, "--values", values, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "k", "--values", "2"]])
    def test_csv_of_wrong_width_is_usage_error(self, command, tmp_path):
        csv_path = tmp_path / "data.csv"
        save_csv(synth_classification(4, 5, 30, seed=3), csv_path)  # 5 features; the model takes 8
        args = [*command, *SMALL, "--set", "dataset.kind=csv", "--set", f"dataset.path={csv_path}"]
        assert main([*args, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "kp", "--values", "0,1"]])
    def test_train_fraction_of_one_is_usage_error_before_building(self, command, tmp_path, monkeypatch, capsys):
        """At 1 every client's test set is empty, so resolve rejects it,
        naming the key; the library's PartitionSpec still takes it."""
        monkeypatch.setattr(fedper.cli, "build_dataset", lambda *args: pytest.fail("built the dataset"))
        args = [*command, *SMALL, "--set", "partition.train_fraction=1", "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert "partition.train_fraction must be a number in (0, 1)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert PartitionSpec("k_class", 2, 1, train_fraction=1).train_fraction == 1

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "kp", "--values", "0,1"]])
    def test_empty_test_set_is_usage_error_before_gathering_rows(self, command, tmp_path, monkeypatch, capsys):
        """Below 1 a fraction can still leave a client no test sample: 0.99
        sends ceil(0.99 * 80) = 80 of the default's 80 samples a client to
        training.  Each client's split positions are checked before any of
        the dataset's rows is gathered."""
        class Ungatherable(np.ndarray):
            def take(self, *args, **kwargs):
                pytest.fail("gathered the features")

        build = fedper.cli.build_dataset

        def building(*args):
            ds = build(*args)
            ds.X = ds.X.view(Ungatherable)
            return ds

        monkeypatch.setattr(fedper.cli, "build_dataset", building)
        args = [*command, "--set", "partition.train_fraction=0.99", "--set", "rounds=1", "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert "client 0 has an empty test set" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("eta", ["NaN", "Infinity", "true"])
    def test_bad_learning_rate_is_usage_error(self, eta, tmp_path):
        assert main(["run", *SMALL, "--set", f"sgd.eta={eta}", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "k", "--values", "2"]])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, command, threads, tmp_path):
        assert main([*command, *SMALL, "--threads", threads, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


class TestRunCommand:
    def test_allocation_failure_is_runtime_error(self, tmp_path, capsys):
        # numpy refuses this dataset's arrays at once, without allocating
        out = tmp_path / "o"
        assert main(["run", "--set", "dataset.per_class=1000000000000000", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_one_round_history_rows(self, tmp_path):
        out = tmp_path / "o"
        code = main(["run", *SMALL, "--set", "rounds=1", "--out", str(out)])
        assert code == 0
        rows = (out / "run_history.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4  # header + one row per client

    def test_fedavg_equals_fedper_with_zero_personal(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", *SMALL, "--set", "algorithm=fedavg", "--out", str(out_a)]) == 0
        assert main([
            "run", *SMALL, "--set", "algorithm=fedper", "--set", "model.k_personal=0",
            "--out", str(out_b),
        ]) == 0
        assert (out_a / "run_history.csv").read_bytes() == (out_b / "run_history.csv").read_bytes()

    def test_batch_size_past_every_set_is_full_batch(self, tmp_path):
        resolved = resolve(apply_overrides(default_config(), SMALL[1::2]))
        largest = max(len(train) for train, _ in client_shards(build_dataset(resolved.dataset), resolved.run.partition))
        histories = []
        for batch_size in (largest, 10**20):
            out = tmp_path / str(batch_size)
            assert main(["run", *SMALL, "--set", f"sgd.batch_size={batch_size}", "--out", str(out)]) == 0
            histories.append((out / "run_history.csv").read_bytes())
        assert histories[0] == histories[1]

    def test_rerun_from_echoed_config_reproduces_bitwise(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", *SMALL, "--out", str(out_a)]) == 0
        echo = out_a / "run_config.json"
        assert main(["run", "--config", str(echo), "--out", str(out_b)]) == 0
        tree_a = read_bytes_tree(out_a)
        tree_b = read_bytes_tree(out_b)
        assert tree_a == tree_b

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDPER_OUT_DIR", str(tmp_path / "root"))
        assert main(["run", *SMALL]) == 0
        assert (tmp_path / "root" / "run" / "run_history.csv").exists()

    # --out wins over output.dir, which wins over FEDPER_OUT_DIR
    @pytest.mark.parametrize("out", [None, "o"])
    def test_output_dir_key(self, out, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDPER_OUT_DIR", str(tmp_path / "root"))
        args = ["run", *SMALL, "--set", "rounds=1", "--set", f"output.dir={tmp_path / 'd'}"]
        assert main([*args, *(["--out", str(tmp_path / out)] if out else [])]) == 0
        assert [p.name for p in tmp_path.iterdir()] == [out or "d"]
        assert (tmp_path / (out or "d") / "run_history.csv").exists()

    # a file, a path under a file, and a component longer than a name may be
    @pytest.mark.parametrize("out", ["f", "f/o", "x" * 300], ids=["file", "under-file", "long-name"])
    @pytest.mark.parametrize("option", ["--out", "output.dir"])
    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "kp", "--values", "0,1"]], ids=["run", "sweep"])
    def test_output_that_cannot_be_a_directory_is_usage_error(self, command, option, out, tmp_path, monkeypatch):
        def train(*_args, **_kwargs):
            raise AssertionError("trained for an output that cannot be written")

        monkeypatch.setattr(fedper.cli, "run_experiment", train)
        monkeypatch.setattr(fedper.cli, "run_sweep", train)
        (tmp_path / "f").write_bytes(b"kept")
        path = str(tmp_path / out)
        args = ["--out", path] if option == "--out" else ["--set", f"output.dir={path}"]
        assert main([*command, *SMALL, *args]) == 2
        assert list(tmp_path.iterdir()) == [tmp_path / "f"]
        assert (tmp_path / "f").read_bytes() == b"kept"

    def test_csv_dataset_kind(self, tmp_path):
        ds = synth_classification(4, 8, 30, seed=3)
        csv_path = tmp_path / "data.csv"
        save_csv(ds, csv_path)
        out = tmp_path / "o"
        code = main([
            "run", *SMALL, "--set", "dataset.kind=csv",
            "--set", f"dataset.path={csv_path}", "--out", str(out),
        ])
        assert code == 0

    def test_linear_base_ablation_runs(self, tmp_path):
        out = tmp_path / "o"
        code = main(["run", *SMALL, "--set", "ablation=linear_base", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "checkpoints" / "final_server_base.json").read_text())
        assert manifest["layer_shapes"] == [[16, 8]]  # single collapsed base layer

    def test_checkpoint_every(self, tmp_path):
        out = tmp_path / "o"
        code = main(["run", *SMALL, "--set", "output.checkpoint_every=1", "--out", str(out)])
        assert code == 0
        names = {p.name for p in (out / "checkpoints").iterdir()}
        assert "round0001_server_base.json" in names and "round0002_server_base.json" in names

    def test_ablation_scores_below_unablated_on_shell_task(self, tmp_path):
        shell_args = [
            "run",
            "--set", "rounds=50",
            "--set", "dataset.kind=shells",
            "--set", "dataset.num_classes=2",
            "--set", "dataset.dim=2",
            "--set", "dataset.per_class=200",
            "--set", 'model.layers=[{"in_dim":2,"out_dim":16,"activation":"relu"},'
                     '{"in_dim":16,"out_dim":16,"activation":"relu"},'
                     '{"in_dim":16,"out_dim":2,"activation":"identity"}]',
            "--set", "partition.k=2",
            "--seed", "99",
        ]
        out_full, out_lin = tmp_path / "full", tmp_path / "lin"
        assert main([*shell_args, "--out", str(out_full)]) == 0
        assert main([*shell_args, "--set", "ablation=linear_base", "--out", str(out_lin)]) == 0

        def final_mean(out):
            rows = (out / "run_history.csv").read_text().strip().splitlines()[1:]
            finals = [float(r.split(",")[2]) for r in rows if r.split(",")[0] == "50"]
            return sum(finals) / len(finals)

        assert final_mean(out_lin) < final_mean(out_full)

    def test_diverged_run_fails_without_history(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--set", "sgd.eta=1e6", "--set", "rounds=3", "--out", str(out)]) == 1
        assert "round 1: overflow encountered" in capsys.readouterr().err
        assert not (out / "run_history.csv").exists()

    def test_overflow_with_finite_weights_fails_without_history(self, tmp_path, capsys):
        # at this size the weights stay finite while the losses overflow
        out = tmp_path / "o"
        assert main(["run", *SMALL, "--set", "rounds=3", "--set", "sgd.eta=1e6", "--out", str(out)]) == 1
        assert "round 2: overflow encountered" in capsys.readouterr().err
        assert not (out / "run_history.csv").exists()

    def test_commands_do_not_mutate_input_files(self, tmp_path):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"rounds": 2, "dataset": {"per_class": 30}}))
        before = config_path.read_bytes()
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0
        assert config_path.read_bytes() == before


class TestEntryPoint:
    def test_python_m_fedper_and_its_exit_status(self, tmp_path, monkeypatch):
        """python -m fedper, as the benchmark harness starts it; and the
        entry point raises SystemExit with main's status."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        manifest = tmp_path / "m.json"
        proc = subprocess.run(
            [sys.executable, "-m", "fedper", "partition", "--out", str(manifest)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(manifest.read_text())["clients"]) == 10
        monkeypatch.setattr(sys, "argv", ["fedper", "run", "--threads", "0", "--out", str(tmp_path / "o")])
        with pytest.raises(SystemExit) as exc:
            fedper.cli.entrypoint()
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()


class TestMemory:
    """A run holds one copy of the rows at a time: the dataset is freed once
    it is sharded, and the engine holds one launch of the row budget."""

    @staticmethod
    def watch(monkeypatch):
        """Weak references to every dataset fedper.cli builds, and per
        run_federation call whether each one was alive when it started."""
        refs, alive = [], []
        build, federate = fedper.cli.build_dataset, fedper.experiment.run_federation

        def building(*args):
            ds = build(*args)
            refs.append(weakref.ref(ds))
            return ds

        def federating(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return federate(*args, **kwargs)

        monkeypatch.setattr(fedper.cli, "build_dataset", building)
        monkeypatch.setattr(fedper.experiment, "run_federation", federating)
        return alive

    def test_run_frees_the_dataset_before_training(self, monkeypatch, tmp_path):
        alive = self.watch(monkeypatch)
        assert main(["run", *SMALL, "--set", "rounds=1", "--out", str(tmp_path)]) == 0
        assert alive == [[False]]

    def test_sweep_trains_every_point_from_one_dataset(self, monkeypatch, tmp_path):
        alive = self.watch(monkeypatch)
        assert main(["sweep", *SMALL, "--axis", "kp", "--values", "0,1,2", "--out", str(tmp_path)]) == 0
        assert alive == [[True]] * 3

    def test_peak_is_the_dataset_plus_one_copy_of_its_rows(self, monkeypatch, tmp_path):
        """tracemalloc's peak over a reduced scale run (20 clients of 1,000
        rows, B=256, checkpoints) stays within the dataset, the blocks of
        client rows, the arrays of one ROW_BUDGET-row launch and 1 MiB."""
        sizes = {"dataset": 0, "rows": 0}
        build = fedper.cli.build_dataset

        def building(*args):
            ds = build(*args)
            sizes["dataset"] = ds.X.nbytes + ds.y.nbytes
            return ds

        class MeasuredRows(fedper.nn.RowBlock):
            def __init__(self, sets):
                super().__init__(sets)
                sizes["rows"] += self.x.nbytes + self.y.nbytes

        monkeypatch.setattr(fedper.cli, "build_dataset", building)
        monkeypatch.setattr(fedper.protocol, "RowBlock", MeasuredRows)
        overrides = [
            "rounds=1", "dataset.per_class=5000", "partition.num_clients=20",
            "sgd.batch_size=256", "sgd.epochs=1", "output.checkpoint_every=1",
        ]
        args = ["run", *(a for o in overrides for a in ("--set", o)), "--out", str(tmp_path)]
        spec = resolve(apply_overrides(default_config(), overrides)).run.spec
        # a launch's bytes a row: its features and one-hot label, each
        # layer's output and relu mask, and the softmax's max, exps and sum
        row = 8 * spec.in_dim + spec.out_dim + 8 * (spec.out_dim + 2) + sum(
            (8 + (s.activation == "relu")) * s.out_dim for s in spec.layers
        )
        launch = fedper.nn.ROW_BUDGET * row
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sizes["dataset"] + sizes["rows"] + launch + 2**20, (peak, sizes, launch)


class TestSweepCommand:
    def test_three_values_three_files(self, tmp_path):
        out = tmp_path / "s"
        code = main(["sweep", *SMALL, "--axis", "kp", "--values", "0,1,2", "--out", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.iterdir() if "_kp_" in p.name)
        assert files == ["run_kp_0.csv", "run_kp_1.csv", "run_kp_2.csv"]

    def test_gap_narrows_as_partitions_homogenize(self, tmp_path):
        # two independent sweeps (one per algorithm); their per-k difference
        # must not grow when k increases toward C
        args = [
            "--set", "rounds=15", "--set", "dataset.per_class=50",
            "--set", "dataset.cluster_shift=2", "--set", "partition.num_clients=4",
            "--axis", "k", "--values", "2,4",
        ]
        out_p, out_a = tmp_path / "p", tmp_path / "a"
        assert main(["sweep", *args, "--out", str(out_p)]) == 0
        assert main(["sweep", *args, "--set", "algorithm=fedavg", "--out", str(out_a)]) == 0

        def final_mean(path):
            rows = path.read_text().strip().splitlines()[1:]
            finals = [float(r.split(",")[2]) for r in rows if r.split(",")[0] == "15"]
            return float(np.mean(finals))

        gap = {
            k: final_mean(out_p / f"run_k_{k}.csv") - final_mean(out_a / f"run_k_{k}.csv")
            for k in (2, 4)
        }
        assert gap[2] > gap[4]

    def test_invalid_axis_usage_error(self):
        assert main(["sweep", "--axis", "epochs", "--values", "1"]) == 2

    def test_non_integer_values_for_k(self):
        assert main(["sweep", "--axis", "k", "--values", "a,b"]) == 2

    @pytest.mark.parametrize("values", [["--values", "-1,0"], ["--values=-1,0"], ["--values", "0,-1"]])
    def test_negative_value_is_named_whether_or_not_joined_by_equals(self, values, tmp_path, capsys):
        args = ["sweep", *SMALL, "--axis", "kp", *values, "--out", str(tmp_path / "s")]
        assert main(args) == 2
        assert "model.k_personal must be an int >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("text", ["01", "+2", "2.0", "true", "null", " 2 "])
    def test_a_values_item_is_read_as_a_set_value(self, text, tmp_path, capsys):
        """--values k=T runs the point of --set partition.k=T: both refuse T
        with the same line, or both run."""
        results = []
        for args in (["sweep", "--axis", "k", "--values", text], ["run", "--set", f"partition.k={text}"]):
            out = tmp_path / args[0]
            code = main([*args, *SMALL, "--set", "rounds=1", "--out", str(out)])
            results.append((code, capsys.readouterr().err, out.exists()))
        assert results[0] == results[1]
        code, err, written = results[0]
        assert (code, written) in ((0, True), (2, False))
        assert code == 0 or err.startswith("error: partition.k must be an int >= 1, got ")

    @pytest.mark.parametrize("axis, values, message", [
        ("k", "1,true", "partition.k must be an int >= 1, got True"),
        ("kp", "0,false", "model.k_personal must be an int >= 0, got False"),
    ], ids=["k", "kp"])
    def test_a_boolean_is_refused_as_a_value_not_as_a_repeat(self, axis, values, message, tmp_path, capsys):
        """true == 1 in Python, so distinctness is checked only once every
        value is of its key's kind."""
        assert main(["sweep", *SMALL, "--axis", axis, "--values", values, "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_algorithm_value(self, tmp_path):
        args = ["sweep", *SMALL, "--axis", "algorithm", "--values", "fedper,fedprox"]
        assert main([*args, "--out", str(tmp_path / "s")]) == 2

    def test_kp_axis_rejected_under_fedavg(self, tmp_path, capsys):
        args = ["sweep", *SMALL, "--set", "algorithm=fedavg", "--axis", "kp", "--values", "0,1"]
        assert main([*args, "--out", str(tmp_path / "s")]) == 2
        assert "fedavg forces model.k_personal to 0" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "settings, axis, values",
        [
            pytest.param(settings, axis, values, id="-".join([*settings, axis]))
            for settings in ([], ["ablation=linear_base"], ["fine_tune=true"], ["algorithm=fedavg"])
            for axis, values in (("k", ["1", "2"]), ("kp", ["0", "1", "2"]), ("algorithm", ["fedper", "fedavg"]))
            if not (axis == "kp" and settings == ["algorithm=fedavg"])  # a usage error, tested above
        ],
    )
    def test_every_point_is_the_run_with_its_axis_key_set(self, settings, axis, values, tmp_path):
        sets = [arg for setting in settings for arg in ("--set", setting)]
        out = tmp_path / "sweep"
        assert main(["sweep", *SMALL, *sets, "--axis", axis, "--values", ",".join(values), "--out", str(out)]) == 0
        base = resolve(apply_overrides(default_config(), [*SMALL[1::2], *settings]))
        key = {"k": "partition.k", "kp": "model.k_personal", "algorithm": "algorithm"}[axis]
        point_sets = [f"dataset.seed={base.dataset['seed']}", f"partition.seed={base.run.partition.seed}"]
        for value in values:
            seed = sweep_seed(base.run.master_seed, axis, value if axis == "algorithm" else int(value))
            run_sets = [arg for setting in [f"{key}={value}", *point_sets] for arg in ("--set", setting)]
            run_out = tmp_path / f"run_{value}"
            assert main(["run", *SMALL, *sets, *run_sets, "--seed", str(seed), "--out", str(run_out)]) == 0
            assert (out / f"run_{axis}_{value}.csv").read_bytes() == (run_out / "run_history.csv").read_bytes()

    def test_k_axis_rejected_when_partition_ignores_k(self, tmp_path, capsys):
        args = ["sweep", *SMALL, "--set", "partition.mode=unbalanced_users", "--axis", "k"]
        assert main([*args, "--values", "1,2", "--out", str(tmp_path / "s")]) == 2
        assert "ignores k" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestPartitionCommand:
    def test_identical_partition_has_all_classes_everywhere(self, tmp_path):
        out = tmp_path / "m.json"
        code = main([
            "partition", "--set", "partition.k=4", "--set", "dataset.per_class=20",
            "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads(out.read_text())
        assert all(c["classes"] == [0, 1, 2, 3] for c in manifest["clients"])

    def test_same_seed_identical_manifest(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["partition", "--set", "dataset.per_class=20", "--seed", "5"]
        assert main([*base, "--out", str(out_a)]) == 0
        assert main([*base, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("out", ["d", "f/m.json", "a" * 300], ids=["directory", "under-a-file", "name-too-long"])
    def test_out_that_cannot_be_a_file_is_usage_error_before_building(self, out, tmp_path, monkeypatch):
        (tmp_path / "d").mkdir()
        (tmp_path / "f").write_text("")
        monkeypatch.setattr(fedper.cli, "build_dataset", lambda *args: pytest.fail("built the dataset"))
        before = sorted(tmp_path.rglob("*"))
        assert main(["partition", "--set", "dataset.per_class=20", "--out", str(tmp_path / out)]) == 2
        assert sorted(tmp_path.rglob("*")) == before

    def test_unbalanced_manifest_with_rater_disagreement(self, tmp_path):
        """Each client's indices are distinct, as many as its size, which is
        within volume_range, and are partition_indices' draw."""
        settings = [
            "partition.mode=unbalanced_users", "partition.volume_range=[20,50]", "partition.num_clients=6",
            "partition.rater_disagreement=true", "dataset.per_class=30",
        ]
        out = tmp_path / "m.json"
        assert main(["partition", *(a for s in settings for a in ("--set", s)), "--out", str(out)]) == 0
        manifest = json.loads(out.read_text())
        assert manifest["k"] is None and manifest["volume_range"] == [20, 50]
        resolved = resolve(apply_overrides(default_config(), settings))
        expected = partition_indices(build_dataset(resolved.dataset), resolved.run.partition)
        assert [c["id"] for c in manifest["clients"]] == list(range(6))
        for client, idx in zip(manifest["clients"], expected):
            assert 20 <= client["size"] <= 50 and client["size"] == len(client["indices"])
            assert len(set(client["indices"])) == client["size"]
            assert client["indices"] == idx.tolist()

    def test_manifest_indices_form_partition(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["partition", "--set", "dataset.per_class=20", "--out", str(out)]) == 0
        manifest = json.loads(out.read_text())
        flat = sorted(i for c in manifest["clients"] for i in c["indices"])
        assert flat == list(range(4 * 20))


# Values of every JSON type and edge case, and texts that do not parse as
# JSON; --set parses each as JSON where it can, as a plain string otherwise.
# 1 turns on output.checkpoint_every=1, so fuzzed runs write checkpoints.
HUGE = "1" + "0" * 30
FUZZ_VALUES = [
    "true", "false", "null", "1.5", "-1", "0", "NaN", "Infinity", "-Infinity", "1e308", HUGE,
    '""', "x" * 300, "../x", "a/b", "{}", "[]", "[1]", "[1,2,3]", "1",
    # the enum values no default takes, so the fuzzer reaches the other modes
    "fedavg", "linear_base", "shells", "unbalanced_users", "json",
    # NUL ends a path at the operating system, so no path-valued key takes it
    r'"a\u0000b"',
]
# These keys size the run's work (rounds, steps, samples, label groups), so
# 10**30 of them is a valid run that would not finish rather than an input
# error; every other key draws every value.
WORK_SIZED = ("rounds", "sgd.epochs", "dataset.per_class", "dataset.clusters")
FUZZ_OVERRIDES = [
    f"{key}={value}"
    for key in [*SCHEMA, *sorted(SECTIONS)]
    for value in FUZZ_VALUES
    if not (key in WORK_SIZED and value == HUGE)
]
# The valid values no default takes, of every enum and boolean key; half of
# the drawn overrides are one of them, so that two such settings often meet.
FUZZ_SETTINGS = [
    "algorithm=fedavg", "ablation=linear_base", "fine_tune=true", "dataset.kind=shells",
    "dataset.cluster_permutation=identity", "dataset.cluster_permutation=swap", "partition.mode=unbalanced_users",
    "partition.rater_disagreement=true", "output.format=json", "output.checkpoint_every=1",
]


class TestConfigFuzz:
    @settings(
        max_examples=200, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        overrides=st.lists(
            st.one_of(st.sampled_from(FUZZ_SETTINGS), st.sampled_from(FUZZ_OVERRIDES)), min_size=1, max_size=3
        )
    )
    # a random draw seldom holds one given override; these always run
    @example(overrides=["output.checkpoint_every=1", "algorithm=fedavg", "output.format=json"])
    @example(overrides=["dataset.kind=shells", "ablation=linear_base", "output.checkpoint_every=1"])
    @example(overrides=["partition.mode=unbalanced_users"])
    def test_any_overrides_end_in_an_exit_code(self, overrides, tmp_path):
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / "o"
        sets = [arg for setting in overrides for arg in ("--set", setting)]
        code = main(["run", *SMALL, "--set", "rounds=1", *sets, "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()


# Values of every axis, in and out of range, and one algorithm no axis takes.
SWEEP_VALUES = ["-1", "0", "1", "2", "5", "fedper", "fedavg", "fedprox"]


class TestSweepFuzz:
    @settings(
        max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        axis=st.sampled_from(["k", "kp", "algorithm"]),
        values=st.lists(st.sampled_from(SWEEP_VALUES), min_size=1, max_size=3),
        overrides=st.lists(st.one_of(st.sampled_from(FUZZ_SETTINGS), st.sampled_from(FUZZ_OVERRIDES)), max_size=2),
    )
    @example(axis="kp", values=["0", "2"], overrides=["ablation=linear_base"])
    @example(axis="algorithm", values=["fedper", "fedavg"], overrides=["ablation=linear_base"])
    @example(axis="algorithm", values=["fedper", "fedavg"], overrides=["algorithm=fedavg"])
    @example(axis="kp", values=["0", "1"], overrides=["algorithm=fedavg"])
    def test_any_sweep_ends_in_an_exit_code(self, axis, values, overrides, tmp_path):
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / "o"
        sets = [arg for setting in overrides for arg in ("--set", setting)]
        # --values=... so that a leading -1 is a value, not an option
        args = ["sweep", *SMALL, "--set", "rounds=1", *sets, "--axis", axis, f"--values={','.join(values)}"]
        code = main([*args, "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()
