import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fedper.experiment
from fedper.cli import main
from fedper.config import SCHEMA, SECTIONS, apply_overrides, build_dataset, default_config, resolve
from fedper.data import synth_classification, save_csv
from fedper.errors import ConfigError
from fedper.experiment import client_shards
from fedper.model import ModelSpec, linearize_base


SMALL = [
    "--set", "rounds=2",
    "--set", "dataset.per_class=30",
    "--set", "partition.num_clients=4",
]


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
        monkeypatch.setattr(fedper.experiment, "partition", lambda *args: pytest.fail("partitioned"))
        args = ["run", *SMALL, "--set", "partition.num_clients=1000000", "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path", [None, 5, '""'])
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

    @pytest.mark.parametrize("eta", ["NaN", "Infinity", "true"])
    def test_bad_learning_rate_is_usage_error(self, eta, tmp_path):
        assert main(["run", *SMALL, "--set", f"sgd.eta={eta}", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "k", "--values", "2"]])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_usage_error(self, command, threads, tmp_path):
        assert main([*command, *SMALL, "--threads", threads, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


class TestRunCommand:
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

    def test_unknown_algorithm_value(self, tmp_path):
        args = ["sweep", *SMALL, "--axis", "algorithm", "--values", "fedper,fedprox"]
        assert main([*args, "--out", str(tmp_path / "s")]) == 2

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

    def test_manifest_indices_form_partition(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["partition", "--set", "dataset.per_class=20", "--out", str(out)]) == 0
        manifest = json.loads(out.read_text())
        flat = sorted(i for c in manifest["clients"] for i in c["indices"])
        assert flat == list(range(4 * 20))


# Values of every JSON type and edge case, and texts that do not parse as
# JSON; --set parses each as JSON where it can, as a plain string otherwise.
HUGE = "1" + "0" * 30
FUZZ_VALUES = [
    "true", "false", "null", "1.5", "-1", "0", "NaN", "Infinity", "-Infinity", "1e308", HUGE,
    '""', "x" * 300, "../x", "a/b", "{}", "[]", "[1]", "[1,2,3]",
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


class TestConfigFuzz:
    @settings(
        max_examples=200, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(overrides=st.lists(st.sampled_from(FUZZ_OVERRIDES), min_size=1, max_size=3))
    def test_any_overrides_end_in_an_exit_code(self, overrides, tmp_path):
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / "o"
        sets = [arg for setting in overrides for arg in ("--set", setting)]
        code = main(["run", *SMALL, "--set", "rounds=1", *sets, "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()
