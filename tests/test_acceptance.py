"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The long federation runs are shared through module-scoped fixtures; their
build time is charged against the criterion that owns the budget.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import fedper.rng as rngmod
from fedper.cli import main
from fedper.config import apply_overrides, default_config, resolve, build_dataset
from fedper.data import (
    PartitionSpec,
    client_classes,
    partition_k_class_indices,
    partition_unbalanced_indices,
    synth_classification,
    synth_shells,
)
from fedper.errors import ConfigError
from fedper.experiment import run_experiment
from fedper.metrics import cross_client_stats
from fedper.model import ModelSpec, linearize_base
from fedper.nn import (
    LayerSpec,
    SgdConfig,
    init_weights,
    loss_and_grad,
    weights_checksum,
    weights_equal,
)
from fedper.protocol import (
    MSG_PERSONAL_WEIGHTS,
    RunConfig,
    aggregate,
    fine_tune,
    make_client,
)
from helpers import assert_grad_close, fd_gradients, rand_batch, rand_spec, rand_weights


def report(number, name):
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# Shared trend task (criteria 4, 5, 6, 8): C=4, d=8, N=10, two label clusters
# with conflicting labelings, 50 rounds, K_P=1, spec-default hyperparameters.

TREND_LAYERS = (
    LayerSpec(8, 16, "relu"),
    LayerSpec(16, 16, "relu"),
    LayerSpec(16, 4, "identity"),
)
TREND_SEED = 123


def trend_dataset():
    # cluster 0 labels identically, cluster 1 cycles labels by +2: the same
    # feature component appears under conflicting labels across clusters
    return synth_classification(
        4, 8, 200, label_permutations=[[0, 1, 2, 3], [2, 3, 0, 1]], seed=11, sigma=0.5
    )


def trend_config(k, k_personal, fine_tune_flag=False):
    return RunConfig(
        spec=ModelSpec(TREND_LAYERS, k_personal),
        rounds=50,
        sgd=SgdConfig(0.01, 4, 16),
        fine_tune=fine_tune_flag,
        master_seed=TREND_SEED,
        partition=PartitionSpec(mode="k_class", num_clients=10, k=k, train_fraction=0.8, seed=77),
    )


@pytest.fixture(scope="module")
def trend_runs():
    ds = trend_dataset()
    start = time.perf_counter()
    runs = {
        ("fedper", 2): run_experiment(trend_config(2, 1), ds),
        ("fedavg", 2): run_experiment(trend_config(2, 0), ds),
        ("fedper", 4): run_experiment(trend_config(4, 1), ds),
        ("fedavg", 4): run_experiment(trend_config(4, 0), ds),
    }
    elapsed = time.perf_counter() - start
    return runs, elapsed


def final_mean(result):
    return cross_client_stats(result.history.final_accuracies()).mean


def final_std(result):
    return cross_client_stats(result.history.final_accuracies()).std


# ---------------------------------------------------------------------------


def test_criterion_01_fedavg_equivalence():
    """FedPer with K_P=0 is bitwise identical to the algorithm=fedavg path."""
    start = time.perf_counter()
    overrides = [
        "rounds=20",
        "master_seed=2026",
        "partition.num_clients=5",
        "partition.k=3",
        "dataset.num_classes=3",
        "dataset.dim=6",
        "dataset.per_class=60",
        "dataset.clusters=1",
        'model.layers=[{"in_dim":6,"out_dim":12,"activation":"relu"},'
        '{"in_dim":12,"out_dim":8,"activation":"relu"},'
        '{"in_dim":8,"out_dim":3,"activation":"identity"}]',
    ]
    fedper_cfg = resolve(apply_overrides(default_config(), overrides + ["model.k_personal=0"]))
    fedavg_cfg = resolve(apply_overrides(default_config(), overrides + ["algorithm=fedavg"]))
    ds = build_dataset(fedper_cfg.dataset)

    history_fedper = run_experiment(fedper_cfg.run, ds).history
    history_fedavg = run_experiment(fedavg_cfg.run, ds).history
    assert history_fedper == history_fedavg  # exact, every float and checksum
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(1, "fedavg-equivalence")


def test_criterion_02_gradient_oracle():
    """Backprop matches central finite differences on 50 random nets."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(50):
        spec = rand_spec(rng, max_layers=3, max_dim=8)
        base = rand_weights(spec.base_layers, rng)
        personal = rand_weights(spec.personal_layers, rng)
        batch = rand_batch(spec, rng, int(rng.integers(1, 5)))
        _, gb, gp = loss_and_grad(spec, base, personal, batch)
        fb, fp = fd_gradients(spec, base, personal, batch, h=1e-5)
        assert_grad_close(gb, fb, rtol=1e-6, atol=1e-9)
        assert_grad_close(gp, fp, rtol=1e-6, atol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    report(2, "gradient-oracle")


def test_criterion_03_aggregation_oracle():
    """aggregate == brute-force per-element weighted mean within 1e-12,
    and identical inputs are an exact fixed point."""
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    for _ in range(100):
        n_clients = int(rng.integers(2, 7))
        n_layers = int(rng.integers(1, 4))
        shapes = [(int(rng.integers(1, 8)), int(rng.integers(1, 8))) for _ in range(n_layers)]
        sets = [
            [(rng.standard_normal((o, i)), rng.standard_normal(o)) for o, i in shapes]
            for _ in range(n_clients)
        ]
        raw = rng.uniform(0.1, 1.0, n_clients)
        gammas = (raw / raw.sum()).tolist()

        got = aggregate(list(zip(sets, gammas)))
        for li in range(n_layers):
            for part in (0, 1):
                flat = got[li][part].reshape(-1)
                for pos in range(flat.size):
                    brute = sum(
                        g * ws[li][part].reshape(-1)[pos] for ws, g in zip(sets, gammas)
                    )
                    assert abs(flat[pos] - brute) < 1e-12

        fixed = aggregate([(sets[0], g) for g in gammas])
        assert weights_equal(fixed, sets[0])  # exact
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    report(3, "aggregation-oracle")


def test_criterion_04_privacy_invariant(trend_runs):
    """A 50-round, N=10 run logs zero personalization-weight payloads."""
    runs, _ = trend_runs
    server = runs[("fedper", 2)].server
    assert len(server.message_log) == 10 + 2 * 10 * 50
    assert all(m.kind != MSG_PERSONAL_WEIGHTS for m in server.message_log)
    assert server.personal_payload_count() == 0
    report(4, "privacy-invariant")


def test_criterion_05_heterogeneity_trend(trend_runs):
    """FedPer beats FedAvg by >= 15 points at k=2; the gap at k=4 (identical
    partition) is <= 3 points; gap(k=2) > gap(k=4)."""
    runs, elapsed = trend_runs
    gap_k2 = final_mean(runs[("fedper", 2)]) - final_mean(runs[("fedavg", 2)])
    gap_k4 = final_mean(runs[("fedper", 4)]) - final_mean(runs[("fedavg", 4)])
    assert gap_k2 >= 0.15
    assert gap_k4 <= 0.03
    assert gap_k2 > gap_k4
    assert elapsed < 120
    report(5, "heterogeneity-trend")


def test_criterion_06_variance_trend(trend_runs):
    """At k=2 the cross-client accuracy std of FedPer is strictly lower."""
    runs, _ = trend_runs
    assert final_std(runs[("fedper", 2)]) < final_std(runs[("fedavg", 2)])
    report(6, "variance-trend")


def test_criterion_07_linear_base_ablation():
    """Replacing the base stack with one linear layer costs >= 5 points on a
    concentric-shell task."""
    start = time.perf_counter()
    shells = synth_shells(2, 2, 200, seed=13, radius_step=1.0, noise=0.1)
    spec = ModelSpec(
        (LayerSpec(2, 16, "relu"), LayerSpec(16, 16, "relu"), LayerSpec(16, 2, "identity")), 1
    )
    cfg = RunConfig(
        spec=spec, rounds=50, sgd=SgdConfig(0.01, 4, 16),
        fine_tune=False, master_seed=321,
        partition=PartitionSpec(mode="k_class", num_clients=10, k=2, train_fraction=0.8, seed=55),
    )
    full = run_experiment(cfg, shells)
    ablated = run_experiment(replace(cfg, spec=linearize_base(spec)), shells)
    drop = final_mean(full) - final_mean(ablated)
    assert drop >= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(7, "linear-base-ablation")


def test_criterion_08_fine_tuning_variant(trend_runs):
    """fine_tune=true completes, freezes the base exactly, and lands within
    2 points of (or above) the fine_tune=false run."""
    runs, _ = trend_runs
    ds = trend_dataset()
    with_ft = run_experiment(trend_config(2, 1, fine_tune_flag=True), ds)
    assert len(with_ft.history) == 50

    # freeze exactness: the broadcast base is bit-identical around the pass
    cfg = trend_config(2, 1)
    client = make_client(cfg, 0, rand_batch(cfg.spec, np.random.default_rng(1), 12),
                         rand_batch(cfg.spec, np.random.default_rng(2), 4))
    base_in = init_weights(cfg.spec.base_layers, np.random.default_rng(3))
    checksum_before = weights_checksum(base_in)
    fine_tune(client, cfg, base_in, round_idx=1)
    assert weights_checksum(base_in) == checksum_before

    baseline = final_mean(runs[("fedper", 2)])
    assert final_mean(with_ft) >= baseline - 0.02
    report(8, "fine-tuning-variant")


def test_criterion_09_cli_determinism(tmp_path):
    """Repeated runs, single-threaded and with --threads 4, give byte-identical
    history and checkpoint files."""
    start = time.perf_counter()
    args = [
        "run",
        "--set", "rounds=5",
        "--set", "dataset.per_class=40",
        "--set", "partition.num_clients=4",
        "--set", "output.checkpoint_every=5",
        "--seed", "31415",
    ]
    outs = [tmp_path / name for name in ("a", "b", "c")]
    assert main([*args, "--out", str(outs[0])]) == 0
    assert main([*args, "--out", str(outs[1])]) == 0
    assert main([*args, "--out", str(outs[2]), "--threads", "4"]) == 0

    trees = []
    for out in outs:
        trees.append(
            {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        )
    assert trees[0] == trees[1] == trees[2]
    assert any("history" in name for name in trees[0])
    assert any("checkpoints" in name for name in trees[0])
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(9, "determinism")


def test_criterion_10_partition_correctness():
    """200 random spec draws per mode: exact multiset partition, <= k labels
    per client, per-class shares within 1; volume bounds in unbalanced mode."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)

    checked = 0
    while checked < 200:
        num_classes = int(rng.integers(2, 9))
        num_clients = int(rng.integers(1, 13))
        k = int(rng.integers(1, num_classes + 1))
        spec = PartitionSpec(
            mode="k_class", num_clients=num_clients, k=k, seed=int(rng.integers(0, 2**31))
        )
        covered = set()
        for classes in client_classes(spec, num_classes):
            covered.update(classes)
        ds = synth_classification(num_classes, 2, int(rng.integers(3, 20)), seed=checked)
        if covered != set(range(num_classes)):
            with pytest.raises(ConfigError):
                partition_k_class_indices(ds, spec)
            continue
        indices = partition_k_class_indices(ds, spec)
        assert sorted(i for idx in indices for i in idx) == list(range(len(ds)))
        labels = ds.y
        for idx in indices:
            assert len({int(labels[i]) for i in idx}) <= k
        for c in range(num_classes):
            shares = [int(np.sum(labels[idx] == c)) for idx in indices if np.any(labels[idx] == c)]
            assert max(shares) - min(shares) <= 1
        checked += 1

    big = synth_classification(3, 2, 120, seed=5)  # 360 samples
    for trial in range(200):
        lo = int(rng.integers(1, 200))
        hi = int(rng.integers(lo, 361))
        spec = PartitionSpec(
            mode="unbalanced_users", num_clients=int(rng.integers(1, 9)),
            volume_range=(lo, hi), seed=trial,
        )
        for idx in partition_unbalanced_indices(big, spec):
            assert lo <= len(idx) <= hi
            assert len(set(idx)) == len(idx)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(10, "partition-correctness")
