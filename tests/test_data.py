import collections
import itertools
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedper.data
from fedper.data import (
    LabeledDataset,
    PartitionSpec,
    check_partition_size,
    class_means,
    client_classes,
    load_csv,
    partition,
    partition_k_class_indices,
    partition_unbalanced_indices,
    save_csv,
    synth_classification,
    synth_shells,
    train_test_split,
)
from fedper.errors import ConfigError, ParseError


def dataset_multiset(ds: LabeledDataset):
    return collections.Counter((x.tobytes(), int(y)) for x, y in zip(ds.X, ds.y))


class TestSynthClassification:
    def test_counts_per_class(self):
        ds = synth_classification(4, 3, 25, seed=1)
        assert len(ds) == 100
        counts = collections.Counter(ds.y.tolist())
        assert all(counts[c] == 25 for c in range(4))

    def test_counts_stay_equal_with_clusters(self):
        perms = [[0, 1, 2, 3], [1, 2, 3, 0]]
        ds = synth_classification(4, 3, 24, label_permutations=perms, seed=1)
        counts = collections.Counter(ds.y.tolist())
        assert all(counts[c] == 24 for c in range(4))

    def test_separable_limit_nearest_mean(self):
        # sigma -> 0: the nearest-mean rule recovers every label
        ds = synth_classification(5, 4, 10, seed=3, sigma=1e-12)
        means = class_means(5, 4)
        for x, y in zip(ds.X, ds.y):
            nearest = int(np.argmin(np.linalg.norm(means - x, axis=1)))
            assert nearest == y

    def test_swapped_clusters_cap_global_accuracy_at_half(self):
        # two clusters with swapped labels on the same component structure:
        # every classifier measurable on the true components scores exactly
        # one half on the pooled data (brute force over all 4 such maps)
        m = 40
        ds = synth_classification(2, 3, m, label_permutations=[[0, 1], [1, 0]], seed=9)
        components = [i // m for i in range(len(ds))]  # generation order
        for assignment in itertools.product([0, 1], repeat=2):
            hits = sum(
                1 for comp, y in zip(components, ds.y) if assignment[comp] == y
            )
            assert hits / len(ds) == 0.5

    def test_deterministic_given_seed(self):
        a = synth_classification(3, 2, 10, seed=4)
        b = synth_classification(3, 2, 10, seed=4)
        c = synth_classification(3, 2, 10, seed=5)
        assert dataset_multiset(a) == dataset_multiset(b)
        assert dataset_multiset(a) != dataset_multiset(c)

    def test_rejects_bad_permutation(self):
        with pytest.raises(ConfigError):
            synth_classification(3, 2, 5, label_permutations=[[0, 0, 1]])


class TestSynthShells:
    def test_radii_separate_classes(self):
        ds = synth_shells(3, 4, 50, seed=2, radius_step=1.0, noise=0.01)
        for x, y in zip(ds.X, ds.y):
            assert abs(np.linalg.norm(x) - (y + 1)) < 0.1

    def test_counts(self):
        ds = synth_shells(2, 2, 30, seed=0)
        counts = collections.Counter(ds.y.tolist())
        assert counts[0] == counts[1] == 30


class TestKClassPartition:
    def test_two_clients_one_class_each(self):
        ds = synth_classification(2, 2, 10, seed=0)
        spec = PartitionSpec(mode="k_class", num_clients=2, k=1, seed=1)
        parts = partition(ds, spec)
        assert set(parts[0].y.tolist()) == {0}
        assert set(parts[1].y.tolist()) == {1}
        assert len(parts[0]) == len(parts[1]) == 10

    def test_k_equals_c_identical_partition(self):
        # every client holds one tenth of every class
        ds = synth_classification(10, 4, 20, seed=0)
        spec = PartitionSpec(mode="k_class", num_clients=10, k=10, seed=1)
        parts = partition(ds, spec)
        for part in parts:
            counts = collections.Counter(part.y.tolist())
            assert all(counts[c] == 2 for c in range(10))

    def test_exact_multiset_partition(self):
        ds = synth_classification(4, 2, 13, seed=2)
        spec = PartitionSpec(mode="k_class", num_clients=5, k=2, seed=3)
        indices = partition_k_class_indices(ds, spec)
        flat = sorted(i for idx in indices for i in idx)
        assert flat == list(range(len(ds)))

    def test_label_cardinality_and_share_balance(self):
        ds = synth_classification(4, 2, 50, seed=5)
        spec = PartitionSpec(mode="k_class", num_clients=10, k=2, seed=6)
        parts = partition(ds, spec)
        labels = ds.y
        indices = partition_k_class_indices(ds, spec)
        for part in parts:
            assert len(set(part.y.tolist())) <= 2
        # per-class share sizes differ by at most 1 among eligible clients
        for c in range(4):
            shares = [np.sum(labels[idx] == c) for idx in indices if np.any(labels[idx] == c)]
            assert max(shares) - min(shares) <= 1

    def test_balanced_volumes_when_eligibility_is_uniform(self):
        # C divides N: every class has the same number of eligible clients,
        # so client volumes differ by at most k
        ds = synth_classification(2, 2, 51, seed=7)
        spec = PartitionSpec(mode="k_class", num_clients=4, k=1, seed=8)
        sizes = [len(idx) for idx in partition_k_class_indices(ds, spec)]
        assert max(sizes) - min(sizes) <= spec.k

    def test_uncovered_class_rejected(self):
        ds = synth_classification(4, 2, 5, seed=0)
        spec = PartitionSpec(mode="k_class", num_clients=1, k=1, seed=0)
        with pytest.raises(ConfigError, match="no eligible client"):
            partition(ds, spec)

    def test_uncovered_class_found_without_per_class_work(self):
        # one huge label makes 2,000,001 classes, of which N * k = 20 are assigned
        y = [0, 1, 2, 3, 2_000_000]
        ds = LabeledDataset(np.zeros((5, 8)), y, max(y) + 1)
        spec = PartitionSpec(mode="k_class", num_clients=10, k=2, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="class 2 has no eligible client"):
                partition_k_class_indices(ds, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_size_rule_counts_classes_only_once_they_fit_the_clients(self):
        """partition finds the uncovered class before it gathers the
        samples of each of the 2,000,001 classes."""
        ds = LabeledDataset(np.zeros((5, 8)), [0, 1, 2, 3, 2_000_000], 2_000_001)
        spec = PartitionSpec(mode="k_class", num_clients=5, k=2, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="class 2 has no eligible client"):
                partition(ds, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_client_left_without_a_sample_refused_from_its_shares(self, monkeypatch):
        """partition refuses a client its shares leave empty with the fit
        check's message, from the shares it cut: it runs no size rule and
        counts no classes."""
        ds = synth_classification(4, 2, 1, seed=0)  # one sample per class
        spec = PartitionSpec(mode="k_class", num_clients=4, k=2, seed=0)
        with pytest.raises(ConfigError) as rule:
            check_partition_size(spec, len(ds), ds.num_classes, lambda: [1] * 4)
        monkeypatch.setattr(fedper.data, "check_partition_size", mock.Mock(side_effect=AssertionError("size rule")))
        monkeypatch.setattr(np, "bincount", mock.Mock(side_effect=AssertionError("classes counted")))
        with pytest.raises(ConfigError) as refused:
            partition(ds, spec)
        assert str(refused.value) == str(rule.value)
        assert str(refused.value).startswith("k_class client 3 would get no sample")

    def test_k_larger_than_c_rejected(self):
        ds = synth_classification(2, 2, 5, seed=0)
        with pytest.raises(ConfigError, match="exceeds"):
            partition(ds, PartitionSpec(mode="k_class", num_clients=2, k=3, seed=0))

    def test_deterministic(self):
        ds = synth_classification(3, 2, 20, seed=1)
        spec = PartitionSpec(mode="k_class", num_clients=4, k=2, seed=9)
        once, twice = partition_k_class_indices(ds, spec), partition_k_class_indices(ds, spec)
        assert [idx.tolist() for idx in once] == [idx.tolist() for idx in twice]

    @settings(max_examples=60, deadline=None)
    @given(
        num_classes=st.integers(2, 8),
        num_clients=st.integers(2, 12),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_partition_properties_hold_for_random_specs(self, num_classes, num_clients, k, seed):
        k = min(k, num_classes)
        spec = PartitionSpec(mode="k_class", num_clients=num_clients, k=k, seed=seed)
        covered = set()
        for classes in client_classes(spec, num_classes):
            covered.update(classes)
        ds = synth_classification(num_classes, 2, 7, seed=seed % 1000)
        if covered != set(range(num_classes)):
            with pytest.raises(ConfigError):
                partition_k_class_indices(ds, spec)
            return
        indices = partition_k_class_indices(ds, spec)
        assert sorted(i for idx in indices for i in idx) == list(range(len(ds)))
        labels = ds.y
        for idx in indices:
            assert len({int(labels[i]) for i in idx}) <= k


class TestUnbalancedPartition:
    def test_degenerate_range(self):
        ds = synth_classification(2, 2, 20, seed=0)
        spec = PartitionSpec(mode="unbalanced_users", num_clients=3, volume_range=(5, 5), seed=1)
        parts = partition(ds, spec)
        assert [len(p) for p in parts] == [5, 5, 5]

    def test_volumes_within_range(self):
        ds = synth_classification(2, 4, 200, seed=0)
        spec = PartitionSpec(
            mode="unbalanced_users", num_clients=8, volume_range=(60, 290), seed=2
        )
        for idx in partition_unbalanced_indices(ds, spec):
            assert 60 <= len(idx) <= 290
            assert len(set(idx)) == len(idx)  # without replacement per client

    def test_same_seed_same_draws(self):
        ds = synth_classification(2, 2, 50, seed=0)
        spec = PartitionSpec(mode="unbalanced_users", num_clients=4, volume_range=(3, 9), seed=3)
        once, twice = partition_unbalanced_indices(ds, spec), partition_unbalanced_indices(ds, spec)
        assert [idx.tolist() for idx in once] == [idx.tolist() for idx in twice]

    def test_range_exceeding_dataset_rejected(self):
        ds = synth_classification(2, 2, 5, seed=0)
        spec = PartitionSpec(mode="unbalanced_users", num_clients=2, volume_range=(1, 11), seed=0)
        with pytest.raises(ConfigError, match="volume_range"):
            partition_unbalanced_indices(ds, spec)

    def test_rater_disagreement_relabels_deterministically(self):
        ds = synth_classification(3, 2, 30, seed=0)
        spec = PartitionSpec(
            mode="unbalanced_users", num_clients=3, volume_range=(10, 10), seed=4,
            rater_disagreement=True,
        )
        once = partition(ds, spec)
        twice = partition(ds, spec)
        for a, b in zip(once, twice):
            assert dataset_multiset(a) == dataset_multiset(b)
        # features come from the source dataset even when labels are re-drawn
        source_features = {x.tobytes() for x in ds.X}
        assert all(x.tobytes() in source_features for p in once for x in p.X)


class TestTrainTestSplit:
    def test_fraction_one_empty_test(self):
        ds = synth_classification(2, 2, 5, seed=0)
        train, test = train_test_split(ds, 1.0, seed=1)
        assert len(train) == len(ds) and len(test) == 0

    def test_eighty_twenty(self):
        ds = synth_classification(2, 2, 5, seed=0)  # n = 10
        train, test = train_test_split(ds, 0.8, seed=1)
        assert (len(train), len(test)) == (8, 2)

    def test_union_and_disjointness(self):
        ds = synth_classification(3, 2, 9, seed=0)
        train, test = train_test_split(ds, 0.7, seed=2)
        combined = dataset_multiset(train) + dataset_multiset(test)
        assert combined == dataset_multiset(ds)

    def test_bad_fraction(self):
        ds = synth_classification(2, 2, 5, seed=0)
        with pytest.raises(ConfigError):
            train_test_split(ds, 0.0, seed=0)


class TestCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n0.5,1.5,0\n-2.0,3.0,1\n")
        ds = load_csv(path)
        assert ds.num_classes == 2
        assert len(ds) == 2
        assert np.array_equal(ds.X[0], [0.5, 1.5])

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,0\nbroken\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        path = tmp_path / "d.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n{value},1.0,1\n")
        with pytest.raises(ParseError, match="line 3: non-finite feature value"):
            load_csv(path)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,1.5\n")
        with pytest.raises(ParseError, match="non-integer label"):
            load_csv(path)

    def test_label_too_large_for_an_integer_array(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1000000000000000000000000000000\n")
        with pytest.raises(ParseError, match="d.csv: line 3: label 1000000000000000000000000000000 is too large"):
            load_csv(path)

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(path)

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"f0,f1,label\n1.0,2.0,0\n\xff,3.0,1\n")
        with pytest.raises(ParseError, match="d.csv: not UTF-8 text"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,0\n")
        with pytest.raises(ParseError, match="header"):
            load_csv(path)

    def test_save_that_fails_leaves_the_old_file(self, tmp_path, monkeypatch):
        """A save cut short before its rename keeps the old file's bytes and
        leaves no temporary file."""
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,0\n")

        def interrupted(*args):
            raise OSError("interrupted")
        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            save_csv(synth_classification(3, 4, 11, seed=8), path)
        assert path.read_bytes() == b"f0,label\n1.0,0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]

    def test_save_load_round_trip_bit_exact(self, tmp_path):
        ds = synth_classification(3, 4, 11, seed=8)
        path = tmp_path / "round.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.num_classes == ds.num_classes
        for ax, ay, bx, by in zip(ds.X, ds.y, back.X, back.y):
            assert ay == by
            assert ax.tobytes() == bx.tobytes()
