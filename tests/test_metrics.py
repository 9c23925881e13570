import csv
import json
import math

import numpy as np
import pytest

import fedper.nn
from fedper.data import LabeledDataset, synth_classification
from fedper.errors import ShapeError, UsageError
from fedper.metrics import ClientMetrics, cross_client_stats, emit, evaluate
from fedper.model import ModelSpec
from fedper.nn import LayerSpec, SgdConfig, init_weights, sgd
from fedper.protocol import RoundHistory, RoundRecord
import reference
from helpers import rand_batch, rand_spec, rand_weights


def identity_model(dim):
    spec = ModelSpec((LayerSpec(dim, dim, "identity"),), 0)
    weights = [(np.eye(dim), np.zeros(dim))]
    return spec, weights


class TestEvaluate:
    def test_trained_separable_task_is_perfect(self):
        ds = synth_classification(2, 2, 20, seed=1, sigma=1e-6)
        spec = ModelSpec((LayerSpec(2, 8, "relu"), LayerSpec(8, 2, "identity")), 0)
        rng = np.random.default_rng(0)
        base = init_weights(spec.layers, rng)
        base, _ = sgd(spec, base, [], ds, SgdConfig(0.5, 60, 40), rng)
        result = evaluate(spec, base, [], ds)
        assert result.accuracy == 1.0

    def test_chance_level_with_uniform_logits(self):
        # zero weights: all logits equal, argmax resolves to class 0, so
        # accuracy is exactly the fraction of label-0 samples (1/C balanced)
        spec = ModelSpec((LayerSpec(3, 4, "identity"),), 0)
        weights = [(np.zeros((4, 3)), np.zeros(4))]
        x = np.array([np.random.default_rng(i).standard_normal(3) for i in range(80)])
        result = evaluate(spec, weights, [], LabeledDataset(x, np.arange(80) % 4, 4))
        assert result.accuracy == 0.25

    def test_hand_built_three_samples(self):
        spec, weights = identity_model(3)
        x = np.array([
            [5.0, 1.0, 0.0],  # argmax 0, label 0: correct
            [0.0, 2.0, 9.0],  # argmax 2, label 1: wrong
            [1.0, 8.0, 2.0],  # argmax 1, label 1: correct
        ])
        result = evaluate(spec, weights, [], LabeledDataset(x, [0, 1, 1], 3))
        assert result.accuracy == pytest.approx(2 / 3)

    def test_tie_breaks_to_lowest_index(self):
        spec, weights = identity_model(2)
        result = evaluate(spec, weights, [], LabeledDataset(np.array([[1.0, 1.0]]), [0], 2))
        assert result.accuracy == 1.0

    def test_loss_is_mean_cross_entropy(self):
        spec, weights = identity_model(2)
        result = evaluate(spec, weights, [], LabeledDataset(np.array([[0.0, 0.0]]), [1], 2))
        assert result.loss == pytest.approx(math.log(2), rel=1e-15)

    def test_empty_test_rejected(self):
        spec, weights = identity_model(2)
        with pytest.raises(UsageError):
            evaluate(spec, weights, [], LabeledDataset(np.empty((0, 2)), [], 2))

    @pytest.mark.parametrize("split, match", [
        (lambda base, personal: (base + personal, []), "weight split"),
        (lambda base, personal: (base, [(np.zeros((2, 4)), np.zeros(2))]), "layer 1"),
        (lambda base, personal: (base, []), "weight split"),
    ], ids=["personal-in-base", "personal-shape", "personal-missing"])
    def test_weights_are_checked_against_the_spec(self, split, match):
        spec = ModelSpec((LayerSpec(2, 3, "relu"), LayerSpec(3, 2, "identity")), 1)
        weights = init_weights(spec.layers, np.random.default_rng(0))
        data = LabeledDataset(np.array([[1.0, 2.0], [0.5, -1.0]]), [0, 1], 2)
        with pytest.raises(ShapeError, match=match):
            evaluate(spec, *split(weights[:1], weights[1:]), data)

    def test_relu_then_layer_chain_by_hand(self):
        # x = 1: the base gives relu([2, -1]) = [2, 0], the personal layer
        # [6, 0]; the label is 1, so the loss is log(1 + e^-6) + 6 (without
        # the relu the logits would be [6, -1])
        spec = ModelSpec((LayerSpec(1, 2, "relu"), LayerSpec(2, 2, "identity")), 1)
        base = [(np.array([[2.0], [-1.0]]), np.zeros(2))]
        personal = [(np.array([[3.0, 0.0], [0.0, 1.0]]), np.zeros(2))]
        result = evaluate(spec, base, personal, LabeledDataset(np.array([[1.0]]), [1], 2))
        assert result.accuracy == 0.0
        assert result.loss == pytest.approx(6 + math.log1p(math.exp(-6)), rel=1e-15)

    @pytest.mark.parametrize("rows, classes, match", [
        (np.zeros((1, 3)), 2, r"layer 0: input dim 3 != expected 2"),
        (np.zeros((1, 2)), 3, "dataset has 3 classes, the model outputs 2"),
    ], ids=["input-width", "classes"])
    def test_data_is_checked_against_the_spec(self, rows, classes, match):
        spec, weights = identity_model(2)
        with pytest.raises(ShapeError, match=match):
            evaluate(spec, weights, [], LabeledDataset(rows, [0], classes))

    @staticmethod
    def assert_equals_reference(spec, n, seed):
        """evaluate on n random rows is bitwise (repr tells -0.0 from 0.0)
        the plain-numpy score of tests/reference.py."""
        rng = np.random.default_rng(seed)
        weights = rand_weights(spec.layers, rng)
        data = rand_batch(spec, rng, n)
        got = evaluate(spec, weights[: spec.k_base], weights[spec.k_base :], data)
        activations = [s.activation for s in spec.layers]
        assert repr(tuple(got)) == repr(reference.score(weights, activations, data.X, data.y))

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_reference(self, seed):
        rng = np.random.default_rng(seed)
        self.assert_equals_reference(rand_spec(rng), int(rng.integers(1, 40)), seed)

    def test_set_past_the_row_budget_equals_reference(self):
        """A set of more rows than ROW_BUDGET is one launch over the budget."""
        spec = ModelSpec((LayerSpec(8, 16, "relu"), LayerSpec(16, 4, "identity")), 1)
        self.assert_equals_reference(spec, fedper.nn.ROW_BUDGET + 3, 5)

    def test_twelve_classes_equal_reference(self):
        """More classes than CHAIN_MAX_COLUMNS: the row max is the reduction."""
        spec = ModelSpec((LayerSpec(8, 16, "relu"), LayerSpec(16, 12, "identity")), 1)
        assert spec.out_dim > fedper.nn.CHAIN_MAX_COLUMNS
        self.assert_equals_reference(spec, 300, 6)

    def test_pure(self):
        spec, weights = identity_model(2)
        snapshot = weights[0][0].copy()
        evaluate(spec, weights, [], LabeledDataset(np.array([[1.0, 2.0]]), [0], 2))
        assert np.array_equal(weights[0][0], snapshot)


class TestCrossClientStats:
    def test_identical_values(self):
        stats = cross_client_stats([0.4, 0.4, 0.4])
        assert stats.std == 0.0 and stats.mean == 0.4

    def test_hand_pair(self):
        stats = cross_client_stats([0.2, 0.4])
        assert stats.mean == pytest.approx(0.3)
        assert stats.std == pytest.approx(0.1)  # population std
        assert (stats.min, stats.max) == (0.2, 0.4)

    def test_single_client(self):
        stats = cross_client_stats([0.7])
        assert stats == (0.7, 0.0, 0.7, 0.7)

    def test_order_invariance_and_bounds(self):
        values = [0.1, 0.5, 0.9, 0.3]
        a = cross_client_stats(values)
        b = cross_client_stats(list(reversed(values)))
        assert a == b
        assert a.min <= a.mean <= a.max
        n = len(values)
        assert a.std <= (a.max - a.min) / 2 * math.sqrt(n / (n - 1))

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            cross_client_stats([])


def tiny_history(rounds=2, clients=2):
    records = []
    for k in range(1, rounds + 1):
        metrics = tuple(
            ClientMetrics(j, k, 0.25 * k + 0.01 * j, 1.0 / (k + j + 1)) for j in range(clients)
        )
        records.append(RoundRecord(k, f"checksum{k}", metrics))
    return RoundHistory(tuple(records))


class TestEmit:
    def test_csv_cardinality(self, tmp_path):
        path = tmp_path / "h.csv"
        emit(tiny_history(2, 2), "csv", path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "round,client,accuracy,loss"
        assert len(rows) == 1 + 4

    def test_empty_history_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        emit(RoundHistory(()), "csv", path)
        assert path.read_text() == "round,client,accuracy,loss\n"

    def test_round_trip_preserves_floats_exactly(self, tmp_path):
        history = tiny_history(3, 2)
        path = tmp_path / "h.csv"
        emit(history, "csv", path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        flat = [(m.round_idx, m.client_id, m.test_accuracy, m.train_loss)
                for r in history.rounds for m in r.clients]
        for row, (k, j, acc, loss) in zip(rows, flat):
            assert int(row["round"]) == k and int(row["client"]) == j
            assert float(row["accuracy"]) == acc  # repr round-trips exactly
            assert float(row["loss"]) == loss

    def test_json_mirrors_rows(self, tmp_path):
        path = tmp_path / "h.json"
        emit(tiny_history(1, 2), "json", path)
        rows = json.loads(path.read_text())
        assert rows == [
            {"round": 1, "client": 0, "accuracy": 0.25, "loss": 0.5},
            {"round": 1, "client": 1, "accuracy": 0.26, "loss": pytest.approx(1 / 3)},
        ]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            emit(tiny_history(), "yaml", tmp_path / "x")

    def test_no_temp_files_left_behind(self, tmp_path):
        emit(tiny_history(), "csv", tmp_path / "h.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["h.csv"]
