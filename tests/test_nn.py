import math

import numpy as np
import pytest

from fedper.data import LabeledDataset
from fedper.errors import ConfigError, ShapeError, UsageError
from fedper.model import ModelSpec
from fedper.nn import (
    LayerSpec,
    SgdConfig,
    forward,
    init_weights,
    loss_and_grad,
    minibatch_indices,
    sgd,
    weights_equal,
)
from helpers import assert_grad_close, fd_gradients, rand_batch, rand_spec, rand_weights, ref_loss


def one_layer(w, b, activation="identity", k_personal=0):
    w = np.asarray(w, dtype=np.float64)
    spec = ModelSpec((LayerSpec(w.shape[1], w.shape[0], activation),), k_personal)
    weights = [(w, np.asarray(b, dtype=np.float64))]
    return spec, weights


class TestForward:
    def test_identity_map(self):
        spec, weights = one_layer([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        out = forward(spec, weights, [], np.array([3.0, 4.0]))
        assert np.array_equal(out, [3.0, 4.0])

    def test_relu_clamps_negative(self):
        spec, weights = one_layer([[-1.0]], [0.0], activation="relu")
        out = forward(spec, weights, [], np.array([5.0]))
        assert np.array_equal(out, [0.0])

    def test_two_layer_chain(self):
        # hand matrix chain: 3 * (2 * 1) = 6
        spec = ModelSpec((LayerSpec(1, 1, "identity"), LayerSpec(1, 1, "identity")), 1)
        base = [(np.array([[2.0]]), np.zeros(1))]
        personal = [(np.array([[3.0]]), np.zeros(1))]
        out = forward(spec, base, personal, np.array([1.0]))
        assert np.array_equal(out, [6.0])

    def test_bad_input_dim_names_layer(self):
        spec, weights = one_layer([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(ShapeError, match="layer 0"):
            forward(spec, weights, [], np.array([1.0, 2.0, 3.0]))

    def test_bad_layer_shape_names_layer(self):
        spec = ModelSpec((LayerSpec(2, 2, "identity"), LayerSpec(2, 3, "identity")), 1)
        base = [(np.eye(2), np.zeros(2))]
        personal = [(np.zeros((4, 2)), np.zeros(4))]
        with pytest.raises(ShapeError, match="layer 1"):
            forward(spec, base, personal, np.zeros(2))

    def test_does_not_mutate_inputs(self):
        rng = np.random.default_rng(0)
        spec = rand_spec(rng)
        base = rand_weights(spec.base_layers, rng)
        personal = rand_weights(spec.personal_layers, rng)
        before = [(w.copy(), b.copy()) for w, b in base + personal]
        x = rng.standard_normal(spec.in_dim)
        forward(spec, base, personal, x)
        after = base + personal
        for (w0, b0), (w1, b1) in zip(before, after):
            assert np.array_equal(w0, w1) and np.array_equal(b0, b1)


class TestLossAndGrad:
    def test_uniform_logits_max_entropy(self):
        # zero weights give uniform logits over C classes: loss = ln C
        spec = ModelSpec((LayerSpec(3, 2, "identity"),), 0)
        weights = [(np.zeros((2, 3)), np.zeros(2))]
        loss, _, _ = loss_and_grad(spec, weights, [], LabeledDataset(np.ones((1, 3)), [0], 2))
        assert loss == pytest.approx(math.log(2), rel=1e-15)

    def test_matches_independent_loss_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            spec = rand_spec(rng)
            base = rand_weights(spec.base_layers, rng)
            personal = rand_weights(spec.personal_layers, rng)
            batch = rand_batch(spec, rng, int(rng.integers(1, 5)))
            loss, _, _ = loss_and_grad(spec, base, personal, batch)
            assert loss == pytest.approx(ref_loss(spec, base, personal, batch), rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            spec = rand_spec(rng)
            base = rand_weights(spec.base_layers, rng)
            personal = rand_weights(spec.personal_layers, rng)
            batch = rand_batch(spec, rng, 4)
            _, gb, gp = loss_and_grad(spec, base, personal, batch)
            fb, fp = fd_gradients(spec, base, personal, batch)
            assert_grad_close(gb, fb)
            assert_grad_close(gp, fp)

    def test_duplicated_batch_is_invariant(self):
        rng = np.random.default_rng(3)
        spec = rand_spec(rng)
        base = rand_weights(spec.base_layers, rng)
        personal = rand_weights(spec.personal_layers, rng)
        batch = rand_batch(spec, rng, 3)
        loss1, gb1, gp1 = loss_and_grad(spec, base, personal, batch)
        loss2, gb2, gp2 = loss_and_grad(spec, base, personal, batch.subset(np.tile(np.arange(3), 2)))
        assert loss2 == pytest.approx(loss1, rel=1e-12)
        for s1, s2 in ((gb1, gb2), (gp1, gp2)):
            for (w1, b1), (w2, b2) in zip(s1, s2):
                assert np.allclose(w1, w2, rtol=1e-12, atol=1e-15)
                assert np.allclose(b1, b2, rtol=1e-12, atol=1e-15)

    def test_empty_batch_rejected(self):
        spec, weights = one_layer([[1.0]], [0.0])
        with pytest.raises(UsageError):
            loss_and_grad(spec, weights, [], LabeledDataset(np.empty((0, 1)), [], 1))

    def test_gradients_finite(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            spec = rand_spec(rng)
            base = rand_weights(spec.base_layers, rng)
            personal = rand_weights(spec.personal_layers, rng)
            loss, gb, gp = loss_and_grad(spec, base, personal, rand_batch(spec, rng, 3))
            assert math.isfinite(loss)
            for w, b in gb + gp:
                assert np.isfinite(w).all() and np.isfinite(b).all()


class TestSgd:
    def test_zero_eta_is_identity(self):
        rng = np.random.default_rng(5)
        spec = rand_spec(rng)
        base = rand_weights(spec.base_layers, rng)
        personal = rand_weights(spec.personal_layers, rng)
        dataset = rand_batch(spec, rng, 6)
        b2, p2 = sgd(spec, base, personal, dataset, SgdConfig(0.0, 3, 2), np.random.default_rng(0))
        assert weights_equal(b2, base) and weights_equal(p2, personal)

    def test_single_sample_hand_step(self):
        # 1x2 identity layer, one sample: softmax gradient known in closed form
        spec = ModelSpec((LayerSpec(1, 2, "identity"),), 0)
        w = np.array([[0.3], [-0.2]])
        weights = [(w.copy(), np.zeros(2))]
        x, y, eta = 1.0, 0, 0.1
        logits = w[:, 0] * x
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        grad_w = (probs - np.array([1.0, 0.0]))[:, None] * x
        grad_b = probs - np.array([1.0, 0.0])

        b2, _ = sgd(
            spec, weights, [], LabeledDataset(np.array([[x]]), [y], 2),
            SgdConfig(eta, 1, 1), np.random.default_rng(0),
        )
        assert np.allclose(b2[0][0], w - eta * grad_w, rtol=1e-15, atol=1e-15)
        assert np.allclose(b2[0][1], -eta * grad_b, rtol=1e-15, atol=1e-15)

    def test_full_batch_single_update(self):
        # b >= n and e=1 collapses to exactly one full-batch gradient step
        rng = np.random.default_rng(9)
        spec = rand_spec(rng)
        base = rand_weights(spec.base_layers, rng)
        personal = rand_weights(spec.personal_layers, rng)
        dataset = rand_batch(spec, rng, 5)

        seed = 1234
        perm = np.random.default_rng(seed).permutation(len(dataset))
        _, gb, gp = loss_and_grad(spec, base, personal, dataset.subset(perm))
        eta = 0.05
        b2, p2 = sgd(spec, base, personal, dataset, SgdConfig(eta, 1, 10), np.random.default_rng(seed))
        for (w2, bias2), (w0, bias0), (gw, gbias) in zip(
            b2 + p2, base + personal, gb + gp
        ):
            assert np.array_equal(w2, w0 - eta * gw)
            assert np.array_equal(bias2, bias0 - eta * gbias)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(21)
        spec = rand_spec(rng)
        base = rand_weights(spec.base_layers, rng)
        personal = rand_weights(spec.personal_layers, rng)
        dataset = rand_batch(spec, rng, 7)
        cfg = SgdConfig(0.05, 3, 2)
        out1 = sgd(spec, base, personal, dataset, cfg, np.random.default_rng(99))
        out2 = sgd(spec, base, personal, dataset, cfg, np.random.default_rng(99))
        assert weights_equal(out1[0], out2[0]) and weights_equal(out1[1], out2[1])

    def test_does_not_mutate_inputs(self):
        rng = np.random.default_rng(13)
        spec = rand_spec(rng)
        base = rand_weights(spec.base_layers, rng)
        personal = rand_weights(spec.personal_layers, rng)
        snapshot = [(w.copy(), b.copy()) for w, b in base + personal]
        sgd(spec, base, personal, rand_batch(spec, rng, 4), SgdConfig(0.1, 2, 2), np.random.default_rng(1))
        for (w0, b0), (w1, b1) in zip(snapshot, base + personal):
            assert np.array_equal(w0, w1) and np.array_equal(b0, b1)

    def test_empty_dataset_rejected(self):
        spec, weights = one_layer([[1.0]], [0.0])
        with pytest.raises(UsageError):
            sgd(
                spec, weights, [], LabeledDataset(np.empty((0, 1)), [], 1),
                SgdConfig(0.1, 1, 1), np.random.default_rng(0),
            )


class TestEpochBatches:
    @pytest.mark.parametrize("n,b", [(10, 3), (8, 8), (5, 1), (4, 100)])
    def test_every_sample_exactly_once(self, n, b):
        batches = minibatch_indices(n, b, np.random.default_rng(2))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(n))
        assert all(len(chunk) <= b for chunk in batches)

    def test_last_partial_batch_kept(self):
        batches = minibatch_indices(7, 3, np.random.default_rng(0))
        assert [len(c) for c in batches] == [3, 3, 1]


class TestValidation:
    def test_layer_spec_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            LayerSpec(0, 1)
        with pytest.raises(ConfigError):
            LayerSpec(1, 1, "tanh")

    def test_sgd_config_bounds(self):
        with pytest.raises(ConfigError):
            SgdConfig(-0.1, 1, 1)
        with pytest.raises(ConfigError):
            SgdConfig(0.1, 0, 1)
        with pytest.raises(ConfigError):
            SgdConfig(0.1, 1, 0)
        SgdConfig(0.0, 1, 1)  # zero step size is valid

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), -float("inf")])
    def test_sgd_config_rejects_non_finite_eta(self, eta):
        with pytest.raises(ConfigError, match="finite"):
            SgdConfig(eta, 1, 1)

    def test_init_weights_bounds_and_zero_bias(self):
        specs = (LayerSpec(4, 6, "relu"),)
        ws = init_weights(specs, np.random.default_rng(0))
        w, b = ws[0]
        limit = math.sqrt(6.0 / (4 + 6))
        assert np.all(np.abs(w) <= limit)
        assert np.array_equal(b, np.zeros(6))

    def test_labeled_dataset_validation(self):
        with pytest.raises(ConfigError, match="label -1"):
            LabeledDataset(np.zeros((2, 2)), [0, -1], 2)
        with pytest.raises(ShapeError):
            LabeledDataset(np.zeros(2), [0, 1], 2)  # X is not 2-D
        with pytest.raises(ShapeError):
            LabeledDataset(np.zeros((3, 2)), [0, 1], 2)  # 3 rows, 2 labels
