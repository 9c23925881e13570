import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fedper.nn
from fedper.data import LabeledDataset
from fedper.errors import ConfigError, ShapeError, UsageError
from fedper.model import ModelSpec
from fedper.nn import (
    LayerSpec,
    LockstepPlan,
    RowBlock,
    SgdConfig,
    _row_max,
    forward,
    init_weights,
    layout_order,
    loss_and_grad,
    sgd,
    weight_block,
    weights_blob,
    weights_equal,
)
from helpers import (
    assert_grad_close, fd_gradients, minibatch_indices, rand_batch, rand_spec, rand_weights, ref_loss,
)


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


class TestLockstepPlan:
    """The plan feeds every client, step by step, exactly the batches of
    minibatch_indices on its own generator, from its own rows of the block,
    in launches that fit the row budget."""

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(), epochs=st.integers(1, 3), batch_size=st.integers(1, 8), budget=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_fed_are_the_reference_batches(self, data, epochs, batch_size, budget, seed):
        # sizes below, at and between multiples of the batch size
        multiple = st.integers(1, 3).map(lambda m: m * batch_size)
        sizes = data.draw(st.lists(st.one_of(st.integers(1, 3 * batch_size), multiple), min_size=1, max_size=6))
        # feature value 1000 j + i marks row i of client j
        sets = [LabeledDataset(1000.0 * j + np.arange(n)[:, None], np.zeros(n, dtype=int), 2) for j, n in enumerate(sizes)]
        rows = RowBlock(sets)
        spec = ModelSpec((LayerSpec(1, 2, "identity"),), 0)
        block, _ = weight_block(spec, [[(np.zeros((2, 1)), np.zeros(2))]] * len(sizes))
        with mock.patch.object(fedper.nn, "ROW_BUDGET", budget):
            plan = LockstepPlan(spec, rows, block, epochs, batch_size)
        for clients, _, samples, _ in plan.launches:
            # a launch fits the budget, or is one client's batch larger than it
            assert len(clients) * len(samples) <= budget or len(clients) == 1

        fed: list[list[np.ndarray]] = [[] for _ in sizes]
        for (clients, *_), batch_rows in plan.batches([np.random.default_rng([seed, j]) for j in range(len(sizes))]):
            # one batch size per launch, and every member at the same step
            assert batch_rows.shape[0] == len(clients) and len({len(fed[j]) for j in clients}) == 1
            for j, r in zip(clients.tolist(), batch_rows):
                fed[j].append(rows.x[r, 0])
        for j, n in enumerate(sizes):
            gen = np.random.default_rng([seed, j])
            expected = [idx for _ in range(epochs) for idx in minibatch_indices(n, batch_size, gen)]
            assert len(fed[j]) == len(expected)
            for got, idx in zip(fed[j], expected):
                assert np.array_equal(got, sets[j].X[idx, 0])

    @staticmethod
    def pass_peak(num_clients):
        """tracemalloc's peak over one pass (after a warm-up pass) of a plan
        whose launches all have one shape: 4 of num_clients clients at a
        64-row batch, each client 4 batches of 256 rows."""
        spec = ModelSpec((LayerSpec(8, 16, "relu"), LayerSpec(16, 16, "relu"), LayerSpec(16, 4, "identity")), 1)
        rng = np.random.default_rng(0)
        sets = [LabeledDataset(rng.standard_normal((256, 8)), rng.integers(0, 4, 256), 4) for _ in range(num_clients)]
        block, _ = weight_block(spec, [init_weights(spec.layers, rng) for _ in sets])
        with mock.patch.object(fedper.nn, "ROW_BUDGET", 4 * 64):
            plan = LockstepPlan(spec, RowBlock(sets), block, 1, 64)
        assert {(len(c), len(s)) for c, _, s, _ in plan.launches} == {(4, 64)}
        plan.run([np.random.default_rng([1, j]) for j in range(num_clients)], 0.01)
        rngs = [np.random.default_rng([2, j]) for j in range(num_clients)]
        tracemalloc.start()
        try:
            plan.run(rngs, 0.01)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_pass_holds_one_launch_at_a_time(self):
        """Each launch frees its rows, activations and softmax before the
        next allocates its own: 4x the clients, and so 4x the launches,
        leave a pass's peak within 10%."""
        few, many = self.pass_peak(8), self.pass_peak(32)
        assert many <= 1.1 * few, (few, many)


# every value whose order or bits a max can get wrong: signed zeros, signed
# infinities, NaNs of either sign and with a payload
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, np.uint64(0x7FF8000000000001).view(np.float64), 1.0, -1.0]


def assert_same_row_max(got, expected):
    """NaN exactly where the reduction gives NaN (its payload bits depend on
    numpy's vector loop), and every other value bitwise, signed zeros too."""
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


class TestRowMax:
    """The softmax row max is np.maximum.reduce over the last axis, also
    where a chain of column maxima stands in for it."""

    # with min_rows 0 every narrow draw takes the chain, which otherwise
    # starts at more rows than the draws have
    @pytest.mark.parametrize("min_rows", [0, fedper.nn.CHAIN_MIN_ROWS])
    @settings(max_examples=150, deadline=None)
    @given(width=st.integers(1, 12), lead=st.lists(st.integers(1, 4), max_size=3), data=st.data())
    def test_equals_maximum_reduce(self, min_rows, width, lead, data):
        elements = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))
        a = data.draw(hnp.arrays(np.float64, (*lead, width), elements=elements))
        # a strided view too, every other column of a wider array: numpy
        # may reduce it by another loop
        with mock.patch.object(fedper.nn, "CHAIN_MIN_ROWS", min_rows):
            for view in (a, np.repeat(a, 2, axis=-1)[..., ::2]):
                expected = np.maximum.reduce(view, axis=-1, keepdims=True)
                assert_same_row_max(_row_max(view), expected)

    def test_a_launch_of_many_rows_takes_the_chain(self):
        a = np.random.default_rng(5).choice(SPECIAL, size=(3, 50, 4))
        with mock.patch.object(np.maximum, "reduce", side_effect=AssertionError("reduced")):
            got = _row_max(a)
        assert_same_row_max(got, np.maximum.reduce(a, axis=-1, keepdims=True))


class TestRowBlock:
    # X arrays whose .base is not a block of their rows: a 1-D array, bytes
    # of another dtype, a block of another width, a buffer that is no array
    @pytest.mark.parametrize("make", [
        lambda x: x.ravel().copy().reshape(x.shape),
        lambda x: np.frombuffer(x.tobytes(), dtype=np.uint8).view(np.float64).reshape(x.shape),
        lambda x: x.reshape(-1, 4).copy().reshape(x.shape),
        lambda x: np.ndarray(x.shape, buffer=bytearray(x.tobytes())),
    ], ids=["1-d", "uint8", "other-width", "bytearray"])
    def test_features_viewing_other_arrays_are_copied(self, make):
        spec = ModelSpec((LayerSpec(8, 3, "relu"), LayerSpec(3, 2, "identity")), 1)
        x = np.arange(48.0).reshape(6, 8) / 48
        y = np.arange(6) % 2
        rows = RowBlock([LabeledDataset(make(x), y, 2)])
        assert rows.x.shape == (6, 8) and rows.x.tobytes() == x.tobytes()
        w = init_weights(spec.layers, np.random.default_rng(0))
        got, want = (
            sgd(spec, w[:1], w[1:], LabeledDataset(xs, y, 2), SgdConfig(0.1, 2, 4), np.random.default_rng(1))
            for xs in (make(x), x.copy())
        )
        assert weights_equal(got[0] + got[1], want[0] + want[1])

    def test_consecutive_views_of_one_block_are_that_block(self):
        block = np.arange(48.0).reshape(6, 8).copy()  # owns its rows
        sets = [LabeledDataset(block[a:b], np.zeros(b - a, dtype=int), 2) for a, b in ((0, 2), (2, 6))]
        assert RowBlock(sets).x is block
        assert RowBlock(sets[::-1]).x is not block
        assert RowBlock(sets[:1]).x is not block

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.sampled_from([1, 2, 3, 5]), min_size=1, max_size=8), budget=st.integers(1, 12))
    def test_groups_are_budget_chunks_of_one_length_in_layout_order(self, lengths, budget):
        """Sets gathered in layout_order are taken over uncopied, and the
        groups walk them in that order, a chunk of one length at a time."""
        order = layout_order(lengths)
        block = np.arange(3.0 * sum(lengths)).reshape(-1, 3).copy()  # owns its rows
        labels = np.arange(len(block))
        cuts = np.cumsum([lengths[j] for j in order])[:-1]
        sets = [None] * len(lengths)
        for j, x, y in zip(order, np.split(block, cuts), np.split(labels, cuts)):
            sets[j] = LabeledDataset(x, y, len(block))
        with mock.patch.object(fedper.nn, "ROW_BUDGET", budget):
            rows = RowBlock(sets)
        assert rows.x is block
        assert [j for members, _, _ in rows.groups for j in members.tolist()] == order
        for members, x, y in rows.groups:
            (n,) = {lengths[j] for j in members.tolist()}
            assert len(members) <= max(1, budget // n)
            assert np.array_equal(x, np.stack([sets[j].X for j in members.tolist()]))
            assert np.array_equal(y, np.stack([sets[j].y for j in members.tolist()]))


class TestWeightBlock:
    def test_rows_are_copies_and_stacks_are_views(self):
        spec = rand_spec(np.random.default_rng(3))
        sets = [rand_weights(spec.layers, np.random.default_rng(seed)) for seed in range(4)]
        block, layers = weight_block(spec, sets)
        assert block.shape == (4, sum(s.out_dim * (s.in_dim + 1) for s in spec.layers))
        for j, ws in enumerate(sets):
            # row j is set j's layers end to end, each W (row-major) then its b
            assert block[j].tobytes() == weights_blob(ws)
            assert weights_equal([(w[j], b[j]) for w, b in layers], ws)
        assert all(np.shares_memory(w, block) and np.shares_memory(b, block) for w, b in layers)
        assert not any(np.shares_memory(w, block) for ws in sets for w, _ in ws)


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
