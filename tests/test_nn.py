import ast
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fedper.metrics
import fedper.nn
from fedper.config import apply_overrides, build_dataset, default_config, resolve
from fedper.data import LabeledDataset
from fedper.errors import ConfigError, ShapeError, UsageError
from fedper.experiment import client_shards
from fedper.model import ModelSpec
from fedper.nn import (
    LayerSpec,
    LockstepPlan,
    RowBlock,
    SgdConfig,
    _row_max,
    init_weights,
    loss_and_grad,
    sgd,
    weight_block,
    weights_blob,
    weights_equal,
)
import reference
from helpers import (
    assert_grad_close, fd_gradients, minibatch_indices, rand_batch, rand_spec, rand_weights, ref_loss, row_block,
)


def one_layer(w, b, activation="identity", k_personal=0):
    w = np.asarray(w, dtype=np.float64)
    spec = ModelSpec((LayerSpec(w.shape[1], w.shape[0], activation),), k_personal)
    weights = [(w, np.asarray(b, dtype=np.float64))]
    return spec, weights


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
    in launches that fit the row budget, one size per segment."""

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
        rows = row_block(sets)
        spec = ModelSpec((LayerSpec(1, 2, "identity"),), 0)
        block, _ = weight_block([[(np.zeros((2, 1)), np.zeros(2))]] * len(sizes))
        with mock.patch.object(fedper.nn, "ROW_BUDGET", budget):
            plan = LockstepPlan(spec, rows, block, epochs, batch_size)

        fed: list[list[np.ndarray]] = [[] for _ in sizes]
        launch_steps = []
        rngs = [np.random.default_rng([seed, j]) for j in range(len(sizes))]
        for (clients, _, shapes, _), batch_rows in plan.batches(rngs):
            # every member at the same step, in segments of distinct sizes
            (step,) = {len(fed[j]) for j in clients.tolist()}
            launch_steps.append(step)
            assert len({n for _, n in shapes}) == len(shapes)
            assert sum(g for g, _ in shapes) == len(clients) and len(batch_rows) == sum(g * n for g, n in shapes)
            # a launch fits the budget, or is one client's batch larger than it
            assert len(batch_rows) <= budget or len(clients) == 1
            for ms, (segment_rows,) in fedper.nn._split(shapes, [batch_rows]):
                for j, r in zip(clients[ms].tolist(), segment_rows):
                    fed[j].append(rows.x[r, 0])
        for j, n in enumerate(sizes):
            gen = np.random.default_rng([seed, j])
            expected = [idx for _ in range(epochs) for idx in minibatch_indices(n, batch_size, gen)]
            assert len(fed[j]) == len(expected)
            for got, idx in zip(fed[j], expected):
                assert np.array_equal(got, sets[j].X[idx, 0])
        # a step whose rows fit the budget is one launch
        for t in set(launch_steps):
            step_rows = sum(len(fed[j][t]) for j in range(len(sizes)) if t < len(fed[j]))
            assert step_rows > budget or launch_steps.count(t) == 1

    @pytest.mark.parametrize("epochs, batch_size", [(2, 3), (1, 2)])
    def test_score_needs_one_batch_per_set(self, epochs, batch_size):
        """A plan that walks some set in more than one batch has no launch
        that holds a whole set, so it refuses to score."""
        spec = ModelSpec((LayerSpec(1, 2, "identity"),), 0)
        sets = [LabeledDataset(np.arange(n, dtype=float)[:, None], np.zeros(n, dtype=int), 2) for n in (3, 2)]
        block, _ = weight_block([[(np.zeros((2, 1)), np.zeros(2))]] * len(sets))
        plan = LockstepPlan(spec, row_block(sets), block, epochs, batch_size, 1)
        with pytest.raises(UsageError, match="whole set"):
            plan.score(fedper.metrics.correct)

    @staticmethod
    def pass_peak(num_clients):
        """tracemalloc's peak over one pass (after a warm-up pass) of a plan
        whose launches all have one shape, one segment of 4 of num_clients
        clients at a 64-row batch, each client 4 batches of 256 rows."""
        spec = ModelSpec((LayerSpec(8, 16, "relu"), LayerSpec(16, 16, "relu"), LayerSpec(16, 4, "identity")), 1)
        rng = np.random.default_rng(0)
        sets = [LabeledDataset(rng.standard_normal((256, 8)), rng.integers(0, 4, 256), 4) for _ in range(num_clients)]
        block, _ = weight_block([init_weights(spec.layers, rng) for _ in sets])
        with mock.patch.object(fedper.nn, "ROW_BUDGET", 4 * 64):
            plan = LockstepPlan(spec, row_block(sets), block, 1, 64)
        assert {(len(c), shapes) for c, _, shapes, _ in plan.launches} == {(4, ((4, 64),))}
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

    def test_a_plan_that_trains_no_layer_holds_no_shuffle_state(self):
        """The scoring plans of the budget_split golden's shape (40 clients
        of 160 training and 40 test rows) hold no order array: of the
        arrays of one 8-byte entry per row of their side that building them
        leaves allocated, each is a launch's positions (from launches) or
        its rows' batch sizes (from _launch_views)."""
        overrides = ["partition.num_clients=40", "partition.k=4", "dataset.per_class=2000", "sgd.batch_size=256"]
        resolved = resolve(apply_overrides(default_config(), overrides))
        spec = resolved.run.spec
        sides = client_shards(build_dataset(resolved.dataset), resolved.run.partition)
        block, _ = weight_block([init_weights(spec.layers, np.random.default_rng(j)) for j in range(40)])
        assert [len(rows.x) for rows in sides] == [6400, 1600]
        allowed = {fedper.nn.launches.__code__, fedper.nn._launch_views.__code__}
        allowed_lines = {
            (code.co_filename, line) for code in allowed for _, _, line in code.co_lines() if line is not None
        }
        for rows in sides:
            tracemalloc.start(16)
            try:
                plan = LockstepPlan(spec, rows, block, 1, max(rows.sizes), len(spec.layers))
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            # per array of that size, the innermost nn frame (they run from the outermost in)
            sites = [
                [(f.filename, f.lineno) for f in trace.traceback if f.filename == fedper.nn.__file__][-1]
                for trace in snapshot.traces
                if trace.size == 8 * len(rows.x)
            ]
            assert set(sites) <= allowed_lines, sites
            # the tracer sees the positions of a launch of every row (the test side's one launch)
            assert len(sites) >= sum(len(p) == len(rows.x) for _, p, _, _ in plan.launches)


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
    # of another dtype, a block of another width, a buffer that is no array;
    # a plan reads each as it is
    @pytest.mark.parametrize("make", [
        lambda x: x.ravel().copy().reshape(x.shape),
        lambda x: np.frombuffer(x.tobytes(), dtype=np.uint8).view(np.float64).reshape(x.shape),
        lambda x: x.reshape(-1, 4).copy().reshape(x.shape),
        lambda x: np.ndarray(x.shape, buffer=bytearray(x.tobytes())),
    ], ids=["1-d", "uint8", "other-width", "bytearray"])
    def test_features_viewing_other_arrays_train_as_the_reference(self, make):
        spec = ModelSpec((LayerSpec(8, 3, "relu"), LayerSpec(3, 2, "identity")), 1)
        x = np.arange(48.0).reshape(6, 8) / 48
        y = np.arange(6) % 2
        w = init_weights(spec.layers, np.random.default_rng(0))
        got = sgd(spec, w[:1], w[1:], LabeledDataset(make(x), y, 2), SgdConfig(0.1, 2, 4), np.random.default_rng(1))
        want = reference.local_sgd(spec, w[:1], w[1:], LabeledDataset(x, y, 2), 0.1, 2, 4, np.random.default_rng(1))
        assert weights_equal(got[0] + got[1], want[0] + want[1])

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.sampled_from([1, 2, 3, 5]), min_size=1, max_size=8), budget=st.integers(1, 12))
    def test_groups_are_budget_chunks_of_one_length_per_segment(self, lengths, budget):
        """The launches of a scoring plan (one epoch whose batch is the
        whole set) walk the sets of each length in client order, each
        length where it first occurs, as many to a launch as fit the
        budget, one length per segment."""
        block = np.arange(3.0 * sum(lengths)).reshape(-1, 3)
        labels = np.arange(len(block))
        cuts = np.cumsum(lengths)[:-1]
        sets = [LabeledDataset(x, y, len(block)) for x, y in zip(np.split(block, cuts), np.split(labels, cuts))]
        spec = ModelSpec((LayerSpec(3, 2, "identity"),), 0)
        weights, _ = weight_block([init_weights(spec.layers, np.random.default_rng(0))] * len(sets))
        with mock.patch.object(fedper.nn, "ROW_BUDGET", budget):
            rows = RowBlock(block, labels, lengths)
            groups = [launch[:3] for launch in LockstepPlan(spec, rows, weights, 1, max(lengths), 1).launches]
        by_length = sorted(range(len(lengths)), key=lambda j: lengths.index(lengths[j]))
        assert [j for members, _, _ in groups for j in members.tolist()] == by_length
        for k, (members, idx, shapes) in enumerate(groups):
            assert len({n for _, n in shapes}) == len(shapes)
            for (ms, _), (_, n) in zip(fedper.nn._split(shapes, []), shapes):
                assert {lengths[j] for j in members[ms].tolist()} == {n}
            assert len(idx) <= budget or len(members) == 1
            if k + 1 < len(groups):  # the next launch's first set would not have fit
                assert len(idx) + lengths[groups[k + 1][0][0]] > budget
            assert np.array_equal(rows.x.take(idx, axis=0), np.concatenate([sets[j].X for j in members.tolist()]))
            assert np.array_equal(rows.y.take(idx), np.concatenate([sets[j].y for j in members.tolist()]))


class TestWeightBlock:
    def test_rows_are_copies_and_stacks_are_views(self):
        spec = rand_spec(np.random.default_rng(3))
        sets = [rand_weights(spec.layers, np.random.default_rng(seed)) for seed in range(4)]
        block, layers = weight_block(sets)
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


def test_no_other_module_imports_a_private_nn_name():
    """Launch planning, views, workspaces and passes are decided in nn
    alone: no other module of the package imports an underscore name from
    it (tests may)."""
    imported = [
        (path.name, alias.name)
        for path in sorted(Path(fedper.nn.__file__).parent.glob("*.py"))
        if path.name != "nn.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, "nn"), (0, "fedper.nn"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imported == []
