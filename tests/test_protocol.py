import json
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedper.metrics
import fedper.nn
import fedper.protocol
import fedper.rng as rngmod
from fedper.checkpoint import load_weights
from fedper.config import apply_overrides, build_dataset, default_config, resolve
from fedper.data import LabeledDataset, PartitionSpec
from fedper.errors import ConfigError, ProtocolError, ShapeError, SimulationError, UsageError
from fedper.experiment import client_shards, run_experiment
from fedper.metrics import ClientMetrics, evaluate
from fedper.model import ModelSpec
from fedper.nn import (
    ACTIVATIONS,
    LayerSpec,
    RowBlock,
    SgdConfig,
    init_weights,
    loss_and_grad,
    weights_checksum,
    weights_equal,
)
from fedper.protocol import (
    MSG_BASE_WEIGHTS,
    MSG_PERSONAL_WEIGHTS,
    MSG_TRAIN_SIZE,
    RoundHistory,
    RoundRecord,
    RunConfig,
    aggregate,
    client_round,
    fine_tune,
    make_client,
    run_federation,
    server_init,
    write_checkpoint,
)
import reference
from helpers import block_sets, minibatch_indices, rand_batch, rand_weights, row_block, row_blocks


def toy_spec(k_personal=1):
    return ModelSpec(
        (LayerSpec(3, 6, "relu"), LayerSpec(6, 6, "relu"), LayerSpec(6, 3, "identity")),
        k_personal,
    )


def toy_cfg(spec, num_clients=3, rounds=2, eta=0.05, fine_tune_flag=False, seed=77, batch_size=4):
    return RunConfig(
        spec=spec,
        rounds=rounds,
        sgd=SgdConfig(eta, 2, batch_size),
        fine_tune=fine_tune_flag,
        master_seed=seed,
        partition=PartitionSpec(mode="k_class", num_clients=num_clients, k=1, seed=1),
    )


def toy_client_data(spec, num_clients, rng, n_train=8, n_test=4):
    return [
        (rand_batch(spec, rng, n_train), rand_batch(spec, rng, n_test))
        for _ in range(num_clients)
    ]


class TestServerInit:
    def test_equal_volumes(self):
        cfg = toy_cfg(toy_spec(), num_clients=4)
        state = server_init(cfg, [1, 1, 1, 1])
        assert state.agg_weights == [0.25, 0.25, 0.25, 0.25]

    def test_weighted_volumes(self):
        cfg = toy_cfg(toy_spec(), num_clients=2)
        state = server_init(cfg, [1, 3])
        assert state.agg_weights == [0.25, 0.75]

    def test_balanced_ten_clients(self):
        cfg = toy_cfg(toy_spec(), num_clients=10)
        state = server_init(cfg, [80] * 10)
        assert state.agg_weights == [0.1] * 10
        assert sum(state.agg_weights) == pytest.approx(1.0, abs=1e-12)

    def test_zero_size_client_rejected(self):
        cfg = toy_cfg(toy_spec(), num_clients=2)
        with pytest.raises(ConfigError):
            server_init(cfg, [5, 0])

    def test_logs_size_reports_only(self):
        cfg = toy_cfg(toy_spec(), num_clients=3)
        state = server_init(cfg, [2, 2, 2])
        assert [m.kind for m in state.message_log] == [MSG_TRAIN_SIZE] * 3

    def test_base_init_uses_server_stream(self):
        cfg = toy_cfg(toy_spec(), num_clients=2)
        state = server_init(cfg, [1, 1])
        expected = init_weights(
            cfg.spec.base_layers, rngmod.substream(cfg.master_seed, rngmod.SERVER_PARTY, 0, rngmod.INIT)
        )
        assert weights_equal(state.base, expected)


class TestClientRound:
    def _client(self, cfg, rng, k_personal=1):
        train = rand_batch(cfg.spec, rng, 6)
        test = rand_batch(cfg.spec, rng, 3)
        return make_client(cfg, 0, train, test)

    def test_zero_eta_keeps_everything(self):
        spec = toy_spec()
        cfg = toy_cfg(spec, eta=0.0)
        rng = np.random.default_rng(0)
        client = self._client(cfg, rng)
        base_in = init_weights(spec.base_layers, np.random.default_rng(5))
        personal_before = [(w.copy(), b.copy()) for w, b in client.personal]
        base_out, updated = client_round(client, cfg, base_in, round_idx=1)
        assert weights_equal(base_out, base_in)
        assert weights_equal(updated.personal, personal_before)

    def test_matches_plain_sgd_when_nothing_is_personal(self):
        # K_P = 0: a client round is exactly a FedAvg local update
        spec = toy_spec(k_personal=0)
        cfg = toy_cfg(spec)
        rng = np.random.default_rng(1)
        client = self._client(cfg, rng)
        base_in = init_weights(spec.base_layers, np.random.default_rng(5))
        base_out, updated = client_round(client, cfg, base_in, round_idx=3)
        expected, _ = reference.local_sgd(
            spec, base_in, [], client.train, cfg.sgd.eta, cfg.sgd.epochs, cfg.sgd.batch_size,
            rngmod.substream(cfg.master_seed, rngmod.client_party(0), 3, rngmod.SGD),
        )
        assert weights_equal(base_out, expected)
        assert len(updated.personal) == 0

    def test_single_sample_matches_hand_gradient_step(self):
        spec = toy_spec()
        cfg = RunConfig(
            spec=spec, rounds=1, sgd=SgdConfig(0.1, 1, 1),
            fine_tune=False, master_seed=11,
            partition=PartitionSpec(mode="k_class", num_clients=1, k=1, seed=0),
        )
        rng = np.random.default_rng(2)
        sample = rand_batch(spec, rng, 1)
        client = make_client(cfg, 0, sample, rand_batch(spec, rng, 1))
        base_in = init_weights(spec.base_layers, np.random.default_rng(5))
        _, gb, gp = loss_and_grad(spec, base_in, client.personal, sample)
        base_out, updated = client_round(client, cfg, base_in, round_idx=1)
        for (w2, b2), (w0, b0), (gw, gbias) in zip(
            base_out + updated.personal,
            base_in + client.personal,
            gb + gp,
        ):
            assert np.array_equal(w2, w0 - 0.1 * gw)
            assert np.array_equal(b2, b0 - 0.1 * gbias)

    @pytest.mark.parametrize("in_dim,num_classes", [(4, 3), (3, 4)], ids=["too-wide", "too-many-classes"])
    def test_data_that_does_not_fit_the_model_rejected(self, in_dim, num_classes):
        cfg = toy_cfg(toy_spec())  # 3 inputs, 3 outputs
        data = LabeledDataset(np.zeros((2, in_dim)), [0, 1], num_classes)
        with pytest.raises(ShapeError):
            make_client(cfg, 0, data, data)

    @pytest.mark.parametrize("empty", ["training", "test"])
    def test_empty_dataset_rejected(self, empty):
        cfg = toy_cfg(toy_spec())
        rng = np.random.default_rng(4)
        sets = {"training": rand_batch(cfg.spec, rng, 4), "test": rand_batch(cfg.spec, rng, 2)}
        sets[empty] = rand_batch(cfg.spec, rng, 0)
        with pytest.raises(ConfigError, match=f"client 3 has an empty {empty} set"):
            make_client(cfg, 3, sets["training"], sets["test"])

    def test_wrong_base_shape_rejected(self):
        spec = toy_spec()
        cfg = toy_cfg(spec)
        client = self._client(cfg, np.random.default_rng(3))
        with pytest.raises(ProtocolError):
            client_round(client, cfg, [], round_idx=1)


class TestFineTune:
    def _setup(self, eta=0.1):
        spec = toy_spec(k_personal=1)
        cfg = toy_cfg(spec, eta=eta)
        rng = np.random.default_rng(6)
        client = make_client(cfg, 0, rand_batch(spec, rng, 6), rand_batch(spec, rng, 3))
        base_in = init_weights(spec.base_layers, np.random.default_rng(7))
        return spec, cfg, client, base_in

    def test_zero_eta_no_change(self):
        _, cfg, client, base_in = self._setup(eta=0.0)
        updated = fine_tune(client, cfg, base_in, round_idx=1)
        assert weights_equal(updated.personal, client.personal)

    def test_base_frozen_exactly(self):
        _, cfg, client, base_in = self._setup()
        checksum_before = weights_checksum(base_in)
        fine_tune(client, cfg, base_in, round_idx=1)
        assert weights_checksum(base_in) == checksum_before

    def test_matches_masked_gradient_oracle(self):
        # apply the same batch walk by hand, updating only personal weights
        spec, cfg, client, base_in = self._setup()

        gen = rngmod.substream(cfg.master_seed, rngmod.client_party(0), 2, rngmod.FINE_TUNE)
        expected = [(w.copy(), b.copy()) for w, b in client.personal]
        for idx in minibatch_indices(len(client.train), cfg.sgd.batch_size, gen):
            _, _, gp = loss_and_grad(spec, base_in, expected, client.train.subset(idx))
            for (w, b), (gw, gb) in zip(expected, gp):
                w -= cfg.sgd.eta * gw
                b -= cfg.sgd.eta * gb
        updated = fine_tune(client, cfg, base_in, round_idx=2)
        assert weights_equal(updated.personal, expected)

    def test_rejects_when_nothing_is_personal(self):
        spec = toy_spec(k_personal=0)
        cfg = toy_cfg(spec)
        client = make_client(
            cfg, 0, rand_batch(spec, np.random.default_rng(0), 4),
            rand_batch(spec, np.random.default_rng(1), 2),
        )
        with pytest.raises(UsageError):
            fine_tune(client, cfg, init_weights(spec.base_layers, np.random.default_rng(2)), 1)

    @pytest.mark.parametrize("train", [client_round, fine_tune])
    def test_wrong_layer_shape_rejected_by_name(self, train):
        _, cfg, client, _ = self._setup()
        base_in = [(np.zeros((3, 5)), np.zeros(3)), (np.zeros((6, 6)), np.zeros(6))]
        with pytest.raises(ShapeError, match=r"layer 0: weight shape \(3, 5\) != expected \(6, 3\)"):
            train(client, cfg, base_in, 1)

    @pytest.mark.parametrize("train", [client_round, fine_tune])
    def test_wrong_bias_shape_rejected_by_name(self, train):
        _, cfg, client, _ = self._setup()
        base_in = [(np.zeros((6, 3)), np.zeros(6)), (np.zeros((6, 6)), np.zeros(5))]
        with pytest.raises(ShapeError, match=r"^layer 1: bias shape \(5,\) != expected \(6,\)$"):
            train(client, cfg, base_in, 1)


class TestAggregate:
    def rand_sets(self, rng, n, layers=((4, 3), (2, 4))):
        out = []
        for _ in range(n):
            out.append(
                [(rng.standard_normal((o, i)), rng.standard_normal(o)) for o, i in layers]
            )
        return out

    def test_identical_inputs_fixed_point(self):
        rng = np.random.default_rng(0)
        (ws,) = self.rand_sets(rng, 1)
        out = aggregate([(ws, 1 / 3), (ws, 1 / 3), (ws, 1 / 3)])
        assert weights_equal(out, ws)

    def test_two_scalar_hand_mean(self):
        a = [(np.array([[0.0]]), np.zeros(1))]
        b = [(np.array([[4.0]]), np.zeros(1))]
        out = aggregate([(a, 0.25), (b, 0.75)])
        assert out[0][0][0, 0] == 3.0

    def test_matches_brute_force_weighted_mean(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            sets = self.rand_sets(rng, n)
            raw = rng.uniform(0.1, 1.0, n)
            gammas = (raw / raw.sum()).tolist()
            out = aggregate(list(zip(sets, gammas)))
            for li in range(2):
                for arr_idx in range(2):
                    got = out[li][arr_idx]
                    flat = got.reshape(-1)
                    for pos in range(flat.size):
                        expected = sum(
                            g * ws[li][arr_idx].reshape(-1)[pos]
                            for ws, g in zip(sets, gammas)
                        )
                        assert abs(flat[pos] - expected) < 1e-12

    def test_permutation_stable_in_value(self):
        rng = np.random.default_rng(4)
        sets = self.rand_sets(rng, 4)
        gammas = [0.1, 0.2, 0.3, 0.4]
        updates = list(zip(sets, gammas))
        out = aggregate(updates)
        shuffled = aggregate([updates[2], updates[0], updates[3], updates[1]])
        for (w1, b1), (w2, b2) in zip(out, shuffled):
            assert np.allclose(w1, w2, rtol=0, atol=1e-12)
            assert np.allclose(b1, b2, rtol=0, atol=1e-12)

    def test_balanced_weights_give_arithmetic_mean(self):
        rng = np.random.default_rng(5)
        sets = self.rand_sets(rng, 5)
        out = aggregate([(ws, 1 / 5) for ws in sets])
        for li in range(2):
            for part in (0, 1):
                mean = np.mean([ws[li][part] for ws in sets], axis=0)
                assert np.allclose(out[li][part], mean, rtol=0, atol=1e-12)

    def test_gamma_sum_violation(self):
        rng = np.random.default_rng(2)
        a, b = self.rand_sets(rng, 2)
        with pytest.raises(ConfigError):
            aggregate([(a, 0.6), (b, 0.6)])

    def test_weight_sum_is_checked_exactly_rounded(self):
        """100,000 weights 1 / 100,000 add up to 1 - 1.9e-12 one by one,
        past the tolerance, but their exactly rounded sum is 1; weights
        whose sum is 1 + 1e-9 are still refused."""
        ws = [(np.ones((1, 1)), np.ones(1))]
        n = 100_000
        assert abs(sum([1 / n] * n) - 1.0) > 1e-12
        assert weights_equal(aggregate([(ws, 1 / n)] * n), ws)
        with pytest.raises(ConfigError, match="sum to"):
            aggregate([(ws, 0.5), (ws, 0.5 + 1e-9)])

    @pytest.mark.parametrize("gammas", [
        [0.5, float("nan")], [float("nan")], [0.5, float("inf"), -float("inf")], [1e308, 1e308],
    ], ids=["nan-among-them", "nan-alone", "infinities", "sum-past-the-largest-float"])
    def test_weights_that_are_no_finite_positive_numbers_rejected(self, gammas):
        """A NaN weight fails every comparison, and fsum raises on
        infinities and on a sum past the largest float: each is refused."""
        sets = self.rand_sets(np.random.default_rng(6), len(gammas))
        with pytest.raises(ConfigError, match="aggregation weights"):
            aggregate(list(zip(sets, gammas)))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_bitwise_equals_the_reference_loop(self, data):
        """1 to 60 clients' ragged layer lists, each client's values of
        its own magnitude from 1e-3 to 1e3: aggregate's row reduction gives
        bitwise the update-by-update loop of tests/reference.py."""
        n = data.draw(st.integers(1, 60))
        shapes = data.draw(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=4))
        scales = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
        raw = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
        gammas = (raw / raw.sum()).tolist()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sets = [[(c * rng.standard_normal((o, i)), c * rng.standard_normal(o)) for o, i in shapes] for c in scales]
        got = aggregate(list(zip(sets, gammas)))
        assert [(w.shape, b.shape) for w, b in got] == [((o, i), (o,)) for o, i in shapes]
        assert reference.checksum(got) == reference.checksum(reference.aggregate(sets, gammas))

    def test_no_update_rejected(self):
        with pytest.raises(ProtocolError, match="^aggregate needs at least one update$"):
            aggregate([])

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        (a,) = self.rand_sets(rng, 1)
        (b,) = self.rand_sets(rng, 1, layers=((4, 3), (3, 4)))
        with pytest.raises(ProtocolError):
            aggregate([(a, 0.5), (b, 0.5)])


class TestRunFederation:
    def test_single_client_is_one_local_pass(self):
        # N=1, K_P=0, one round: the server is a passthrough with weight 1
        spec = toy_spec(k_personal=0)
        cfg = toy_cfg(spec, num_clients=1, rounds=1)
        rng = np.random.default_rng(8)
        data = toy_client_data(spec, 1, rng)
        result = run_federation(cfg, *row_blocks(data))

        base0 = reference.init(
            spec.base_layers, rngmod.substream(cfg.master_seed, rngmod.SERVER_PARTY, 0, rngmod.INIT)
        )
        (train, test), activations = data[0], [s.activation for s in spec.layers]
        expected, _ = reference.local_sgd(
            spec, base0, [], train, cfg.sgd.eta, cfg.sgd.epochs, cfg.sgd.batch_size,
            rngmod.substream(cfg.master_seed, rngmod.client_party(0), 1, rngmod.SGD),
        )
        assert weights_equal(result.server.base, expected)
        metrics = result.history.rounds[0].clients[0]
        assert metrics.test_accuracy == reference.score(expected, activations, test.X, test.y)[0]
        assert metrics.train_loss == reference.score(expected, activations, train.X, train.y)[1]

    def test_deterministic_given_master_seed(self):
        spec = toy_spec()
        cfg = toy_cfg(spec)
        data = toy_client_data(spec, cfg.partition.num_clients, np.random.default_rng(9))
        a = run_federation(cfg, *row_blocks(data))
        b = run_federation(cfg, *row_blocks(data))
        assert a.history == b.history
        assert weights_equal(a.server.base, b.server.base)

    def test_privacy_no_personal_payloads_and_log_shape(self):
        spec = toy_spec()
        cfg = toy_cfg(spec, num_clients=4, rounds=3)
        data = toy_client_data(spec, 4, np.random.default_rng(11))
        result = run_federation(cfg, *row_blocks(data))
        log = result.server.message_log
        assert result.server.personal_payload_count() == 0
        assert all(m.kind in (MSG_TRAIN_SIZE, MSG_BASE_WEIGHTS) for m in log)
        assert len(log) == 4 + 2 * 4 * 3

    def test_history_bookkeeping(self):
        spec = toy_spec()
        cfg = toy_cfg(spec, num_clients=3, rounds=4)
        data = toy_client_data(spec, 3, np.random.default_rng(12))
        history = run_federation(cfg, *row_blocks(data)).history
        assert len(history) == 4
        entries = [m for r in history.rounds for m in r.clients]
        assert len(entries) == 4 * 3
        for r in history.rounds:
            assert [m.client_id for m in r.clients] == [0, 1, 2]

    def test_fine_tune_run_completes(self):
        spec = toy_spec()
        cfg = toy_cfg(spec, fine_tune_flag=True)
        data = toy_client_data(spec, cfg.partition.num_clients, np.random.default_rng(13))
        history = run_federation(cfg, *row_blocks(data)).history
        assert len(history) == cfg.rounds

    def test_empty_test_set_rejected(self):
        spec = toy_spec()
        cfg = toy_cfg(spec, num_clients=1)
        rng = np.random.default_rng(0)
        data = [(rand_batch(spec, rng, 4), rand_batch(spec, rng, 0))]
        with pytest.raises(ConfigError):
            run_federation(cfg, *row_blocks(data))

    def test_nan_features_stop_the_run(self):
        # NaN propagates without a floating-point signal; the weight check names the client
        spec = toy_spec()
        cfg = toy_cfg(spec, num_clients=2)
        data = toy_client_data(spec, 2, np.random.default_rng(16))
        data[1][0].X[3, 1] = np.nan
        with pytest.raises(SimulationError, match="client 1 has non-finite weights after round 1"):
            run_federation(cfg, *row_blocks(data))

    def test_no_clients_rejected(self):
        nothing = RowBlock(np.empty((0, 3)), np.empty(0, dtype=np.intp), [])
        with pytest.raises(ConfigError, match="at least one client"):
            run_federation(toy_cfg(toy_spec()), nothing, nothing)

    @pytest.mark.parametrize("kind", ["training", "test"])
    @pytest.mark.parametrize("case", [
        "empty-set", "a-set-short", "wrong-width", "rows-short-of-the-sizes", "label-past-the-outputs", "negative-label",
    ])
    def test_a_side_that_does_not_fit_the_clients_or_the_model_rejected(self, kind, case):
        """Each side needs a set of rows for every client, no set empty, as
        many rows and labels as its sizes add up to, the model's input
        width and labels among its outputs."""
        spec = toy_spec()  # 3 inputs, 3 outputs
        rng = np.random.default_rng(17)
        sides = dict(zip(("training", "test"), row_blocks([(rand_batch(spec, rng, 4), rand_batch(spec, rng, 2))] * 2)))
        x, y, sizes = sides[kind].x, sides[kind].y, sides[kind].sizes
        n, first = sum(sizes), sizes[0]
        broken, error, message = {
            "empty-set": (RowBlock(x[:first], y[:first], [first, 0]), ConfigError, f"client 1 has an empty {kind} set"),
            "a-set-short": (
                RowBlock(x[:first], y[:first], [first]), ConfigError,
                "a federation needs at least one client, and a test set for each training set; "
                f"got {1 if kind == 'training' else 2} training and {1 if kind == 'test' else 2} test sets",
            ),
            "wrong-width": (
                RowBlock(np.hstack([x, x[:, :1]]), y, sizes), ShapeError,
                f"{kind} rows ({n}, 4) and labels ({n},) are not ({n}, 3) and ({n},)",
            ),
            "rows-short-of-the-sizes": (
                RowBlock(x[:-1], y[:-1], sizes), ShapeError,
                f"{kind} rows ({n - 1}, 3) and labels ({n - 1},) are not ({n}, 3) and ({n},)",
            ),
            "label-past-the-outputs": (
                RowBlock(x, np.where(np.arange(n) == 1, 3, y), sizes), ShapeError,
                f"{kind} labels are not all in [0, 3), the model's outputs",
            ),
            "negative-label": (
                RowBlock(x, np.where(np.arange(n) == 1, -1, y), sizes), ShapeError,
                f"{kind} labels are not all in [0, 3), the model's outputs",
            ),
        }[case]
        sides[kind] = broken
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run_federation(toy_cfg(spec, num_clients=2), sides["training"], sides["test"])

    def test_checkpoint_interval(self, tmp_path):
        spec = toy_spec()
        cfg = toy_cfg(spec, num_clients=2, rounds=4)
        data = toy_client_data(spec, 2, np.random.default_rng(14))
        run_federation(cfg, *row_blocks(data), checkpoint_dir=tmp_path, checkpoint_every=2)
        names = {p.name for p in tmp_path.iterdir()}
        assert "round0002_server_base.json" in names
        assert "round0004_personal.bin" in names
        assert not any("client" in n for n in names)
        assert not any(n.startswith("round0001") or n.startswith("round0003") for n in names)

    def test_checkpoint_stacks_every_clients_personal_layers(self, tmp_path):
        spec = toy_spec()
        cfg = toy_cfg(spec, num_clients=3, rounds=2)
        data = toy_client_data(spec, 3, np.random.default_rng(15))
        result = run_federation(cfg, *row_blocks(data), checkpoint_dir=tmp_path, checkpoint_every=1)
        write_checkpoint(tmp_path, "final", result.layers, spec.k_base)
        tags = Counter(p.name.split("_")[0] for p in tmp_path.iterdir())
        assert tags == {"round0001": 4, "round0002": 4, "final": 4}
        for tag in ("round0002", "final"):
            base, split_index = load_weights(tmp_path / f"{tag}_server_base")
            assert split_index == spec.k_base and weights_equal(base, result.server.base)
            stacks, split_index = load_weights(tmp_path / f"{tag}_personal")
            assert split_index == 0 and [w.shape[0] for w, _ in stacks] == [3] * spec.k_personal
            for j in range(3):
                personal = fedper.nn.unstack_weights(result.layers[spec.k_base :], j)
                assert weights_equal(fedper.nn.unstack_weights(stacks, j), personal)


class TestFedAvgEquivalence:
    """Reference implementation: plain federated averaging written as its own
    loop (no model splitting, no client/server state machinery), training
    and scoring with the one-client loops of tests/reference.py and sharing
    only the rng discipline with the engine."""

    @staticmethod
    def reference_fedavg(cfg: RunConfig, client_data):
        spec, sgd_cfg = cfg.spec, cfg.sgd
        activations = [s.activation for s in spec.layers]
        sizes = [len(train) for train, _ in client_data]
        total = sum(sizes)
        gammas = [n / total for n in sizes]
        global_weights = reference.init(
            spec.layers, rngmod.substream(cfg.master_seed, rngmod.SERVER_PARTY, 0, rngmod.INIT)
        )
        records = []
        for round_idx in range(1, cfg.rounds + 1):
            locals_ = []
            for j, (train, _) in enumerate(client_data):
                gen = rngmod.substream(cfg.master_seed, rngmod.client_party(j), round_idx, rngmod.SGD)
                updated, _ = reference.local_sgd(
                    spec, global_weights, [], train, sgd_cfg.eta, sgd_cfg.epochs, sgd_cfg.batch_size, gen
                )
                locals_.append(updated)
            merged = [(w.copy(), b.copy()) for w, b in locals_[0]]
            for ws, g in list(zip(locals_, gammas))[1:]:
                for (ow, ob), (w, b), (fw, fb) in zip(merged, ws, locals_[0]):
                    ow += g * (w - fw)
                    ob += g * (b - fb)
            global_weights = merged
            metrics = tuple(
                ClientMetrics(
                    j,
                    round_idx,
                    reference.score(global_weights, activations, test.X, test.y)[0],
                    reference.score(global_weights, activations, train.X, train.y)[1],
                )
                for j, (train, test) in enumerate(client_data)
            )
            records.append(RoundRecord(round_idx, reference.checksum(global_weights), metrics))
        return RoundHistory(tuple(records))

    def test_k_p_zero_matches_reference_bitwise(self):
        spec = toy_spec(k_personal=0)
        cfg = toy_cfg(spec, num_clients=4, rounds=5, seed=2024)
        data = toy_client_data(spec, 4, np.random.default_rng(15), n_train=9, n_test=4)
        ours = run_federation(cfg, *row_blocks(data))
        reference = self.reference_fedavg(cfg, data)
        assert ours.history == reference

    def test_batches_of_three_match_reference_bitwise(self):
        """Batches of 3 and 1: dividing the gradient by 3 rounds, where
        batches of 4 and 1, as above, divide exactly."""
        spec = toy_spec(k_personal=0)
        cfg = toy_cfg(spec, num_clients=3, rounds=3, seed=7, batch_size=3)
        data = toy_client_data(spec, 3, np.random.default_rng(16), n_train=10, n_test=4)
        assert run_federation(cfg, *row_blocks(data)).history == self.reference_fedavg(cfg, data)


@st.composite
def federations(draw):
    """A random model, 1-6 clients with ragged train sizes (some below the
    batch size, some exact multiples of it), 1-3 epochs, fine-tuning on or off."""
    n_layers = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 6), min_size=n_layers + 1, max_size=n_layers + 1))
    activations = draw(st.lists(st.sampled_from(ACTIVATIONS), min_size=n_layers, max_size=n_layers))
    layers = tuple(LayerSpec(dims[i], dims[i + 1], activations[i]) for i in range(n_layers))
    spec = ModelSpec(layers, draw(st.integers(0, n_layers - 1)))
    batch = draw(st.integers(1, 5))
    sizes = draw(
        st.lists(
            st.one_of(st.integers(1, 3 * batch + 2), st.integers(1, 3).map(lambda m: m * batch)),
            min_size=1,
            max_size=6,
        )
    )
    cfg = RunConfig(
        spec=spec,
        rounds=2,
        sgd=SgdConfig(0.1, draw(st.integers(1, 3)), batch),
        fine_tune=draw(st.booleans()),
        master_seed=draw(st.integers(0, 2**32 - 1)),
        partition=PartitionSpec(mode="k_class", num_clients=len(sizes), k=1, seed=1),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = [(rand_batch(spec, rng, n), rand_batch(spec, rng, 2)) for n in sizes]
    return cfg, data


class TestTrainingReference:
    """A run records bitwise what the plain loop of tests/reference.py
    records, one client and one batch at a time on 2-D arrays: its history
    (every round's base checksum and scores) and each client's final
    personal layers."""

    @staticmethod
    def assert_equals_reference(cfg, data):
        ours = run_federation(cfg, *row_blocks(data))
        records, personals = reference.federation(cfg, data)
        expected = RoundHistory(tuple(
            RoundRecord(r, checksum, tuple(ClientMetrics(j, r, a, loss) for j, (a, loss) in enumerate(scores)))
            for r, (checksum, scores) in enumerate(records, 1)
        ))
        assert repr(ours.history) == repr(expected)  # repr tells -0.0 from 0.0
        stacks = ours.layers[cfg.spec.k_base :]
        ours_personal = [reference.checksum(fedper.nn.unstack_weights(stacks, j)) for j in range(len(data))]
        assert ours_personal == list(map(reference.checksum, personals))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(federations())
    def test_run_equals_reference(self, federation):
        self.assert_equals_reference(*federation)

    def test_replay_of_ragged_launches_and_shared_scoring_segments(self):
        """Six clients of 3, 11, 1, 8, 5 and 3 training rows at B=4, whose
        steps mix batch sizes in one launch and whose test sets of 2 rows
        are scored in one segment.  The data seed is one on which padding a
        segment to its launch's largest batch, or running the shared base
        as one tall gemm, changes the record on SkylakeX and Haswell, which
        the property test's draws need not cover."""
        spec = ModelSpec((LayerSpec(4, 5, "relu"), LayerSpec(5, 3, "identity")), 0)
        cfg = RunConfig(spec, 2, SgdConfig(0.1, 1, 4), False, 3, PartitionSpec(mode="k_class", num_clients=6))
        rng = np.random.default_rng(3)
        self.assert_equals_reference(cfg, [(rand_batch(spec, rng, n), rand_batch(spec, rng, 2)) for n in (3, 11, 1, 8, 5, 3)])

    def test_replay_of_a_step_through_an_odd_offset(self):
        """One step of one client that OpenBLAS's generic core (Katmai)
        trains off the reference: layer 2's (3, 1) weight starts at column 7
        of its weight-block row, an odd float64 offset, and on that core the
        backward product delta @ W rounds differently there than on the
        reference's fresh array.  It passes on SkylakeX and Haswell and
        fails on Katmai, whichever examples the property test draws."""
        spec = ModelSpec((LayerSpec(1, 2, "relu"), LayerSpec(2, 1, "relu"), LayerSpec(1, 3, "identity")), 0)
        cfg = RunConfig(spec, 1, SgdConfig(0.1, 1, 1), False, 11, PartitionSpec(mode="k_class", num_clients=1))
        rng = np.random.default_rng(11)
        self.assert_equals_reference(cfg, [(rand_batch(spec, rng, 1), rand_batch(spec, rng, 1))])


class TestRowBudget:
    """Launches and scoring groups share one row budget.  How it cuts a
    bucket into launches and the sets into scoring groups changes no output
    byte: a budget of one row, one client per launch and one set per group,
    gives what the default budget gives."""

    @staticmethod
    def run(cfg, sides, budget):
        """run_federation's result on the sides under the budget, and its plans."""
        plans = []

        class RecordingPlan(fedper.nn.LockstepPlan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                plans.append(self)

        with mock.patch.object(fedper.protocol, "LockstepPlan", RecordingPlan), \
                mock.patch.object(fedper.nn, "ROW_BUDGET", budget):
            return run_federation(cfg, *sides), plans

    def assert_budget_free(self, cfg, sides):
        default, plans = self.run(cfg, sides, fedper.nn.ROW_BUDGET)
        one_row, one_row_plans = self.run(cfg, sides, 1)
        assert all(len(launch[0]) == 1 for plan in one_row_plans for launch in plan.launches)
        assert repr(one_row.history) == repr(default.history)  # repr tells -0.0 from 0.0
        checksums = [[r.base_checksum for r in h.rounds] for h in (one_row.history, default.history)]
        assert checksums[0] == checksums[1]
        # the final weight block: the round's base and every client's personal layers
        assert one_row_plans[0].block.tobytes() == plans[0].block.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(federations())
    def test_one_row_budget_changes_no_output(self, federation):
        cfg, data = federation
        self.assert_budget_free(cfg, row_blocks(data))

    def test_unbalanced_fine_tuned_run(self):
        """Ragged unbalanced_users sets, fine-tuning on, relu and identity
        layers."""
        cfg = apply_overrides(default_config(), ["rounds=2", "fine_tune=true", "partition.mode=unbalanced_users"])
        resolved = resolve(cfg)
        assert {s.activation for s in resolved.run.spec.layers} == {"relu", "identity"}
        sides = client_shards(build_dataset(resolved.dataset), resolved.run.partition)
        assert len(set(sides[0].sizes)) > 1
        self.assert_budget_free(resolved.run, sides)


class TestStackedEvaluation:
    """Sets of one length are scored by one stacked forward pass, which must
    give every set bitwise the plain-numpy score of tests/reference.py."""

    @settings(max_examples=100, deadline=None)
    @given(
        n_layers=st.integers(1, 3),
        data=st.data(),
        lengths=st.lists(st.sampled_from([1, 2, 3, 5]), min_size=1, max_size=8),
        max_rows=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_reference_per_set(self, n_layers, data, lengths, max_rows, seed):
        dims = data.draw(st.lists(st.integers(1, 6), min_size=n_layers + 1, max_size=n_layers + 1))
        activations = data.draw(st.lists(st.sampled_from(ACTIVATIONS), min_size=n_layers, max_size=n_layers))
        layers = tuple(LayerSpec(dims[i], dims[i + 1], activations[i]) for i in range(n_layers))
        spec = ModelSpec(layers, data.draw(st.integers(0, n_layers - 1)))
        rng = np.random.default_rng(seed)
        base = rand_weights(spec.base_layers, rng)
        personal = [rand_weights(spec.personal_layers, rng) for _ in lengths]
        sets = [rand_batch(spec, rng, n) for n in lengths]
        # max_rows below a set's length scores its sets one by one; above,
        # it splits a launch of equal-length sets into several
        with mock.patch.object(fedper.nn, "ROW_BUDGET", max_rows):
            self.assert_equals_reference(spec, base, personal, sets)

    def test_replay_of_ragged_sets_under_one_shared_base(self):
        """Six sets of 3, 11, 1, 8, 5 and 3 rows, scored in one launch of
        five segments with every layer shared.  The seed is one on which
        running the shared layers as one tall gemm over the launch changes
        scores on SkylakeX and Haswell, which the draws above need not
        cover."""
        spec = ModelSpec((LayerSpec(4, 5, "relu"), LayerSpec(5, 3, "identity")), 0)
        rng = np.random.default_rng(1)
        base = rand_weights(spec.base_layers, rng)
        personal = [rand_weights(spec.personal_layers, rng) for _ in range(6)]
        self.assert_equals_reference(spec, base, personal, [rand_batch(spec, rng, n) for n in (3, 11, 1, 8, 5, 3)])

    @staticmethod
    def assert_equals_reference(spec, base, personal, sets):
        """Each set's scores from one scoring plan are the reference's."""
        block, _ = fedper.nn.weight_block([base + p for p in personal])
        activations = [s.activation for s in spec.layers]
        alone = [reference.score(base + p, activations, d.X, d.y) for p, d in zip(personal, sets)]
        plan = fedper.nn.LockstepPlan(spec, row_block(sets), block, 1, max(map(len, sets)), len(spec.layers))
        for i, measure in enumerate((fedper.metrics.correct, fedper.nn.cross_entropy)):
            assert repr(plan.score(measure)) == repr([r[i] for r in alone])  # repr tells -0.0 from 0.0


TWELVE_CLASS_LAYERS = (
    '[{"in_dim": 8, "out_dim": 16, "activation": "relu"}, {"in_dim": 16, "out_dim": 16, "activation": "relu"},'
    ' {"in_dim": 16, "out_dim": 12, "activation": "relu"}]'
)
# 32 features into 16: OpenBLAS rounds a stack of (n, 32) x (32, 16)
# products and their one tall (g n, 32) x (32, 16) product differently
WIDE_INPUT_LAYERS = json.dumps([
    {"in_dim": i, "out_dim": o, "activation": "identity" if o == 4 else "relu"} for i, o in ((32, 16), (16, 16), (16, 4))
])


class TestScoringReference:
    """Every score a run records is, bitwise, the plain-numpy score
    (tests/reference.py) of that client's model as the round checkpointed
    it, the round's base plus the client's row of the personal stack: its
    test set's accuracy and its training set's mean loss."""

    @pytest.mark.parametrize("overrides, row_budget", [
        (["rounds=4"], None),
        ([
            "rounds=4", "partition.mode=unbalanced_users", "partition.rater_disagreement=true",
            "fine_tune=true", "sgd.eta=0.05",
        ], None),
        # more than 8 classes reach the reduction side of nn._row_max
        (["rounds=3", "dataset.num_classes=12", "partition.k=3", f"model.layers={TWELVE_CLASS_LAYERS}"], None),
        # 150 rows split the scoring launches of both sides, and the SGD steps
        (["rounds=2", "model.k_personal=2"], 150),
        (["rounds=2", "dataset.dim=32", f"model.layers={WIDE_INPUT_LAYERS}"], None),
    ], ids=["default", "unbalanced-fine-tuned", "twelve-classes", "budget-split", "wide-input"])
    def test_history_equals_reference_scores(self, tmp_path, overrides, row_budget):
        resolved = resolve(apply_overrides(default_config(), overrides))
        ds = build_dataset(resolved.dataset)
        trains, tests = client_shards(ds, resolved.run.partition)
        with mock.patch.object(fedper.nn, "ROW_BUDGET", row_budget or fedper.nn.ROW_BUDGET):
            result = run_experiment(resolved.run, ds, tmp_path, checkpoint_every=1)
        if row_budget is not None:
            assert sum(trains.sizes) > row_budget > max(trains.sizes)
        activations = [s.activation for s in resolved.run.spec.layers]
        for record in result.history.rounds:
            base, _ = load_weights(tmp_path / f"round{record.round_idx:04d}_server_base")
            personal, _ = load_weights(tmp_path / f"round{record.round_idx:04d}_personal")
            for m, (train_x, train_y), (test_x, test_y) in zip(record.clients, block_sets(trains), block_sets(tests)):
                layers = base + [(w[m.client_id], b[m.client_id]) for w, b in personal]
                accuracy, _ = reference.score(layers, activations, test_x, test_y)
                _, loss = reference.score(layers, activations, train_x, train_y)
                assert repr((m.test_accuracy, m.train_loss)) == repr((accuracy, loss)), (record.round_idx, m)


class TestLaunchCounts:
    """A default-config round trains in one forward pass per lock-step step
    and scores each side's sets in one forward pass."""

    @staticmethod
    def steps(sizes, epochs, batch):
        """Steps of one lock-step pass: the most batches any client walks."""
        return max(epochs * -(-n // batch) for n in sizes)

    @staticmethod
    def count_forwards(monkeypatch, counts: Counter) -> None:
        """Count every nn._forward call into counts, as "eval" inside a
        plan's score pass and as "train" elsewhere."""
        forward, score, kind = fedper.nn._forward, fedper.nn.LockstepPlan.score, ["train"]

        def counting_forward(*args):
            counts[kind[0]] += 1
            return forward(*args)

        def scoring(plan, measure):
            kind[0] = "eval"
            try:
                return score(plan, measure)
            finally:
                kind[0] = "train"

        monkeypatch.setattr(fedper.nn, "_forward", counting_forward)
        monkeypatch.setattr(fedper.nn.LockstepPlan, "score", scoring)

    @staticmethod
    def record_plans(monkeypatch) -> list:
        """A list that gets every LockstepPlan run_federation builds, in
        the order it builds them."""
        plans = []

        class RecordingPlan(fedper.nn.LockstepPlan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                plans.append(self)

        monkeypatch.setattr(fedper.protocol, "LockstepPlan", RecordingPlan)
        return plans

    def test_default_config(self, monkeypatch):
        counts = Counter({"train": 0, "eval": 0})
        self.count_forwards(monkeypatch, counts)
        resolved = resolve({**default_config(), "rounds": 2})
        ds = build_dataset(resolved.dataset)
        run_experiment(resolved.run, ds)

        train_sizes, test_sizes = (rows.sizes for rows in client_shards(ds, resolved.run.partition))
        sgd_cfg = resolved.run.sgd
        assert self.steps(train_sizes, sgd_cfg.epochs, sgd_cfg.batch_size) == 20
        assert counts["train"] == 2 * 20
        assert len(set(train_sizes)) + len(set(test_sizes)) == 5
        assert counts["eval"] == 2 * 2  # one per side, not one per set or per set length

    def test_planned_once_per_run(self, monkeypatch):
        """With fine-tuning on, the four lock-step plans (SGD, fine-tune and
        each side's scoring) are built once, before round 1, on the row
        blocks the run is given, and no round copies client rows, nor does
        the set-up; the launch counts are those of test_default_config."""
        resolved = resolve({**default_config(), "rounds": 3, "fine_tune": True})
        trains, tests = client_shards(build_dataset(resolved.dataset), resolved.run.partition)
        client_arrays = [trains.x, trains.y, tests.x, tests.y]
        current_round, plans, copies, forwards = [0], [], [], Counter()

        class CountingPlan(fedper.nn.LockstepPlan):
            def __init__(self, spec, rows, block, epochs, batch_size, first_trained=0, workspace=None):
                plans.append((current_round[0], epochs, first_trained, rows is trains, rows is tests))
                super().__init__(spec, rows, block, epochs, batch_size, first_trained, workspace)

        def wrap(module, name, before):
            f = getattr(module, name)

            def wrapped(*args, **kwargs):
                before(*args)
                return f(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)

        def copying(name):
            def check(arrays, *_):
                if any(np.shares_memory(a, c) for a in arrays for c in client_arrays):
                    copies.append((current_round[0], name))
            return check

        monkeypatch.setattr(fedper.protocol, "LockstepPlan", CountingPlan)
        # round_idx is the third argument of _streams, which every round calls
        wrap(fedper.protocol, "_streams", lambda *args: current_round.__setitem__(0, args[2]))
        for name in ("stack", "concatenate"):
            wrap(np, name, copying(name))
        self.count_forwards(monkeypatch, forwards)

        run_federation(resolved.run, trains, tests)

        sgd_cfg, spec = resolved.run.sgd, resolved.run.spec
        n_layers = len(spec.layers)
        # fine-tune, the test sets' scoring, the training sets' scoring, SGD
        assert sorted(plans) == [
            (0, 1, spec.k_base, True, False), (0, 1, n_layers, False, True), (0, 1, n_layers, True, False),
            (0, sgd_cfg.epochs, 0, True, False),
        ]
        assert copies == []
        fine_tune_launches = self.steps(trains.sizes, 1, sgd_cfg.batch_size)
        assert forwards == {"train": 3 * (20 + fine_tune_launches), "eval": 3 * 2}

    def test_one_weight_block_per_run(self, monkeypatch):
        """The SGD, the fine-tune and both scoring plans work on one (N, P)
        block, one row per client."""
        plans = self.record_plans(monkeypatch)
        resolved = resolve({**default_config(), "rounds": 2, "fine_tune": True})
        result = run_experiment(resolved.run, build_dataset(resolved.dataset))
        block = plans[0].block
        assert len(plans) == 4 and all(plan.block is block for plan in plans)
        assert block.shape[0] == resolved.run.partition.num_clients
        # the server's base is row 0's, and after the broadcast every row's base columns are bitwise it
        base_columns = sum(s.out_dim * (s.in_dim + 1) for s in resolved.run.spec.base_layers)
        assert all(np.shares_memory(w, block[0]) and np.shares_memory(b, block[0]) for w, b in result.server.base)
        base_row = np.concatenate([a.reshape(-1) for layer in result.server.base for a in layer])
        assert all(row.tobytes() == base_row.tobytes() for row in block[:, :base_columns])
        # the result's layer stacks are views of the block, and hold the whole of it
        assert all(np.shares_memory(a, block) for layer in result.layers for a in layer)
        assert sum(w[0].size + b[0].size for w, b in result.layers) == block.shape[1]

    @pytest.mark.parametrize("overrides", [[], ["partition.mode=unbalanced_users", "sgd.eta=0.05"]])
    def test_fine_tune_plan_runs_in_the_sgd_plans_workspace(self, monkeypatch, overrides):
        """A run holds one set of activation arrays for its training
        passes: every fine-tune launch works on views of the SGD plan's."""
        plans = self.record_plans(monkeypatch)
        resolved = resolve(apply_overrides(default_config(), ["rounds=1", "fine_tune=true", *overrides]))
        run_experiment(resolved.run, build_dataset(resolved.dataset))
        (sgd_plan,) = [p for p in plans if p.epochs > 1]
        (fine_tune_plan,) = [p for p in plans if p.first_trained == resolved.run.spec.k_base]
        assert fine_tune_plan.workspace is sgd_plan.workspace
        for _, _, _, (_, _, _, acts, _, _) in fine_tune_plan.launches:
            assert all(np.shares_memory(a, w) for a, w in zip(acts, sgd_plan.workspace))

    def test_ragged_sets_never_call_evaluate(self, monkeypatch):
        """Every set is scored by the stacked path, also a set whose length
        no other set shares."""
        calls = []

        def counting(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(fedper.metrics, "evaluate", counting)
        monkeypatch.setattr(fedper.protocol, "evaluate", counting)
        cfg = apply_overrides(default_config(), ["rounds=2", "partition.mode=unbalanced_users"])
        resolved = resolve(cfg)
        ds = build_dataset(resolved.dataset)
        run_experiment(resolved.run, ds)
        lengths = [n for rows in client_shards(ds, resolved.run.partition) for n in rows.sizes]
        assert len(set(lengths)) > len(lengths) // 2  # mostly sets alone in their length
        assert calls == []


class TestRunConfigValidation:
    def test_bounds(self):
        spec = toy_spec()
        with pytest.raises(ConfigError):
            toy_cfg(spec, num_clients=0)
        with pytest.raises(ConfigError):
            toy_cfg(spec, rounds=0)
