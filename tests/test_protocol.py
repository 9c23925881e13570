import json
import os
import re
import tempfile
import threading
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
from fedper.cli import main
from fedper.config import apply_overrides, build_dataset, default_config, resolve
from fedper.data import LabeledDataset, PartitionSpec
from fedper.errors import ConfigError, ProtocolError, ShapeError, SimulationError, UsageError
from fedper.experiment import client_shards, run_experiment
from fedper.metrics import ClientMetrics
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
    SERVER,
    Message,
    RoundHistory,
    RoundRecord,
    RunConfig,
    aggregate,
    client_round,
    fine_tune,
    make_client,
    client_name,
    run_federation,
    write_checkpoint,
)
import reference
import test_golden
from helpers import block_sets, minibatch_indices, pad_columns, rand_batch, rand_weights, row_block, row_blocks


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


ROW_DTYPES = ("float32", "float16", "int64", "bool", "complex128", "object")
LABEL_DTYPES = ("float64", "bool")


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
        # every client reports its training size once, in client order, before round 1
        assert log[:4] == [Message(client_name(j), SERVER, MSG_TRAIN_SIZE) for j in range(4)]
        assert [m.kind for m in log].count(MSG_TRAIN_SIZE) == 4

    @pytest.mark.parametrize("sizes, weights", [
        ([1, 1, 1, 1], [0.25] * 4), ([1, 3], [0.25, 0.75]), ([80] * 10, [0.1] * 10),
    ])
    def test_aggregation_weights_are_the_training_shares(self, sizes, weights):
        spec = toy_spec()
        rng = np.random.default_rng(18)
        data = [(rand_batch(spec, rng, n), rand_batch(spec, rng, 1)) for n in sizes]
        result = run_federation(toy_cfg(spec, num_clients=len(sizes), rounds=1), *row_blocks(data))
        assert result.server.agg_weights == weights
        assert sum(result.server.agg_weights) == pytest.approx(1.0, abs=1e-12)

    def test_base_is_drawn_from_the_servers_stream(self):
        """At eta 0 SGD moves nothing, and aggregating identical rows is
        exactly a fixed point, so a one-round run ends on the base it drew."""
        spec = toy_spec()
        cfg = toy_cfg(spec, num_clients=2, rounds=1, eta=0.0)
        result = run_federation(cfg, *row_blocks(toy_client_data(spec, 2, np.random.default_rng(19))))
        expected = init_weights(
            spec.base_layers, rngmod.substream(cfg.master_seed, rngmod.SERVER_PARTY, 0, rngmod.INIT)
        )
        assert weights_equal(result.server.base, expected)

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
        *(f"{name}-rows" for name in ROW_DTYPES), *(f"{name}-labels" for name in LABEL_DTYPES),
    ])
    def test_a_side_that_does_not_fit_the_clients_or_the_model_rejected(self, kind, case):
        """Each side needs a set of rows for every client, no set empty, as
        many rows and labels as its sizes add up to, the model's input
        width, float64 rows, and integer labels among its outputs.  Rows of
        another dtype would fail inside a pass, or train on a cast."""
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
            **{
                f"{name}-rows": (
                    RowBlock(x.astype(name), y, sizes), ShapeError,
                    f"{kind} rows of {name} and labels of {y.dtype} are not float64 and integers",
                ) for name in ROW_DTYPES
            },
            **{
                f"{name}-labels": (
                    RowBlock(x, y.astype(name), sizes), ShapeError,
                    f"{kind} rows of float64 and labels of {name} are not float64 and integers",
                ) for name in LABEL_DTYPES
            },
        }[case]
        sides[kind] = broken
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run_federation(toy_cfg(spec, num_clients=2), sides["training"], sides["test"])

    def test_byte_swapped_rows_and_int32_labels_train_as_native_arrays(self):
        """float64 rows of the other byte order (big-endian on a
        little-endian machine) and int32 labels pass the door and train
        bitwise as the native arrays do."""
        spec = toy_spec()
        cfg = toy_cfg(spec)
        native = row_blocks(toy_client_data(spec, 3, np.random.default_rng(20)))
        swapped = [
            RowBlock(rows.x.astype(rows.x.dtype.newbyteorder()), rows.y.astype(np.int32), rows.sizes) for rows in native
        ]
        assert not swapped[0].x.dtype.isnative and swapped[0].x.dtype.type is np.float64
        ours, theirs = run_federation(cfg, *swapped).history, run_federation(cfg, *native).history
        assert repr(ours) == repr(theirs)  # repr tells -0.0 from 0.0
        assert [r.base_checksum for r in ours.rounds] == [r.base_checksum for r in theirs.rounds]

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
        are scored in one segment.  The data seeds are ones on which padding
        a segment to its launch's largest batch, or running the shared base
        as one tall gemm, changes the record: 3 on SkylakeX and Haswell, 22
        (the tall gemm) on those and Katmai.  The property test's draws
        need not cover them."""
        spec = ModelSpec((LayerSpec(4, 5, "relu"), LayerSpec(5, 3, "identity")), 0)
        cfg = RunConfig(spec, 2, SgdConfig(0.1, 1, 4), False, 3, PartitionSpec(mode="k_class", num_clients=6))
        for seed in (3, 22):
            rng = np.random.default_rng(seed)
            data = [(rand_batch(spec, rng, n), rand_batch(spec, rng, 2)) for n in (3, 11, 1, 8, 5, 3)]
            self.assert_equals_reference(cfg, data)

    def test_replay_of_a_step_through_an_odd_offset(self):
        """One step of one client through a (3, 1) weight after a layer of
        3 parameters.  On OpenBLAS's generic core (Katmai) the backward
        product delta @ W rounds differently when that W starts at an odd
        float64 offset than on the reference's fresh array.  While a row
        held the layers end to end it started at column 7, and this replay
        failed on Katmai alone, whichever examples the property test drew;
        nn.columns starts it at column 8, and it passes on every core."""
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
        """run_federation's result on the sides under the budget, its plans
        and its weight block."""
        plans, blocks, build = [], [], fedper.protocol.weight_block

        class RecordingPlan(fedper.nn.LockstepPlan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                plans.append(self)

        def building(sets):
            blocks.append(build(sets))
            return blocks[-1]

        with mock.patch.object(fedper.protocol, "LockstepPlan", RecordingPlan), \
                mock.patch.object(fedper.protocol, "weight_block", building), \
                mock.patch.object(fedper.nn, "ROW_BUDGET", budget):
            result = run_federation(cfg, *sides)
        ((block, _),) = blocks
        return result, plans, block

    def assert_budget_free(self, cfg, sides):
        default, _, block = self.run(cfg, sides, fedper.nn.ROW_BUDGET)
        one_row, one_row_plans, one_row_block = self.run(cfg, sides, 1)
        assert all(len(launch[0]) == 1 for plan in one_row_plans for launch in plan.launches)
        assert repr(one_row.history) == repr(default.history)  # repr tells -0.0 from 0.0
        checksums = [[r.base_checksum for r in h.rounds] for h in (one_row.history, default.history)]
        assert checksums[0] == checksums[1]
        # the final weight block: the round's base and every client's personal layers
        assert one_row_block.tobytes() == block.tobytes()

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


@st.composite
def grouped_runs(draw):
    """A fine-tuned run of a random model of 1-4 layers of widths 1-8, and
    four clients of 12-30 training rows at B=12: a lock-step step of 48
    rows, past the 40 of TestClientGroups.force."""
    n_layers = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 8), min_size=n_layers + 1, max_size=n_layers + 1))
    layers = tuple(LayerSpec(dims[i], dims[i + 1], "relu" if i + 1 < n_layers else "identity") for i in range(n_layers))
    spec = ModelSpec(layers, draw(st.integers(0, n_layers - 1)))
    cfg = RunConfig(spec, 2, SgdConfig(0.1, 2, 12), True, draw(st.integers(0, 2**32 - 1)), PartitionSpec("k_class", 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cfg, [(rand_batch(spec, rng, draw(st.integers(12, 30))), rand_batch(spec, rng, 2)) for _ in range(4)]


class TestBlockLayout:
    """A run's weight block is laid out by nn.columns, and its pad columns
    read 0.0 (its bits, so not -0.0) after a fine-tuned run with
    checkpoints every round, in one client group and in two."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(grouped_runs())
    def test_pads_read_zero_after_a_run_in_one_group_and_in_two(self, run):
        cfg, data = run
        for cores in (1, 2):
            blocks, build = [], fedper.protocol.weight_block

            def building(sets):
                blocks.append(build(sets))
                return blocks[-1]

            with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as out:
                groups = TestClientGroups.force(patch, cores)
                patch.setattr(fedper.protocol, "weight_block", building)
                run_federation(cfg, *row_blocks(data), out, checkpoint_every=1)
                assert len(os.listdir(out)) == 4 * cfg.rounds
            ((block, layers),) = blocks
            assert [len(g) for g in groups] == [cores]
            pads = pad_columns(block, layers)
            assert block[:, pads].tobytes() == bytes(8 * block[:, pads].size)


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
        five segments with every layer shared.  The seeds are ones on which
        running the shared layers as one tall gemm over the launch changes
        scores, 1 on SkylakeX and Haswell and 18 on those and Katmai, which
        the draws above need not cover."""
        spec = ModelSpec((LayerSpec(4, 5, "relu"), LayerSpec(5, 3, "identity")), 0)
        for seed in (1, 18):
            rng = np.random.default_rng(seed)
            base = rand_weights(spec.base_layers, rng)
            personal = [rand_weights(spec.personal_layers, rng) for _ in range(6)]
            sets = [rand_batch(spec, rng, n) for n in (3, 11, 1, 8, 5, 3)]
            self.assert_equals_reference(spec, base, personal, sets)

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
        # 30 small sets, on which a tall scoring gemm rounds off the stacked one on Haswell and Katmai
        (["rounds=2", "partition.mode=unbalanced_users", "partition.num_clients=30", "partition.volume_range=[10,14]"], None),
    ], ids=["default", "unbalanced-fine-tuned", "twelve-classes", "budget-split", "wide-input", "small-sets"])
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
        each side's scoring) are built once, before round 1, on views of the
        row blocks the run is given, and no round copies client rows, nor
        does the set-up; the launch counts are those of test_default_config."""
        resolved = resolve({**default_config(), "rounds": 3, "fine_tune": True})
        trains, tests = client_shards(build_dataset(resolved.dataset), resolved.run.partition)
        client_arrays = [trains.x, trains.y, tests.x, tests.y]
        current_round, plans, copies, forwards = [0], [], [], Counter()

        def views(rows, side):
            return rows.x.base is side.x and rows.y.base is side.y and rows.sizes == side.sizes

        class CountingPlan(fedper.nn.LockstepPlan):
            def __init__(self, spec, rows, block, epochs, batch_size, first_trained=0, workspace=None, budget=None):
                plans.append((current_round[0], epochs, first_trained, views(rows, trains), views(rows, tests)))
                super().__init__(spec, rows, block, epochs, batch_size, first_trained, workspace, budget)

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
        block, one row per client: the run's weight block."""
        plans, blocks, build = self.record_plans(monkeypatch), [], fedper.protocol.weight_block

        def building(sets):
            blocks.append(build(sets))
            return blocks[-1]

        monkeypatch.setattr(fedper.protocol, "weight_block", building)
        resolved = resolve({**default_config(), "rounds": 2, "fine_tune": True})
        result = run_experiment(resolved.run, build_dataset(resolved.dataset))
        ((block, _),) = blocks
        assert len(plans) == 4 and all(plan.block.base is block and plan.block.shape == block.shape for plan in plans)
        assert block.shape[0] == resolved.run.partition.num_clients
        # the server's base is row 0's, and after the broadcast every row's base columns are bitwise it
        spec = resolved.run.spec
        base_columns = fedper.nn.columns([(s.out_dim, s.in_dim) for s in spec.layers])[spec.k_base]
        pads = pad_columns(block, result.layers)
        assert all(np.shares_memory(w, block[0]) and np.shares_memory(b, block[0]) for w, b in result.server.base)
        base_row = np.concatenate([a.reshape(-1) for layer in result.server.base for a in layer])
        assert np.delete(block[0, :base_columns], [c for c in pads if c < base_columns]).tobytes() == base_row.tobytes()
        assert all(row.tobytes() == block[0, :base_columns].tobytes() for row in block[:, :base_columns])
        # the result's layer stacks are views of the block, and hold the whole of it but its pads, which read 0.0
        assert all(np.shares_memory(a, block) for layer in result.layers for a in layer)
        assert sum(w[0].size + b[0].size for w, b in result.layers) + len(pads) == block.shape[1]
        assert not block[:, pads].any()

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

    # the one-client step API, by the modules that define it and fedper.protocol, which imports it
    STEPS = {
        fedper.protocol: ("make_client", "client_round", "fine_tune", "aggregate", "sgd", "evaluate"),
        fedper.nn: ("sgd",),
        fedper.metrics: ("evaluate",),
    }

    @pytest.mark.parametrize("cores", [1, 2])
    def test_the_run_path_calls_no_step_of_the_step_api(self, monkeypatch, tmp_path, cores):
        """A fine-tuned `fedper run` with checkpoints every round, in one
        client group and in two, sets itself up, trains and scores without
        one call of a one-client step: every set is scored by the stacked
        path, also a set whose length no other set shares."""
        calls = []

        def counting(name, step):
            def counted(*args, **kwargs):
                calls.append(name)
                return step(*args, **kwargs)
            return counted

        for module, names in self.STEPS.items():
            for name in names:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        groups = TestClientGroups.force(monkeypatch, cores)
        overrides = [*TestClientGroups.CONFIGS["unbalanced-fine-tuned"], "output.checkpoint_every=1"]
        assert main(["run", *(a for o in overrides for a in ("--set", o)), "--out", str(tmp_path)]) == 0
        assert [len(g) for g in groups] == [cores]
        assert {"round0001", "round0002", "final"} <= {f.name.split("_")[0] for f in (tmp_path / "checkpoints").iterdir()}
        resolved = resolve(apply_overrides(default_config(), overrides))
        lengths = [n for rows in client_shards(build_dataset(resolved.dataset), resolved.run.partition) for n in rows.sizes]
        assert len(set(lengths)) > len(lengths) // 2  # mostly sets alone in their length
        assert calls == []


class TestRunConfigValidation:
    def test_bounds(self):
        spec = toy_spec()
        with pytest.raises(ConfigError):
            toy_cfg(spec, num_clients=0)
        with pytest.raises(ConfigError):
            toy_cfg(spec, rounds=0)


class TestClientGroups:
    """A run whose lock-step steps hold more than ROW_BUDGET rows trains as
    one contiguous group of clients per usable core, each group's share of
    a pass a task on a thread.  Groups change no output byte: runs of 2 and
    3 groups write the history, the per-round base checksums and the
    checkpoints of a run of one, and a pass that overflows in a group ends
    the run as it ends a run of one group.  No thread outlives the run."""

    CONFIGS = {
        "k_class": ["rounds=2"],
        "unbalanced-fine-tuned": [
            "rounds=2", "partition.mode=unbalanced_users", "partition.rater_disagreement=true",
            "fine_tune=true", "sgd.eta=0.05",
        ],
        "ragged": [
            "rounds=3", "partition.mode=unbalanced_users", "partition.num_clients=7",
            "partition.volume_range=[4,60]", "sgd.batch_size=8", "model.k_personal=2",
        ],
    }

    @staticmethod
    def force(monkeypatch, cores: int) -> list:
        """Give runs cores usable cores and a row budget of 40 rows, below
        every step of CONFIGS' runs; returns a list that gets each run's
        client groups."""
        groups, split = [], fedper.protocol._client_groups

        def splitting(*args):
            groups.append(split(*args))
            return groups[-1]

        monkeypatch.setattr(fedper.protocol, "_usable_cores", lambda: cores)
        monkeypatch.setattr(fedper.protocol, "_client_groups", splitting)
        monkeypatch.setattr(fedper.nn, "ROW_BUDGET", 40)
        return groups

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_groups_change_no_output_byte(self, monkeypatch, tmp_path, name):
        resolved = resolve(apply_overrides(default_config(), self.CONFIGS[name]))
        ds = build_dataset(resolved.dataset)
        outputs = []
        for cores in (1, 2, 3):
            with monkeypatch.context() as patch:
                groups, threads, out = self.force(patch, cores), threading.active_count(), tmp_path / str(cores)
                result = run_experiment(resolved.run, ds, out, checkpoint_every=1)
            assert [len(g) for g in groups] == [cores] and threading.active_count() == threads
            checksums = [r.base_checksum for r in result.history.rounds]
            # repr tells -0.0 from 0.0; the checkpoints are every round's
            outputs.append((repr(result.history), checksums, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
        assert len(outputs[0][2]) == 4 * resolved.run.rounds
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_golden_config_in_three_groups_gives_its_stored_values(self, monkeypatch):
        groups = self.force(monkeypatch, 3)
        values = test_golden.history_values("unbalanced_finetune")
        assert [len(g) for g in groups] == [3]
        assert values == test_golden.stored(test_golden.GOLDEN, "unbalanced_finetune")

    def test_groups_are_contiguous_ranges_of_about_equal_rows(self, monkeypatch):
        split = fedper.protocol._client_groups
        self.force(monkeypatch, 3)
        assert split([16] * 10, 16) == [(0, 3), (3, 7), (7, 10)]
        assert split([30] * 2, 30) == [(0, 1), (1, 2)]  # at most one group per client
        assert split([1000, 1, 1], 1000) == [(0, 1), (1, 3)]  # no group is empty
        assert split([8] * 5, 8) == [(0, 5)]  # a step of 40 rows fits the budget

    @pytest.mark.parametrize("affinity, count, cores", [(True, 5, 2), (False, 5, 5), (False, None, 1)])
    def test_usable_cores_are_the_affinity_else_the_cpu_count(self, monkeypatch, affinity, count, cores):
        if affinity:
            monkeypatch.setattr(fedper.protocol.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        else:
            monkeypatch.delattr(fedper.protocol.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(fedper.protocol.os, "cpu_count", lambda: count)
        assert fedper.protocol._usable_cores() == cores

    @pytest.mark.parametrize("overrides, round_idx", [
        ([], 1),
        # weights that stay finite while the losses overflow, as scoring finds
        (["--set", "dataset.per_class=30", "--set", "partition.num_clients=4"], 2),
    ], ids=["in-training", "in-scoring"])
    def test_overflow_in_a_group_ends_the_run(self, monkeypatch, tmp_path, capsys, overrides, round_idx):
        groups, threads, out = self.force(monkeypatch, 2), threading.active_count(), tmp_path / "o"
        assert main(["run", "--set", "sgd.eta=1e6", "--set", "rounds=3", *overrides, "--out", str(out)]) == 1
        assert [len(g) for g in groups] == [2] and threading.active_count() == threads
        assert re.search(rf"round {round_idx}: overflow encountered in \w+; the run diverged", capsys.readouterr().err)
        assert not (out / "run_history.csv").exists()
