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
    SgdConfig,
    init_weights,
    loss_and_grad,
    sgd,
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
from helpers import minibatch_indices, rand_batch, rand_weights


def toy_spec(k_personal=1):
    return ModelSpec(
        (LayerSpec(3, 6, "relu"), LayerSpec(6, 6, "relu"), LayerSpec(6, 3, "identity")),
        k_personal,
    )


def toy_cfg(spec, num_clients=3, rounds=2, eta=0.05, fine_tune_flag=False, seed=77):
    return RunConfig(
        spec=spec,
        rounds=rounds,
        sgd=SgdConfig(eta, 2, 4),
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
        expected, _ = sgd(
            spec, base_in, [], client.train, cfg.sgd,
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
        result = run_federation(cfg, data)

        base0 = init_weights(
            spec.base_layers, rngmod.substream(cfg.master_seed, rngmod.SERVER_PARTY, 0, rngmod.INIT)
        )
        expected, _ = sgd(
            spec, base0, [], data[0][0], cfg.sgd,
            rngmod.substream(cfg.master_seed, rngmod.client_party(0), 1, rngmod.SGD),
        )
        assert weights_equal(result.server.base, expected)
        metrics = result.history.rounds[0].clients[0]
        assert metrics.test_accuracy == evaluate(spec, expected, [], data[0][1]).accuracy

    def test_deterministic_given_master_seed(self):
        spec = toy_spec()
        cfg = toy_cfg(spec)
        data = toy_client_data(spec, cfg.partition.num_clients, np.random.default_rng(9))
        a = run_federation(cfg, data)
        b = run_federation(cfg, data)
        assert a.history == b.history
        assert weights_equal(a.server.base, b.server.base)

    def test_privacy_no_personal_payloads_and_log_shape(self):
        spec = toy_spec()
        cfg = toy_cfg(spec, num_clients=4, rounds=3)
        data = toy_client_data(spec, 4, np.random.default_rng(11))
        result = run_federation(cfg, data)
        log = result.server.message_log
        assert result.server.personal_payload_count() == 0
        assert all(m.kind in (MSG_TRAIN_SIZE, MSG_BASE_WEIGHTS) for m in log)
        assert len(log) == 4 + 2 * 4 * 3

    def test_history_bookkeeping(self):
        spec = toy_spec()
        cfg = toy_cfg(spec, num_clients=3, rounds=4)
        data = toy_client_data(spec, 3, np.random.default_rng(12))
        history = run_federation(cfg, data).history
        assert len(history) == 4
        entries = [m for r in history.rounds for m in r.clients]
        assert len(entries) == 4 * 3
        for r in history.rounds:
            assert [m.client_id for m in r.clients] == [0, 1, 2]

    def test_fine_tune_run_completes(self):
        spec = toy_spec()
        cfg = toy_cfg(spec, fine_tune_flag=True)
        data = toy_client_data(spec, cfg.partition.num_clients, np.random.default_rng(13))
        history = run_federation(cfg, data).history
        assert len(history) == cfg.rounds

    def test_empty_test_set_rejected(self):
        spec = toy_spec()
        cfg = toy_cfg(spec, num_clients=1)
        rng = np.random.default_rng(0)
        data = [(rand_batch(spec, rng, 4), rand_batch(spec, rng, 0))]
        with pytest.raises(ConfigError):
            run_federation(cfg, data)

    def test_nan_features_stop_the_run(self):
        # NaN propagates without a floating-point signal; the weight check names the client
        spec = toy_spec()
        cfg = toy_cfg(spec, num_clients=2)
        data = toy_client_data(spec, 2, np.random.default_rng(16))
        data[1][0].X[3, 1] = np.nan
        with pytest.raises(SimulationError, match="client 1 has non-finite weights after round 1"):
            run_federation(cfg, data)

    def test_no_clients_rejected(self):
        with pytest.raises(ConfigError, match="at least one client"):
            run_federation(toy_cfg(toy_spec()), [])

    def test_checkpoint_interval(self, tmp_path):
        spec = toy_spec()
        cfg = toy_cfg(spec, num_clients=2, rounds=4)
        data = toy_client_data(spec, 2, np.random.default_rng(14))
        run_federation(cfg, data, checkpoint_dir=tmp_path, checkpoint_every=2)
        names = {p.name for p in tmp_path.iterdir()}
        assert "round0002_server_base.json" in names
        assert "round0004_personal.bin" in names
        assert not any("client" in n for n in names)
        assert not any(n.startswith("round0001") or n.startswith("round0003") for n in names)

    def test_checkpoint_stacks_every_clients_personal_layers(self, tmp_path):
        spec = toy_spec()
        cfg = toy_cfg(spec, num_clients=3, rounds=2)
        data = toy_client_data(spec, 3, np.random.default_rng(15))
        result = run_federation(cfg, data, checkpoint_dir=tmp_path, checkpoint_every=1)
        write_checkpoint(tmp_path, "final", result.server, result.clients)
        tags = Counter(p.name.split("_")[0] for p in tmp_path.iterdir())
        assert tags == {"round0001": 4, "round0002": 4, "final": 4}
        for tag in ("round0002", "final"):
            base, split_index = load_weights(tmp_path / f"{tag}_server_base")
            assert split_index == spec.k_base and weights_equal(base, result.server.base)
            stacks, split_index = load_weights(tmp_path / f"{tag}_personal")
            assert split_index == 0 and [w.shape[0] for w, _ in stacks] == [3] * spec.k_personal
            for client in result.clients:
                assert weights_equal(fedper.nn.unstack_weights(stacks, client.client_id), client.personal)


class TestFedAvgEquivalence:
    """Reference implementation: plain federated averaging written as its own
    loop (no model splitting, no client/server state machinery), sharing only
    the nn primitives and the rng discipline."""

    @staticmethod
    def reference_fedavg(cfg: RunConfig, client_data):
        spec = cfg.spec
        sizes = [len(train) for train, _ in client_data]
        total = sum(sizes)
        gammas = [n / total for n in sizes]
        global_weights = init_weights(
            spec.layers, rngmod.substream(cfg.master_seed, rngmod.SERVER_PARTY, 0, rngmod.INIT)
        )
        records = []
        for round_idx in range(1, cfg.rounds + 1):
            locals_ = []
            for j, (train, _) in enumerate(client_data):
                gen = rngmod.substream(cfg.master_seed, rngmod.client_party(j), round_idx, rngmod.SGD)
                updated, _ = sgd(spec, global_weights, [], train, cfg.sgd, gen)
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
                    evaluate(spec, global_weights, [], test).accuracy,
                    evaluate(spec, global_weights, [], train).loss,
                )
                for j, (train, test) in enumerate(client_data)
            )
            records.append(RoundRecord(round_idx, weights_checksum(global_weights), metrics))
        return RoundHistory(tuple(records))

    def test_k_p_zero_matches_reference_bitwise(self):
        spec = toy_spec(k_personal=0)
        cfg = toy_cfg(spec, num_clients=4, rounds=5, seed=2024)
        data = toy_client_data(spec, 4, np.random.default_rng(15), n_train=9, n_test=4)
        ours = run_federation(cfg, data)
        reference = self.reference_fedavg(cfg, data)
        assert ours.history == reference


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


class TestBatchingInvariance:
    """The lock-step engine trains every client bitwise as if it ran alone:
    run_federation equals a loop that trains one client at a time."""

    @staticmethod
    def one_client_at_a_time(cfg: RunConfig, client_data):
        spec = cfg.spec
        clients = [make_client(cfg, j, train, test) for j, (train, test) in enumerate(client_data)]
        server = server_init(cfg, [len(c.train) for c in clients])
        base = server.base
        records = []
        for round_idx in range(1, cfg.rounds + 1):
            updates = []
            for j, client in enumerate(clients):
                if cfg.fine_tune and spec.k_personal >= 1:
                    client = fine_tune(client, cfg, base, round_idx)
                base_out, clients[j] = client_round(client, cfg, base, round_idx)
                updates.append((base_out, server.agg_weights[j]))
            base = aggregate(updates)
            metrics = tuple(
                ClientMetrics(
                    c.client_id,
                    round_idx,
                    evaluate(spec, base, c.personal, c.test).accuracy,
                    evaluate(spec, base, c.personal, c.train).loss,
                )
                for c in clients
            )
            records.append(RoundRecord(round_idx, weights_checksum(base), metrics))
        return RoundHistory(tuple(records)), base, clients

    @settings(max_examples=60, deadline=None)
    @given(federations())
    def test_lockstep_equals_one_client_at_a_time(self, federation):
        cfg, data = federation
        ours = run_federation(cfg, data)
        history, base, clients = self.one_client_at_a_time(cfg, data)
        assert repr(ours.history) == repr(history)  # repr tells -0.0 from 0.0
        assert weights_checksum(ours.server.base) == weights_checksum(base)
        for mine, theirs in zip(ours.clients, clients):
            assert weights_checksum(mine.personal) == weights_checksum(theirs.personal)


class TestRowBudget:
    """Launches and scoring groups share one row budget.  How it cuts a
    bucket into launches and the sets into scoring groups changes no output
    byte: a budget of one row, one client per launch and one set per group,
    gives what the default budget gives."""

    @staticmethod
    def run(cfg, data, budget):
        """run_federation's result under the budget, and its plans."""
        plans = []

        class RecordingPlan(fedper.nn.LockstepPlan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                plans.append(self)

        with mock.patch.object(fedper.protocol, "LockstepPlan", RecordingPlan), \
                mock.patch.object(fedper.nn, "ROW_BUDGET", budget):
            return run_federation(cfg, data), plans

    def assert_budget_free(self, cfg, data):
        default, plans = self.run(cfg, data, fedper.nn.ROW_BUDGET)
        one_row, one_row_plans = self.run(cfg, data, 1)
        assert all(len(launch[0]) == 1 for plan in one_row_plans for launch in plan.launches)
        assert repr(one_row.history) == repr(default.history)  # repr tells -0.0 from 0.0
        checksums = [[r.base_checksum for r in h.rounds] for h in (one_row.history, default.history)]
        assert checksums[0] == checksums[1]
        # the final weight block: the round's base and every client's personal layers
        assert one_row_plans[0].block.tobytes() == plans[0].block.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(federations())
    def test_one_row_budget_changes_no_output(self, federation):
        self.assert_budget_free(*federation)

    def test_unbalanced_fine_tuned_run(self):
        """Ragged unbalanced_users sets, fine-tuning on, relu and identity
        layers."""
        cfg = apply_overrides(default_config(), ["rounds=2", "fine_tune=true", "partition.mode=unbalanced_users"])
        resolved = resolve(cfg)
        assert {s.activation for s in resolved.run.spec.layers} == {"relu", "identity"}
        shards = client_shards(build_dataset(resolved.dataset), resolved.run.partition)
        assert len({len(train) for train, _ in shards}) > 1
        self.assert_budget_free(resolved.run, shards)


class TestStackedEvaluation:
    """Sets of one length are scored by one stacked forward pass, which must
    give every set bitwise what evaluate gives it alone."""

    @settings(max_examples=100, deadline=None)
    @given(
        n_layers=st.integers(1, 3),
        data=st.data(),
        lengths=st.lists(st.sampled_from([1, 2, 3, 5]), min_size=1, max_size=8),
        max_rows=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_evaluate_per_set(self, n_layers, data, lengths, max_rows, seed):
        dims = data.draw(st.lists(st.integers(1, 6), min_size=n_layers + 1, max_size=n_layers + 1))
        activations = data.draw(st.lists(st.sampled_from(ACTIVATIONS), min_size=n_layers, max_size=n_layers))
        layers = tuple(LayerSpec(dims[i], dims[i + 1], activations[i]) for i in range(n_layers))
        spec = ModelSpec(layers, data.draw(st.integers(0, n_layers - 1)))
        rng = np.random.default_rng(seed)
        base = rand_weights(spec.base_layers, rng)
        personal = [rand_weights(spec.personal_layers, rng) for _ in lengths]
        sets = [rand_batch(spec, rng, n) for n in lengths]
        # max_rows below a set's length scores its sets one by one; above,
        # it splits a group of equal-length sets into several
        stack = fedper.nn.stack_weights(personal)
        alone = [evaluate(spec, base, p, d) for p, d in zip(personal, sets)]
        with mock.patch.object(fedper.nn, "ROW_BUDGET", max_rows):
            rows = fedper.nn.RowBlock(sets)
            for measure, field in ((fedper.metrics.accuracy, "accuracy"), (fedper.metrics.mean_loss, "loss")):
                stacked = fedper.metrics.scores(spec, rows, base, stack, measure)
                assert repr(stacked) == repr([getattr(r, field) for r in alone])  # repr tells -0.0 from 0.0


class TestLaunchCounts:
    """A default-config round trains in one forward pass per bucket and
    evaluates in one forward pass per distinct set length."""

    @staticmethod
    def buckets(sizes, epochs, batch):
        """Launches of one lock-step pass: at each step, one per distinct
        batch size among the clients that still have batches."""
        plans = [[min(batch, n - i) for _ in range(epochs) for i in range(0, n, batch)] for n in sizes]
        return sum(len({p[t] for p in plans if t < len(p)}) for t in range(max(map(len, plans))))

    def test_default_config(self, monkeypatch):
        counts = {"train": 0, "eval": 0}

        def counting(kind, forward):
            def wrapped(*args):
                counts[kind] += 1
                return forward(*args)
            return wrapped

        monkeypatch.setattr(fedper.nn, "_forward", counting("train", fedper.nn._forward))
        monkeypatch.setattr(fedper.metrics, "_forward", counting("eval", fedper.metrics._forward))
        resolved = resolve({**default_config(), "rounds": 2})
        result = run_experiment(resolved.run, build_dataset(resolved.dataset))

        train_sizes = [len(c.train) for c in result.clients]
        test_sizes = [len(c.test) for c in result.clients]
        sgd_cfg = resolved.run.sgd
        assert self.buckets(train_sizes, sgd_cfg.epochs, sgd_cfg.batch_size) == 31
        assert counts["train"] == 2 * 31
        assert len(set(train_sizes)) + len(set(test_sizes)) == 5
        assert counts["eval"] == 2 * 5  # one per distinct set length, not one per set

    def test_planned_once_per_run(self, monkeypatch):
        """With fine-tuning on, the two lock-step plans and the row blocks
        of the test and the training sets are built once, before round 1,
        and no later round copies client rows; the launch counts are those
        of test_default_config."""
        resolved = resolve({**default_config(), "rounds": 3, "fine_tune": True})
        shards = client_shards(build_dataset(resolved.dataset), resolved.run.partition)
        client_arrays = [a for pair in shards for d in pair for a in (d.X, d.y)]
        current_round, plans, row_blocks, copies, forwards = [0], [], [], [], Counter()

        class CountingPlan(fedper.nn.LockstepPlan):
            def __init__(self, spec, rows, block, epochs, batch_size, first_trained=0):
                plans.append((current_round[0], epochs, first_trained))
                super().__init__(spec, rows, block, epochs, batch_size, first_trained)

        class CountingRows(fedper.nn.RowBlock):
            def __init__(self, sets):
                row_blocks.append(current_round[0])
                super().__init__(sets)

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
        monkeypatch.setattr(fedper.protocol, "RowBlock", CountingRows)
        # round_idx is the third argument of _streams, which every round calls
        wrap(fedper.protocol, "_streams", lambda *args: current_round.__setitem__(0, args[2]))
        for name in ("stack", "concatenate"):
            wrap(np, name, copying(name))
        for kind, module in (("train", fedper.nn), ("eval", fedper.metrics)):
            wrap(module, "_forward", lambda *_, kind=kind: forwards.update([kind]))

        result = run_federation(resolved.run, shards)

        sgd_cfg, k_base = resolved.run.sgd, resolved.run.spec.k_base
        assert sorted(plans) == [(0, 1, k_base), (0, sgd_cfg.epochs, 0)]  # fine-tune, SGD
        assert row_blocks == [0, 0]  # the test sets', the training sets'
        assert copies and {r for r, _ in copies} == {0}
        fine_tune_launches = self.buckets([len(c.train) for c in result.clients], 1, sgd_cfg.batch_size)
        assert forwards == {"train": 3 * (31 + fine_tune_launches), "eval": 3 * 5}

    def test_one_weight_block_per_run(self, monkeypatch):
        """The SGD and the fine-tune plan train one (N, P) block, and every
        client's personal weights are views of it."""
        plans = []

        class RecordingPlan(fedper.nn.LockstepPlan):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                plans.append(self)

        monkeypatch.setattr(fedper.protocol, "LockstepPlan", RecordingPlan)
        resolved = resolve({**default_config(), "rounds": 2, "fine_tune": True})
        result = run_experiment(resolved.run, build_dataset(resolved.dataset))
        block = plans[0].block
        assert len(plans) == 2 and plans[1].block is block
        assert block.shape[0] == len(result.clients)
        for c in result.clients:
            assert all(np.shares_memory(w, block) and np.shares_memory(b, block) for w, b in c.personal)

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
        result = run_experiment(resolved.run, build_dataset(resolved.dataset))
        lengths = [len(d) for c in result.clients for d in (c.train, c.test)]
        assert len(set(lengths)) > len(lengths) // 2  # mostly sets alone in their length
        assert calls == []


class TestRunConfigValidation:
    def test_bounds(self):
        spec = toy_spec()
        with pytest.raises(ConfigError):
            toy_cfg(spec, num_clients=0)
        with pytest.raises(ConfigError):
            toy_cfg(spec, rounds=0)
