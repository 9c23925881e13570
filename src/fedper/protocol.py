"""Federation protocol: the run (run_federation), a Federation set up and
stepped by Federation.round; sample-weighted aggregation and the optional
personal-layer fine-tuning pass; and the one-client step API (make_client,
client_round, fine_tune, aggregate), which the run does not call.

Every round trains all clients together on the lock-step engine
(fedper.nn.LockstepPlan).  The run's weights are one block and no other
copy (fedper.nn.weight_block): row j holds the round's base, then client
j's personal layers; ServerState.base views row 0.  A run's rows are the
two fedper.nn.RowBlocks it is given, the training and the test sets', each
in client order; it checks them once and builds no per-client object.
Built by the set-up, per client group: the plans, all of one planner
(fedper.nn.launches) and in the SGD plan's workspace where their launches
fit: the SGD pass, with fine-tuning on the fine-tune pass, and per side a
scoring pass, one epoch whose batch is the whole set.  A round runs the
passes, aggregates the base columns over the rows (aggregate_rows),
assigns the result to every row and scores from the block: each set's
mean of a per-row measure, fedper.metrics.correct on the test sets and
fedper.nn.cross_entropy on the training sets.

A run is one group of all its clients unless one lock-step step of its
SGD pass, one batch of every client, holds more than fedper.nn.ROW_BUDGET
rows.  Such a run splits into one contiguous group per usable core (at
most one per client) of about equal training rows, each group's plans on
views of its rows with a budget of ROW_BUDGET // groups, and a thread pool
that lives as long as the run runs each pass as one task per group.
Everything else stays on the main thread, between passes.  A client's arithmetic does not depend
on its group, so no output byte does.

Communication is in-process.  Every exchange is appended to the server's
message log as (sender, receiver, payload kind), which makes the privacy
contract checkable: personalization weights must never appear on the wire,
so no log entry may carry the personal-weights kind.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn
from . import rng as rngmod
from .errors import ConfigError, ProtocolError, ShapeError, SimulationError, UsageError
from .checkpoint import save_weights
from .data import LabeledDataset, PartitionSpec
from .metrics import ClientMetrics, correct
from .metrics import evaluate  # unused here; the benchmark traces fedper.protocol.evaluate
from .model import ModelSpec
from .nn import (
    Layers, LockstepPlan, RowBlock, SgdConfig, check_data, cross_entropy, init_weights, sgd, unstack_weights,
    weight_block, weights_checksum,
)

SERVER = "server"

MSG_TRAIN_SIZE = "train_size"
MSG_BASE_WEIGHTS = "base_weights"
# Defined so the privacy scan has a referent; the engine never sends it.
MSG_PERSONAL_WEIGHTS = "personal_weights"


def client_name(client_id: int) -> str:
    return f"client/{client_id}"


@dataclass(frozen=True)
class Message:
    sender: str
    receiver: str
    kind: str


@dataclass
class ClientState:
    """One simulated device: its data and its private personalization weights."""

    client_id: int
    train: LabeledDataset
    test: LabeledDataset
    personal: Layers


@dataclass
class ServerState:
    """A run's global base weights (views of row 0 of its weight block, the
    aggregated base after each round's broadcast), the aggregation weights
    n_j / sum(n), and the log of every message exchanged."""

    base: Layers
    agg_weights: list[float]
    message_log: list[Message] = field(default_factory=list)

    def log(self, sender: str, receiver: str, kind: str) -> None:
        self.message_log.append(Message(sender, receiver, kind))

    def personal_payload_count(self) -> int:
        return sum(1 for m in self.message_log if m.kind == MSG_PERSONAL_WEIGHTS)


@dataclass(frozen=True)
class RunConfig:
    """One federation run of as many clients as run_federation gets sets."""

    spec: ModelSpec
    rounds: int
    sgd: SgdConfig
    fine_tune: bool
    master_seed: int
    partition: PartitionSpec

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")


@dataclass(frozen=True)
class RoundRecord:
    round_idx: int
    base_checksum: str
    clients: tuple[ClientMetrics, ...]


@dataclass(frozen=True)
class RoundHistory:
    rounds: tuple[RoundRecord, ...]

    def __len__(self) -> int:
        return len(self.rounds)

    def final_accuracies(self) -> list[float]:
        return [m.test_accuracy for m in self.rounds[-1].clients]


@dataclass
class FederationResult:
    history: RoundHistory
    server: ServerState
    layers: Layers  # the weight block's layer stacks, base layers first; row j is client j's


def _client_stream(
    cfg: RunConfig, client_id: int, round_idx: int, purpose: int
) -> np.random.Generator:
    return rngmod.substream(cfg.master_seed, rngmod.client_party(client_id), round_idx, purpose)


def make_client(
    cfg: RunConfig,
    client_id: int,
    train: LabeledDataset,
    test: LabeledDataset,
) -> ClientState:
    """Build a client with personalization weights drawn from its own stream.
    Every client needs a non-empty training set and a non-empty test set."""
    for kind, data in (("training", train), ("test", test)):
        if len(data) < 1:
            raise ConfigError(f"client {client_id} has an empty {kind} set")
        check_data(cfg.spec, data)
    personal = init_weights(cfg.spec.personal_layers, _client_stream(cfg, client_id, 0, rngmod.INIT))
    return ClientState(client_id, train, test, personal)


def _check_base(client: ClientState, spec: ModelSpec, base_in: Layers) -> None:
    if len(base_in) != spec.k_base:
        raise ProtocolError(
            f"client {client.client_id}: received {len(base_in)} base layers, expected {spec.k_base}"
        )


def client_round(
    client: ClientState, cfg: RunConfig, base_in: Layers, round_idx: int
) -> tuple[Layers, ClientState]:
    """One local training pass: SGD jointly updates the received base weights
    and the client's personal weights.  Only the updated base is returned for
    the wire; the personal update stays in the returned client state."""
    _check_base(client, cfg.spec, base_in)
    gen = _client_stream(cfg, client.client_id, round_idx, rngmod.SGD)
    base_out, personal_out = sgd(cfg.spec, base_in, client.personal, client.train, cfg.sgd, gen)
    return base_out, replace(client, personal=personal_out)


def _streams(cfg: RunConfig, clients: range, round_idx: int, purpose: int) -> list[np.random.Generator]:
    return [_client_stream(cfg, j, round_idx, purpose) for j in clients]


def fine_tune(client: ClientState, cfg: RunConfig, base_in: Layers, round_idx: int) -> ClientState:
    """One epoch of SGD on the personal layers only, base frozen in place.

    The base layers take part in the forward pass but are never updated, so
    base_in is returned to the caller untouched.
    """
    if cfg.spec.k_personal < 1:
        raise UsageError("fine_tune requires at least one personalization layer")
    _check_base(client, cfg.spec, base_in)
    gen = _client_stream(cfg, client.client_id, round_idx, rngmod.FINE_TUNE)
    sgd_cfg = replace(cfg.sgd, epochs=1)
    _, personal = sgd(cfg.spec, base_in, client.personal, client.train, sgd_cfg, gen, cfg.spec.k_base)
    return replace(client, personal=personal)


def aggregate_rows(rows: np.ndarray, gammas: Sequence[float]) -> np.ndarray:
    """Convex combination w0 + sum_j g_j * (w_j - w0) of the rows w_j of an
    (N, P) block (P = 0 when every layer is personal), row j client j's base
    update and gammas[j] its weight: algebraically the weighted mean, but
    exactly a fixed point when every row is identical.  np.add.reduce over
    axis 0 adds the rows in row order (a block of one column, which no layer
    list lays out, it sums pairwise), and a fixed floating-point order keeps
    it bitwise deterministic."""
    if len(gammas) == 0:
        raise ProtocolError("aggregate needs at least one update")
    for g in gammas:
        if not (math.isfinite(g) and g > 0):
            raise ConfigError(f"aggregation weights must be finite and positive, got {g}")
    # the exactly rounded sum: a plain one drifts past the tolerance at
    # about 10^5 equal weights
    try:
        gamma_sum = math.fsum(gammas)
    except OverflowError:  # finite weights whose sum no float holds
        gamma_sum = math.inf
    if not abs(gamma_sum - 1.0) <= 1e-12:
        raise ConfigError(f"aggregation weights sum to {gamma_sum!r}, expected 1 within 1e-12")
    d = rows - rows[0]
    d *= np.asarray(gammas)[:, None]
    d[0] = rows[0]
    return np.add.reduce(d, axis=0)


def aggregate(updates: Sequence[tuple[Layers, float]]) -> Layers:
    """aggregate_rows of the clients' base updates, given in ascending
    client id order with their weights, each laid out as a block row."""
    sets = [ws for ws, _ in updates]
    shapes = [[(w.shape, b.shape) for w, b in ws] for ws in sets]
    if any(s != shapes[0] for s in shapes):
        raise ProtocolError("aggregate requires shape-identical weight lists")
    block, layers = weight_block(sets)
    block[0] = aggregate_rows(block, [g for _, g in updates])
    return unstack_weights(layers, 0)


class Federation:
    """A run set up for its rounds on the clients' training and test sets,
    set j of each side client j's.  Both sides are checked first: each needs
    a non-empty set for every client, of float64 rows of the model's input
    width and integer labels among its outputs.  Then come the weight
    block, the server, the client groups with their plans and last, for
    more than one group, the pool, which close() ends."""

    def __init__(self, cfg: RunConfig, trains: RowBlock, tests: RowBlock) -> None:
        spec, kb, clients = cfg.spec, cfg.spec.k_base, range(len(trains.sizes))
        if not clients or len(tests.sizes) != len(clients):
            raise ConfigError(
                "a federation needs at least one client, and a test set for each training set; "
                f"got {len(trains.sizes)} training and {len(tests.sizes)} test sets"
            )
        for kind, rows in (("training", trains), ("test", tests)):
            n = sum(rows.sizes)
            if rows.x.shape != (n, spec.in_dim) or rows.y.shape != (n,):
                raise ShapeError(f"{kind} rows {rows.x.shape} and labels {rows.y.shape} are not ({n}, {spec.in_dim}) and ({n},)")
            if rows.x.dtype.type is not np.float64 or not np.issubdtype(rows.y.dtype, np.integer):
                raise ShapeError(f"{kind} rows of {rows.x.dtype} and labels of {rows.y.dtype} are not float64 and integers")
            for j, size in enumerate(rows.sizes):
                if size < 1:
                    raise ConfigError(f"client {j} has an empty {kind} set")
            if not 0 <= rows.y.min() <= rows.y.max() < spec.out_dim:
                raise ShapeError(f"{kind} labels are not all in [0, {spec.out_dim}), the model's outputs")
        # the one copy of the run's weights: row j is the round's broadcast base, drawn from the
        # server's stream, then client j's personal layers, drawn from its own; the server's base
        # views row 0, and client j's aggregation weight is n_j / sum(n)
        base_init = init_weights(spec.base_layers, rngmod.substream(cfg.master_seed, rngmod.SERVER_PARTY, 0, rngmod.INIT))
        personal = [init_weights(spec.personal_layers, _client_stream(cfg, j, 0, rngmod.INIT)) for j in clients]
        self.cfg, self.clients = cfg, clients
        self.block, self.layers = weight_block([base_init + p for p in personal])
        self.base = self.block[:, : nn.columns([(s.out_dim, s.in_dim) for s in spec.base_layers])[-1]]
        total = sum(trains.sizes)
        self.server = ServerState(unstack_weights(self.layers[:kb], 0), [n / total for n in trains.sizes])
        for j in clients:
            self.server.log(client_name(j), SERVER, MSG_TRAIN_SIZE)

        self.groups = _client_groups(trains.sizes, cfg.sgd.batch_size)
        budget = nn.ROW_BUDGET // len(self.groups)  # the groups' launches together hold one launch of rows
        self.sgd_plans, self.fine_tune_plans, self.score_trains, self.score_tests = zip(*(
            _group_plans(cfg, trains.sets(lo, hi), tests.sets(lo, hi), self.block[lo:hi], budget) for lo, hi in self.groups
        ))
        # the main thread draws the streams, checks, aggregates, logs and writes; only the passes run on the pool
        self.pool = None
        if len(self.groups) > 1:
            from concurrent.futures import ThreadPoolExecutor  # a one-group run never imports it
            self.pool = ThreadPoolExecutor(len(self.groups))

    def round(self, round_idx: int) -> RoundRecord:
        """Round round_idx: broadcast the base weights, train all clients
        locally (optionally fine-tuning personal layers first), aggregate
        the base updates in client-id order, and record per-client metrics.

        Metrics are recorded after local training and aggregation, before
        the next broadcast: each client is scored with the round's
        aggregated base plus its own personal weights, the pair the
        personalized risk is defined on.  All clients train together on the
        lock-step engine, which gives every client bitwise the result of
        training it on its own, also when the run trains in client groups on
        threads (_client_groups).  A round that overflows, or leaves a
        client's weights non-finite (typically a learning rate too large for
        the data), raises a SimulationError."""
        cfg, clients, server, pool, groups = self.cfg, self.clients, self.server, self.pool, self.groups
        # an overflow can leave every weight finite but meaningless
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for j in clients:
                    server.log(SERVER, client_name(j), MSG_BASE_WEIGHTS)
                for purpose, plans in ((rngmod.FINE_TUNE, self.fine_tune_plans), (rngmod.SGD, self.sgd_plans)):
                    if plans[0] is not None:
                        rngs = _streams(cfg, clients, round_idx, purpose)
                        _each(pool, [(p.run, rngs[lo:hi], cfg.sgd.eta) for p, (lo, hi) in zip(plans, groups)])
                _check_finite(self.block, round_idx)
                for j in clients:
                    server.log(client_name(j), SERVER, MSG_BASE_WEIGHTS)
                # aggregate and broadcast now: scoring reads row j as the base and client j's layers
                self.base[...] = aggregate_rows(self.base, server.agg_weights)
                # the history records the test sets' accuracy and the training sets' loss
                accuracies = sum(_each(pool, [(p.score, correct) for p in self.score_tests]), [])
                losses = sum(_each(pool, [(p.score, cross_entropy) for p in self.score_trains]), [])
                metrics = tuple(ClientMetrics(j, round_idx, a, loss) for j, a, loss in zip(clients, accuracies, losses))
                return RoundRecord(round_idx, weights_checksum(server.base), metrics)
        except FloatingPointError as exc:
            raise SimulationError(f"round {round_idx}: {exc}; the run diverged (try a smaller sgd.eta)") from exc

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()


def run_federation(
    cfg: RunConfig,
    trains: RowBlock,
    tests: RowBlock,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 0,
) -> FederationResult:
    """The cfg.rounds rounds of a Federation, checkpointed to checkpoint_dir
    every checkpoint_every rounds; a SimulationError stops the run."""
    fed, records = Federation(cfg, trains, tests), []
    try:
        for round_idx in range(1, cfg.rounds + 1):
            records.append(fed.round(round_idx))
            if checkpoint_dir is not None and checkpoint_every > 0 and round_idx % checkpoint_every == 0:
                write_checkpoint(Path(checkpoint_dir), f"round{round_idx:04d}", fed.layers, cfg.spec.k_base)
    finally:
        fed.close()
    return FederationResult(RoundHistory(tuple(records)), fed.server, fed.layers)


def _usable_cores() -> int:
    """The cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _client_groups(sizes: Sequence[int], batch_size: int) -> list[tuple[int, int]]:
    """The run's clients as contiguous ranges (lo, hi) of about equal training
    rows, client j in the range its rows' midpoint falls in: one range
    unless a lock-step step, one batch of every client, holds more than
    ROW_BUDGET rows, and otherwise at most one per usable core."""
    count = 1
    if sum(min(batch_size, n) for n in sizes) > nn.ROW_BUDGET:
        count = min(_usable_cores(), len(sizes))
    midpoints = np.cumsum(sizes) - np.divide(sizes, 2)
    starts = np.flatnonzero(np.diff(midpoints * count // sum(sizes), prepend=-1)).tolist()
    return list(zip(starts, starts[1:] + [len(sizes)]))


def _group_plans(cfg: RunConfig, trains: RowBlock, tests: RowBlock, block: np.ndarray, budget: int) -> tuple:
    """The SGD, the fine-tune (None without fine-tuning) and each side's
    scoring plan of the clients whose sets and weight rows these are, all in
    the SGD plan's workspace where their launches fit."""
    spec, batch_size, frozen = cfg.spec, cfg.sgd.batch_size, len(cfg.spec.layers)
    # training and the scoring of the training sets read one block of rows
    sgd_plan = LockstepPlan(spec, trains, block, cfg.sgd.epochs, batch_size, budget=budget)
    fine_tune_plan = None
    if cfg.fine_tune and spec.k_personal >= 1:  # one epoch on the personal layers, base frozen
        fine_tune_plan = LockstepPlan(spec, trains, block, 1, batch_size, spec.k_base, sgd_plan.workspace, budget)
    # scoring is a one-epoch pass whose batch is the whole set, every layer frozen
    score_trains = LockstepPlan(spec, trains, block, 1, max(trains.sizes), frozen, sgd_plan.workspace, budget)
    score_tests = LockstepPlan(spec, tests, block, 1, max(tests.sizes), frozen, score_trains.workspace, budget)
    return sgd_plan, fine_tune_plan, score_trains, score_tests


def _each(pool, calls: Sequence[tuple]) -> list:
    """The result of every call, a function and its arguments, in order:
    on the pool's threads if there is a pool, each in a copy of this
    thread's context, so that its np.errstate holds there too."""
    if pool is None:
        return [f(*args) for f, *args in calls]
    futures = [pool.submit(contextvars.copy_context().run, *call) for call in calls]
    return [future.result() for future in futures]


def _check_finite(block: np.ndarray, round_idx: int) -> None:
    """Raise SimulationError naming the first client whose row of the weight
    block holds a NaN or an infinity."""
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise SimulationError(
            f"client {int(np.argmin(finite))} has non-finite weights after round {round_idx}; "
            "the run diverged (try a smaller sgd.eta)"
        )


def write_checkpoint(directory: Path, tag: str, layers: Layers, k_base: int) -> None:
    """From a weight block's layer stacks, in the checkpoint format: the
    server base, row 0 of the first k_base, and every client's personal
    layers, the rest, as one stacked file (clients in client-id order)."""
    save_weights(directory / f"{tag}_server_base", unstack_weights(layers[:k_base], 0), split_index=k_base)
    save_weights(directory / f"{tag}_personal", layers[k_base:], 0, len(layers[0][0]))
