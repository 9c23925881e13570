"""Federation protocol: client and server state machines, the round loop,
sample-weighted aggregation, and the optional personal-layer fine-tuning pass.

Every round trains all clients together on the lock-step engine
(fedper.nn.train_lockstep), with their weights stacked row by row.

Communication is in-process.  Every exchange is appended to the server's
message log as (sender, receiver, payload kind), which makes the privacy
contract checkable: personalization weights must never appear on the wire,
so no log entry may carry the personal-weights kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from . import rng as rngmod
from .errors import ConfigError, ProtocolError, UsageError
from .checkpoint import save_weights
from .data import LabeledDataset, PartitionSpec
from .metrics import ClientMetrics, evaluate
from .model import ModelSpec
from .nn import (
    Sample,
    SgdConfig,
    WeightSet,
    init_weights,
    model_inputs,
    sgd,
    stack_weights,
    train_lockstep,
    unstack_weights,
    weights_checksum,
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
    """One simulated device: its data, its private personalization weights,
    and its handle on the seed hierarchy."""

    client_id: int
    train: LabeledDataset
    test: LabeledDataset
    personal: WeightSet
    sgd: SgdConfig
    stream: rngmod.PartyStream

    def __post_init__(self) -> None:
        if len(self.train) < 1:
            raise ConfigError(f"client {self.client_id} has an empty training set")

    @property
    def n_train(self) -> int:
        return len(self.train)


@dataclass
class ServerState:
    """Global base weights, the per-client aggregation weights, and the log
    of every message exchanged."""

    base: WeightSet
    agg_weights: list[float]
    message_log: list[Message] = field(default_factory=list)

    def log(self, sender: str, receiver: str, kind: str) -> None:
        self.message_log.append(Message(sender, receiver, kind))

    def personal_payload_count(self) -> int:
        return sum(1 for m in self.message_log if m.kind == MSG_PERSONAL_WEIGHTS)


@dataclass(frozen=True)
class RunConfig:
    spec: ModelSpec
    num_clients: int
    rounds: int
    sgd: SgdConfig
    fine_tune: bool
    master_seed: int
    partition: PartitionSpec

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ConfigError(f"num_clients must be >= 1, got {self.num_clients}")
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
    clients: list[ClientState]


def server_init(cfg: RunConfig, client_sizes: Sequence[int]) -> ServerState:
    """Initialize global base weights from the server's stream and compute the
    aggregation weights n_j / sum(n) once, up front."""
    if len(client_sizes) != cfg.num_clients:
        raise ConfigError(f"got {len(client_sizes)} client sizes for {cfg.num_clients} clients")
    for j, n in enumerate(client_sizes):
        if n < 1:
            raise ConfigError(f"client {j} reports {n} training samples; every client needs >= 1")
    total = sum(client_sizes)
    agg_weights = [n / total for n in client_sizes]
    server_stream = rngmod.PartyStream(cfg.master_seed, rngmod.SERVER_PARTY)
    base = init_weights(cfg.spec.base_layers, server_stream.rng(0, rngmod.INIT))
    state = ServerState(base=base, agg_weights=agg_weights)
    for j in range(cfg.num_clients):
        state.log(client_name(j), SERVER, MSG_TRAIN_SIZE)
    return state


def make_client(
    cfg: RunConfig,
    client_id: int,
    train: LabeledDataset | Sequence[Sample],
    test: LabeledDataset | Sequence[Sample],
) -> ClientState:
    """Build a client with personalization weights drawn from its own stream."""
    stream = rngmod.PartyStream(cfg.master_seed, rngmod.client_party(client_id))
    personal = init_weights(cfg.spec.personal_layers, stream.rng(0, rngmod.INIT))
    out_dim = cfg.spec.out_dim
    return ClientState(
        client_id=client_id,
        train=LabeledDataset(*model_inputs(cfg.spec, train), out_dim),
        test=LabeledDataset(*model_inputs(cfg.spec, test), out_dim),
        personal=personal,
        sgd=cfg.sgd,
        stream=stream,
    )


def _check_base(client: ClientState, spec: ModelSpec, base_in: WeightSet) -> None:
    if len(base_in) != spec.k_base:
        raise ProtocolError(
            f"client {client.client_id}: received {len(base_in)} base layers, expected {spec.k_base}"
        )


def client_round(
    client: ClientState, spec: ModelSpec, base_in: WeightSet, round_idx: int
) -> tuple[WeightSet, ClientState]:
    """One local training pass: SGD jointly updates the received base weights
    and the client's personal weights.  Only the updated base is returned for
    the wire; the personal update stays in the returned client state."""
    _check_base(client, spec, base_in)
    gen = client.stream.rng(round_idx, rngmod.SGD)
    base_out, personal_out = sgd(spec, base_in, client.personal, client.train, client.sgd, gen)
    return base_out, replace(client, personal=personal_out)


def _fine_tune_pass(
    spec: ModelSpec, layers: list, clients: Sequence[ClientState], round_idx: int
) -> None:
    """One epoch of SGD on the personal layers of every client, base frozen;
    client j's weights are row j of the layer stacks, updated in place."""
    cfg = clients[0].sgd
    train_lockstep(
        spec,
        layers,
        [(c.train.X, c.train.y) for c in clients],
        [c.stream.rng(round_idx, rngmod.FINE_TUNE) for c in clients],
        epochs=1,
        batch_size=cfg.batch_size,
        eta=cfg.eta,
        first_trained=spec.k_base,
    )


def fine_tune(
    client: ClientState, spec: ModelSpec, base_in: WeightSet, round_idx: int
) -> ClientState:
    """One epoch of SGD on the personal layers only, base frozen in place.

    The base layers take part in the forward pass but are never updated, so
    base_in is returned to the caller untouched.
    """
    if spec.k_personal < 1:
        raise UsageError("fine_tune requires at least one personalization layer")
    _check_base(client, spec, base_in)
    layers = stack_weights([WeightSet(base_in.layers + client.personal.layers)])
    _fine_tune_pass(spec, layers, [client], round_idx)
    return replace(client, personal=unstack_weights(layers[spec.k_base :], 0))


def aggregate(updates: Sequence[tuple[WeightSet, float]]) -> WeightSet:
    """Convex combination of the clients' base updates, accumulated in the
    given (ascending client id) order.

    Computed as w0 + sum_j g_j * (w_j - w0): algebraically the same weighted
    mean, but exactly a fixed point when every update is identical, and a
    fixed floating-point order keeps it bitwise deterministic.
    """
    if len(updates) == 0:
        raise ProtocolError("aggregate needs at least one update")
    gamma_sum = sum(g for _, g in updates)
    if abs(gamma_sum - 1.0) > 1e-12:
        raise ConfigError(f"aggregation weights sum to {gamma_sum!r}, expected 1 within 1e-12")
    for _, g in updates:
        if g <= 0:
            raise ConfigError(f"aggregation weights must be positive, got {g}")
    first, _ = updates[0]
    shapes = [(w.shape, b.shape) for w, b in first.layers]
    for ws, _ in updates[1:]:
        if [(w.shape, b.shape) for w, b in ws.layers] != shapes:
            raise ProtocolError("aggregate requires shape-identical weight sets")

    out = first.copy()
    for ws, g in updates[1:]:
        for (ow, ob), (w, b), (fw, fb) in zip(out.layers, ws.layers, first.layers):
            ow += g * (w - fw)
            ob += g * (b - fb)
    return out


def run_federation(
    cfg: RunConfig,
    client_data: Sequence[tuple[LabeledDataset | Sequence[Sample], LabeledDataset | Sequence[Sample]]],
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 0,
) -> FederationResult:
    """Run the full protocol: per round, broadcast the base weights, train all
    clients locally (optionally fine-tuning personal layers first), aggregate
    the base updates in client-id order, and record per-client metrics.

    Metrics are recorded after local training and aggregation, before the
    next broadcast: each client is scored with the round's aggregated base
    plus its own personal weights, the pair the personalized risk is defined
    on.  All clients train together on the lock-step engine, which gives
    every client bitwise the result of training it on its own.
    """
    if len(client_data) != cfg.num_clients:
        raise ConfigError(f"got {len(client_data)} client datasets for {cfg.num_clients} clients")
    spec = cfg.spec
    clients = [make_client(cfg, j, train, test) for j, (train, test) in enumerate(client_data)]
    for c in clients:
        if len(c.test) < 1:
            raise ConfigError(f"client {c.client_id} has an empty test set")
    server = server_init(cfg, [c.n_train for c in clients])
    train_sets = [(c.train.X, c.train.y) for c in clients]
    personal = stack_weights([c.personal for c in clients])
    kb = spec.k_base

    records = []
    for round_idx in range(1, cfg.rounds + 1):
        for j in range(cfg.num_clients):
            server.log(SERVER, client_name(j), MSG_BASE_WEIGHTS)
        # row j of every stack is client j's copy: the broadcast base, then
        # its own personal layers (updated in place across rounds)
        layers = stack_weights([server.base] * cfg.num_clients) + personal
        if cfg.fine_tune and spec.k_personal >= 1:
            _fine_tune_pass(spec, layers, clients, round_idx)
        train_lockstep(
            spec,
            layers,
            train_sets,
            [c.stream.rng(round_idx, rngmod.SGD) for c in clients],
            cfg.sgd.epochs,
            cfg.sgd.batch_size,
            cfg.sgd.eta,
        )

        for j in range(cfg.num_clients):
            server.log(client_name(j), SERVER, MSG_BASE_WEIGHTS)
        server.base = aggregate(
            [(unstack_weights(layers[:kb], j), g) for j, g in enumerate(server.agg_weights)]
        )
        clients = [replace(c, personal=unstack_weights(personal, c.client_id)) for c in clients]
        round_metrics = tuple(
            ClientMetrics(
                c.client_id,
                round_idx,
                evaluate(spec, server.base, c.personal, c.test).accuracy,
                evaluate(spec, server.base, c.personal, c.train).loss,
            )
            for c in clients
        )
        records.append(RoundRecord(round_idx, weights_checksum(server.base), round_metrics))

        if checkpoint_dir is not None and checkpoint_every > 0 and round_idx % checkpoint_every == 0:
            write_checkpoint(Path(checkpoint_dir), f"round{round_idx:04d}", server, clients)

    return FederationResult(RoundHistory(tuple(records)), server, clients)


def write_checkpoint(
    directory: Path, tag: str, server: ServerState, clients: Sequence[ClientState]
) -> None:
    """Server base plus every client's personal set, in the checkpoint format."""
    save_weights(directory / f"{tag}_server_base", server.base, split_index=len(server.base))
    for c in clients:
        save_weights(directory / f"{tag}_client{c.client_id}_personal", c.personal, split_index=0)
