"""Deterministic single-process simulator of federated averaging with
client-local personalization layers."""

from .config import resolve_sweep, sweep_seed
from .data import (
    LabeledDataset,
    PartitionSpec,
    load_csv,
    partition,
    synth_classification,
    synth_shells,
    train_test_split,
)
from .errors import (
    ConfigError,
    ParseError,
    ProtocolError,
    ShapeError,
    SimulationError,
    UsageError,
)
from .experiment import run_experiment, run_sweep
from .metrics import ClientMetrics, cross_client_stats, emit, evaluate
from .model import ModelSpec, linearize_base
from .nn import (
    Layers,
    LayerSpec,
    SgdConfig,
    init_weights,
    loss_and_grad,
    sgd,
    weights_checksum,
    weights_equal,
)
from .protocol import (
    ClientState,
    FederationResult,
    RoundHistory,
    RunConfig,
    ServerState,
    aggregate,
    client_round,
    fine_tune,
    run_federation,
)

__version__ = "0.1.0"
