"""Run configuration files: JSON schema, validation, overrides, and the
mapping onto domain objects.  Unknown keys are rejected everywhere."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import rng as rngmod
from .data import (
    K_CLASS,
    PARTITION_MODES,
    LabeledDataset,
    PartitionSpec,
    load_csv,
    synth_classification,
    synth_shells,
)
from .errors import ConfigError, ParseError
from .model import LayerSpec, ModelSpec
from .nn import SgdConfig
from .protocol import RunConfig

ALGORITHMS = ("fedper", "fedavg")
ABLATIONS = ("none", "linear_base")
DATASET_KINDS = ("gaussian_mixture", "shells", "csv")
CLUSTER_PERMUTATIONS = ("identity", "cycle", "swap")

_DEFAULTS: dict[str, Any] = {
    "algorithm": "fedper",
    "ablation": "none",
    "fine_tune": False,
    "rounds": 50,
    "master_seed": 20260101,
    "model": {
        "layers": [
            {"in_dim": 8, "out_dim": 16, "activation": "relu"},
            {"in_dim": 16, "out_dim": 16, "activation": "relu"},
            {"in_dim": 16, "out_dim": 4, "activation": "identity"},
        ],
        "k_personal": 1,
    },
    "sgd": {"eta": 0.01, "epochs": 4, "batch_size": 16},
    "dataset": {
        "kind": "gaussian_mixture",
        "num_classes": 4,
        "dim": 8,
        "per_class": 200,
        "sigma": 0.5,
        "clusters": 2,
        "cluster_permutation": "cycle",
        "cluster_shift": 1,
        "radius_step": 1.0,
        "noise": 0.1,
        "path": None,
        "seed": None,
    },
    "partition": {
        "mode": "k_class",
        "num_clients": 10,
        "k": 2,
        "volume_range": [60, 290],
        "train_fraction": 0.8,
        "rater_disagreement": False,
        "seed": None,
    },
    "output": {"dir": None, "run_id": "run", "format": "csv", "checkpoint_every": 0},
}


def default_config() -> dict:
    return json.loads(json.dumps(_DEFAULTS))


def _merge(defaults: dict, given: dict, path: str = "") -> dict:
    out = {}
    for key, default_value in defaults.items():
        if key in given and isinstance(default_value, dict) and default_value:
            value = given[key]
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path}{key} must be an object")
            out[key] = _merge(default_value, value, f"{path}{key}.")
        elif key in given:
            out[key] = given[key]
        else:
            out[key] = default_value
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(path + k for k in unknown))}")
    return out


def load_config_file(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    return _merge(_DEFAULTS, raw)


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply `--set dotted.key=value` overrides; values parse as JSON when
    possible, otherwise as plain strings."""
    cfg = json.loads(json.dumps(cfg))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = cfg
        parts = dotted.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"unknown config key: {dotted}")
            node = node[part]
        if not isinstance(node, dict) or parts[-1] not in node:
            raise ConfigError(f"unknown config key: {dotted}")
        node[parts[-1]] = value
    return cfg


@dataclass
class ResolvedConfig:
    """A validated, fully-resolved configuration (all derived seeds filled in)."""

    algorithm: str
    ablation: str
    fine_tune: bool
    rounds: int
    master_seed: int
    spec: ModelSpec
    sgd: SgdConfig
    dataset: dict
    partition: PartitionSpec
    output: dict
    effective: dict = field(repr=False, default_factory=dict)

    def run_config(self) -> RunConfig:
        return RunConfig(
            spec=self.spec,
            num_clients=self.partition.num_clients,
            rounds=self.rounds,
            sgd=self.sgd,
            fine_tune=self.fine_tune,
            master_seed=self.master_seed,
            partition=self.partition,
        )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _int(value: Any, name: str, minimum: int) -> int:
    """value itself if it is an integer >= minimum; JSON booleans are not integers."""
    _require(
        isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
        f"{name} must be an int >= {minimum}, got {value!r}",
    )
    return value


def resolve(cfg: dict) -> ResolvedConfig:
    """Validate the merged config dict and build the domain objects.

    algorithm=fedavg forces k_personal to 0.  dataset.seed and partition.seed
    default to values derived from master_seed so one seed governs the run.
    """
    cfg = json.loads(json.dumps(cfg))
    _require(cfg["algorithm"] in ALGORITHMS, f"algorithm must be one of {ALGORITHMS}")
    _require(cfg["ablation"] in ABLATIONS, f"ablation must be one of {ABLATIONS}")
    _require(isinstance(cfg["fine_tune"], bool), "fine_tune must be a boolean")
    _int(cfg["rounds"], "rounds", 1)
    _int(cfg["master_seed"], "master_seed", 0)

    model_cfg = cfg["model"]
    if cfg["algorithm"] == "fedavg":
        model_cfg["k_personal"] = 0
    spec = ModelSpec.from_json(model_cfg)

    sgd_cfg = cfg["sgd"]
    eta = sgd_cfg["eta"]
    _require(isinstance(eta, (int, float)) and not isinstance(eta, bool), f"sgd.eta must be a number, got {eta!r}")
    sgd = SgdConfig(
        float(eta), _int(sgd_cfg["epochs"], "sgd.epochs", 1), _int(sgd_cfg["batch_size"], "sgd.batch_size", 1)
    )

    ds_cfg = cfg["dataset"]
    _require(ds_cfg["kind"] in DATASET_KINDS, f"dataset.kind must be one of {DATASET_KINDS}")
    if ds_cfg["kind"] == "csv":
        _require(bool(ds_cfg["path"]), "dataset.path is required for kind=csv")
    else:
        _require(
            ds_cfg["cluster_permutation"] in CLUSTER_PERMUTATIONS,
            f"dataset.cluster_permutation must be one of {CLUSTER_PERMUTATIONS}",
        )
        _require(int(ds_cfg["clusters"]) >= 1, "dataset.clusters must be >= 1")
    if ds_cfg["seed"] is None:
        ds_cfg["seed"] = rngmod.derive_seed(cfg["master_seed"], rngmod.DATASET)

    part_cfg = cfg["partition"]
    _require(part_cfg["mode"] in PARTITION_MODES, f"partition.mode must be one of {PARTITION_MODES}")
    if part_cfg["seed"] is None:
        part_cfg["seed"] = rngmod.derive_seed(cfg["master_seed"], rngmod.PARTITION)
    vr = part_cfg["volume_range"]
    _require(
        isinstance(vr, list) and len(vr) == 2 and all(isinstance(v, int) and not isinstance(v, bool) for v in vr),
        "partition.volume_range must be [min, max]",
    )
    partition_spec = PartitionSpec(
        mode=part_cfg["mode"],
        num_clients=_int(part_cfg["num_clients"], "partition.num_clients", 1),
        k=_int(part_cfg["k"], "partition.k", 1),
        volume_range=(vr[0], vr[1]),
        train_fraction=float(part_cfg["train_fraction"]),
        seed=int(part_cfg["seed"]),
        rater_disagreement=bool(part_cfg["rater_disagreement"]),
    )

    out_cfg = cfg["output"]
    _require(out_cfg["format"] in ("csv", "json"), "output.format must be csv or json")
    _require(
        isinstance(out_cfg["checkpoint_every"], int) and out_cfg["checkpoint_every"] >= 0,
        "output.checkpoint_every must be an int >= 0",
    )
    _require(
        isinstance(out_cfg["run_id"], str) and out_cfg["run_id"] != "",
        "output.run_id must be a non-empty string",
    )

    if ds_cfg["kind"] != "csv":
        _require(
            spec.in_dim == int(ds_cfg["dim"]),
            f"model input dim {spec.in_dim} != dataset.dim {ds_cfg['dim']}",
        )
        _require(
            spec.out_dim == int(ds_cfg["num_classes"]),
            f"model output dim {spec.out_dim} != dataset.num_classes {ds_cfg['num_classes']}",
        )

    return ResolvedConfig(
        algorithm=cfg["algorithm"],
        ablation=cfg["ablation"],
        fine_tune=bool(cfg["fine_tune"]),
        rounds=cfg["rounds"],
        master_seed=cfg["master_seed"],
        spec=spec,
        sgd=sgd,
        dataset=ds_cfg,
        partition=partition_spec,
        output=out_cfg,
        effective=cfg,
    )


def cluster_permutations(kind: str, clusters: int, num_classes: int, shift: int = 1) -> list[list[int]]:
    """Named families of per-cluster label bijections.

    identity: every cluster labels alike.  cycle: cluster g shifts labels by
    +g*shift.  swap: odd clusters swap adjacent label pairs (0<->1, 2<->3...).
    """
    identity = list(range(num_classes))
    perms = []
    for g in range(clusters):
        if kind == "identity" or g == 0:
            perms.append(identity.copy())
        elif kind == "cycle":
            perms.append([(c + g * shift) % num_classes for c in range(num_classes)])
        else:  # swap
            swapped = identity.copy()
            for c in range(0, num_classes - 1, 2):
                swapped[c], swapped[c + 1] = swapped[c + 1], swapped[c]
            perms.append(swapped if g % 2 == 1 else identity.copy())
    return perms


def build_dataset(ds_cfg: dict) -> LabeledDataset:
    if ds_cfg["kind"] == "csv":
        return load_csv(ds_cfg["path"])
    if ds_cfg["kind"] == "shells":
        return synth_shells(
            num_classes=int(ds_cfg["num_classes"]),
            dim=int(ds_cfg["dim"]),
            per_class=int(ds_cfg["per_class"]),
            seed=int(ds_cfg["seed"]),
            radius_step=float(ds_cfg["radius_step"]),
            noise=float(ds_cfg["noise"]),
        )
    perms = cluster_permutations(
        ds_cfg["cluster_permutation"],
        int(ds_cfg["clusters"]),
        int(ds_cfg["num_classes"]),
        int(ds_cfg["cluster_shift"]),
    )
    return synth_classification(
        num_classes=int(ds_cfg["num_classes"]),
        dim=int(ds_cfg["dim"]),
        per_class=int(ds_cfg["per_class"]),
        label_permutations=perms,
        seed=int(ds_cfg["seed"]),
        sigma=float(ds_cfg["sigma"]),
    )


def echo_config(resolved: ResolvedConfig, path: Path) -> None:
    """Write the effective config; re-running from this file reproduces the
    run bitwise (all derived seeds are materialized)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(resolved.effective, sort_keys=True, indent=2) + "\n")
