"""Run configuration files: JSON schema, validation, overrides, and the
mapping onto domain objects.  Unknown keys are rejected everywhere."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import rng as rngmod
from .data import (
    PARTITION_MODES,
    LabeledDataset,
    PartitionSpec,
    load_csv,
    synth_classification,
    synth_shells,
)
from .checkpoint import atomic_write
from .errors import ConfigError, ParseError
from .experiment import ALGORITHMS, algorithm_k_personal
from .model import ModelSpec, linearize_base
from .nn import SgdConfig
from .protocol import RunConfig

ABLATIONS = ("none", "linear_base")
LAYER_KEYS = ("activation", "in_dim", "out_dim")
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
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past Python's digit limit
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
        except ValueError:  # as for load_config_file
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
    """A validated config: the run to execute (algorithm and ablation applied
    to its model), the dataset and output sections, and the effective config
    with every derived seed filled in."""

    run: RunConfig
    dataset: dict
    output: dict
    effective: dict


# The longest file names derived from output.run_id are sweep results,
# {run_id}_{axis}_{value}.json (22 bytes past the run_id for
# _algorithm_fedper.json), each first written as {name}.{pid}.tmp (at most
# 12 more); 200 bytes keep every one within the usual 255-byte name limit.
RUN_ID_MAX_BYTES = 200


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


def _num(value: Any, name: str) -> float:
    """value as a float if it is a finite JSON number; JSON booleans are not
    numbers, and an integer too large for a float is not finite."""
    try:
        number = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    except OverflowError:
        number = math.inf
    _require(math.isfinite(number), f"{name} must be a finite number, got {value!r}")
    return number


def _text(value: Any, name: str) -> str:
    """value itself if it is a non-empty string."""
    _require(isinstance(value, str) and value != "", f"{name} must be a non-empty string, got {value!r}")
    return value


def resolve(cfg: dict) -> ResolvedConfig:
    """Validate the merged config dict and build the domain objects.

    algorithm=fedavg forces k_personal to 0, and ablation=linear_base collapses
    the base layers of the run's model (the echoed config keeps the layers as
    given).  dataset.seed and partition.seed default to values derived from
    master_seed so one seed governs the run.
    """
    cfg = json.loads(json.dumps(cfg))
    _require(cfg["algorithm"] in ALGORITHMS, f"algorithm must be one of {ALGORITHMS}")
    _require(cfg["ablation"] in ABLATIONS, f"ablation must be one of {ABLATIONS}")
    _require(isinstance(cfg["fine_tune"], bool), "fine_tune must be a boolean")
    _int(cfg["rounds"], "rounds", 1)
    _int(cfg["master_seed"], "master_seed", 0)

    model_cfg = cfg["model"]
    layers = model_cfg["layers"]
    _require(isinstance(layers, list), "model.layers must be a list of layer objects")
    for i, layer in enumerate(layers):
        _require(
            isinstance(layer, dict) and sorted(layer) == list(LAYER_KEYS),
            f"model.layers[{i}] must have exactly the keys {', '.join(LAYER_KEYS)}",
        )
        for key in ("in_dim", "out_dim"):
            _int(layer[key], f"model.layers[{i}].{key}", 1)
    k_personal = _int(model_cfg["k_personal"], "model.k_personal", 0)
    model_cfg["k_personal"] = algorithm_k_personal(cfg["algorithm"], k_personal)
    spec = ModelSpec.from_json(model_cfg)

    sgd_cfg = cfg["sgd"]
    sgd = SgdConfig(
        _num(sgd_cfg["eta"], "sgd.eta"),
        _int(sgd_cfg["epochs"], "sgd.epochs", 1),
        _int(sgd_cfg["batch_size"], "sgd.batch_size", 1),
    )

    ds_cfg = cfg["dataset"]
    _require(ds_cfg["kind"] in DATASET_KINDS, f"dataset.kind must be one of {DATASET_KINDS}")
    if ds_cfg["kind"] == "csv":
        _text(ds_cfg["path"], "dataset.path (required for kind=csv)")
    else:
        _require(
            ds_cfg["cluster_permutation"] in CLUSTER_PERMUTATIONS,
            f"dataset.cluster_permutation must be one of {CLUSTER_PERMUTATIONS}",
        )
        for key in ("num_classes", "dim", "per_class", "clusters", "cluster_shift"):
            _int(ds_cfg[key], f"dataset.{key}", 0 if key == "cluster_shift" else 1)
        for key in ("sigma", "radius_step", "noise"):
            _num(ds_cfg[key], f"dataset.{key}")
    if ds_cfg["seed"] is None:
        ds_cfg["seed"] = rngmod.derive_seed(cfg["master_seed"], rngmod.DATASET)
    _int(ds_cfg["seed"], "dataset.seed", 0)

    part_cfg = cfg["partition"]
    _require(part_cfg["mode"] in PARTITION_MODES, f"partition.mode must be one of {PARTITION_MODES}")
    if part_cfg["seed"] is None:
        part_cfg["seed"] = rngmod.derive_seed(cfg["master_seed"], rngmod.PARTITION)
    rater = part_cfg["rater_disagreement"]
    _require(isinstance(rater, bool), f"partition.rater_disagreement must be a boolean, got {rater!r}")
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
        train_fraction=_num(part_cfg["train_fraction"], "partition.train_fraction"),
        seed=_int(part_cfg["seed"], "partition.seed", 0),
        rater_disagreement=rater,
    )

    out_cfg = cfg["output"]
    _require(out_cfg["format"] in ("csv", "json"), "output.format must be csv or json")
    _int(out_cfg["checkpoint_every"], "output.checkpoint_every", 0)
    # run_id names files inside the output directory, so it must not leave it
    run_id = _text(out_cfg["run_id"], "output.run_id")
    _require(
        run_id not in (".", "..") and "/" not in run_id and "\\" not in run_id,
        f"output.run_id must be a plain file name (no / or \\, not . or ..), got {run_id!r}",
    )
    try:
        run_id_bytes = len(os.fsencode(run_id))
    except UnicodeEncodeError:
        raise ConfigError(f"output.run_id must be encodable as a file name, got {run_id!r}") from None
    _require(
        run_id_bytes <= RUN_ID_MAX_BYTES,
        f"output.run_id must be at most {RUN_ID_MAX_BYTES} bytes in UTF-8, got {run_id_bytes}",
    )
    if out_cfg["dir"] is not None:
        _text(out_cfg["dir"], "output.dir")

    if ds_cfg["kind"] != "csv":
        _require(
            spec.in_dim == ds_cfg["dim"],
            f"model input dim {spec.in_dim} != dataset.dim {ds_cfg['dim']}",
        )
        _require(
            spec.out_dim == ds_cfg["num_classes"],
            f"model output dim {spec.out_dim} != dataset.num_classes {ds_cfg['num_classes']}",
        )

    if cfg["ablation"] == "linear_base":
        spec = linearize_base(spec)
    run = RunConfig(spec, cfg["rounds"], sgd, cfg["fine_tune"], cfg["master_seed"], partition_spec)
    return ResolvedConfig(run, ds_cfg, out_cfg, cfg)


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
    """The dataset of a dataset section that resolve has checked."""
    if ds_cfg["kind"] == "csv":
        return load_csv(ds_cfg["path"])
    sizes = {key: ds_cfg[key] for key in ("num_classes", "dim", "per_class", "seed")}
    if ds_cfg["kind"] == "shells":
        return synth_shells(**sizes, radius_step=float(ds_cfg["radius_step"]), noise=float(ds_cfg["noise"]))
    perms = cluster_permutations(
        ds_cfg["cluster_permutation"], ds_cfg["clusters"], ds_cfg["num_classes"], ds_cfg["cluster_shift"]
    )
    return synth_classification(**sizes, label_permutations=perms, sigma=float(ds_cfg["sigma"]))


def echo_config(resolved: ResolvedConfig, path: Path) -> None:
    """Write the effective config; re-running from this file reproduces the
    run bitwise (all derived seeds are materialized)."""
    atomic_write(path, json.dumps(resolved.effective, sort_keys=True, indent=2) + "\n")
