"""Run configuration files: one schema of every key's default and kind,
overrides, validation, and the mapping onto domain objects.  Only the
schema's keys can be set; anything else is rejected.  A sweep point is the
run config with one key set, resolved as any run."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from . import rng as rngmod
from .data import K_CLASS, PARTITION_MODES, LabeledDataset, PartitionSpec, load_csv
from .data import synth_classification, synth_shells
from .errors import ConfigError, UsageError
from .experiment import check_fits
from .model import ModelSpec, linearize_base
from .nn import SgdConfig
from .protocol import RunConfig

ALGORITHMS = ("fedper", "fedavg")
ABLATIONS = ("none", "linear_base")
LAYER_KEYS = ("activation", "in_dim", "out_dim")
DATASET_KINDS = ("gaussian_mixture", "shells", "csv")
CLUSTER_PERMUTATIONS = ("identity", "cycle", "swap")


# A kind is the set of values a key takes: (its name in error messages, a
# test of one value).
Kind = tuple[str, Callable[[Any], bool]]


def _is_int(value: Any) -> bool:
    """JSON booleans are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    """JSON booleans are not numbers, and an integer too large for a float is
    not finite."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def _is_layer(layer: Any) -> bool:
    return (
        isinstance(layer, dict)
        and sorted(layer) == list(LAYER_KEYS)
        and all(_is_int(layer[key]) and layer[key] >= 1 for key in ("in_dim", "out_dim"))
    )


def int_at_least(minimum: int) -> Kind:
    return f"an int >= {minimum}", lambda value: _is_int(value) and value >= minimum


def one_of(*values: str) -> Kind:
    return f"one of {values}", lambda value: value in values


NUMBER = ("a finite number", _is_finite)
FRACTION = ("a number in (0, 1) (at 1 no client has a test set)", lambda value: _is_finite(value) and 0 < value < 1)
BOOL = ("a boolean", lambda value: isinstance(value, bool))
TEXT = (
    "null or a non-empty string without NUL",
    lambda value: value is None or (isinstance(value, str) and value != "" and "\0" not in value),
)
SEED = ("null or an int >= 0", lambda value: value is None or (_is_int(value) and value >= 0))
# run_id names files inside the output directory, so it must not leave it
FILE_NAME = (
    "a plain file name (no /, \\ or NUL, not . or ..)",
    lambda value: isinstance(value, str) and value not in ("", ".", "..") and not {"/", "\\", "\0"} & set(value),
)
INT_PAIR = (
    "[min, max], two ints", lambda value: isinstance(value, list) and len(value) == 2 and all(map(_is_int, value))
)
LAYERS = (
    f"a list of layer objects, each with exactly the keys {', '.join(LAYER_KEYS)} and int dims >= 1",
    lambda value: isinstance(value, list) and all(map(_is_layer, value)),
)

# Every key of a run config, dotted as "section.key", with its default and
# its kind.  A section is a group of keys, not a key itself.
SCHEMA: dict[str, tuple[Any, Kind]] = {
    "algorithm": ("fedper", one_of(*ALGORITHMS)),
    "ablation": ("none", one_of(*ABLATIONS)),
    "fine_tune": (False, BOOL),
    "rounds": (50, int_at_least(1)),
    "master_seed": (20260101, int_at_least(0)),
    "model.layers": (
        [
            {"in_dim": 8, "out_dim": 16, "activation": "relu"},
            {"in_dim": 16, "out_dim": 16, "activation": "relu"},
            {"in_dim": 16, "out_dim": 4, "activation": "identity"},
        ],
        LAYERS,
    ),
    "model.k_personal": (1, int_at_least(0)),
    "sgd.eta": (0.01, NUMBER),
    "sgd.epochs": (4, int_at_least(1)),
    "sgd.batch_size": (16, int_at_least(1)),
    "dataset.kind": ("gaussian_mixture", one_of(*DATASET_KINDS)),
    "dataset.num_classes": (4, int_at_least(1)),
    "dataset.dim": (8, int_at_least(1)),
    "dataset.per_class": (200, int_at_least(1)),
    "dataset.sigma": (0.5, NUMBER),
    "dataset.clusters": (2, int_at_least(1)),
    "dataset.cluster_permutation": ("cycle", one_of(*CLUSTER_PERMUTATIONS)),
    "dataset.cluster_shift": (1, int_at_least(0)),
    "dataset.radius_step": (1.0, NUMBER),
    "dataset.noise": (0.1, NUMBER),
    "dataset.path": (None, TEXT),
    "dataset.seed": (None, SEED),
    "partition.mode": ("k_class", one_of(*PARTITION_MODES)),
    "partition.num_clients": (10, int_at_least(1)),
    "partition.k": (2, int_at_least(1)),
    "partition.volume_range": ([60, 290], INT_PAIR),
    "partition.train_fraction": (0.8, FRACTION),
    "partition.rater_disagreement": (False, BOOL),
    "partition.seed": (None, SEED),
    "output.dir": (None, TEXT),
    "output.run_id": ("run", FILE_NAME),
    "output.format": ("csv", one_of("csv", "json")),
    "output.checkpoint_every": (0, int_at_least(0)),
}
SECTIONS = {key.split(".")[0] for key in SCHEMA if "." in key}


def _set(cfg: dict, parts: list[str], value: Any) -> None:
    """Set the key whose dotted name is split into parts.  Any other name,
    a section's included, is rejected: a section is only changed key by key."""
    key = ".".join(parts)
    if key not in SCHEMA or key.split(".") != parts:
        hint = f" (a section; set its keys, as {key}.<key>)" if key in SECTIONS else ""
        raise ConfigError(f"unknown config key: {key}{hint}")
    node = cfg
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def default_config() -> dict:
    cfg: dict = {}
    for key, (default, _) in SCHEMA.items():
        _set(cfg, key.split("."), json.loads(json.dumps(default)))
    return cfg


def load_config_file(path: str | Path) -> dict:
    """The defaults with the file's keys set over them."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past Python's digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    cfg = default_config()
    for name, value in raw.items():
        if name in SECTIONS and isinstance(value, dict):
            for key, key_value in value.items():
                _set(cfg, [name, key], key_value)
        else:
            _set(cfg, [name], value)
    return cfg


def parse_value(text: str) -> Any:
    """A config value given as text: JSON when it parses, otherwise the
    plain string."""
    try:
        return json.loads(text)
    except ValueError:  # as for load_config_file
        return text


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply `--set dotted.key=value` overrides, each value read by
    parse_value."""
    cfg = json.loads(json.dumps(cfg))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, text = item.split("=", 1)
        _set(cfg, dotted.split("."), parse_value(text))
    return cfg


@dataclass
class ResolvedConfig:
    """A validated config: the run to execute (algorithm and ablation applied
    to its model), the dataset and output sections, and the effective config
    with every derived seed filled in: re-running from it reproduces the run
    bitwise."""

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


def _effective(cfg: dict) -> dict:
    """A copy of the merged config dict with every key checked against its
    kind in SCHEMA, whatever the other keys say: algorithm=fedavg (FedPer
    with no personalization layers) forces k_personal to 0, and
    dataset.seed and partition.seed default to values derived from
    master_seed so one seed governs the run."""
    cfg = json.loads(json.dumps(cfg))
    for key, (_, (kind, test)) in SCHEMA.items():
        section, _, name = key.rpartition(".")
        value = (cfg[section] if section else cfg)[name]
        _require(test(value), f"{key} must be {kind}, got {value!r}")
    if cfg["algorithm"] == "fedavg":
        cfg["model"]["k_personal"] = 0
    for section, purpose in (("dataset", rngmod.DATASET), ("partition", rngmod.PARTITION)):
        if cfg[section]["seed"] is None:
            cfg[section]["seed"] = rngmod.derive_seed(cfg["master_seed"], purpose)
    return cfg


def resolve(cfg: dict) -> ResolvedConfig:
    """Validate the merged config dict and build the domain objects.

    The effective config (_effective) comes first; the rules that span keys
    follow.  A synthetic config declares its dataset's shape, so the run is
    checked against that shape (experiment.check_fits) before the dataset
    is built; a csv run is checked by experiment.check_dataset once its
    file is loaded.  ablation=linear_base collapses the base layers of the
    run's model (the echoed config keeps the layers as given).
    """
    cfg = _effective(cfg)
    model_cfg, sgd_cfg, ds_cfg, part_cfg, out_cfg = (
        cfg[section] for section in ("model", "sgd", "dataset", "partition", "output")
    )
    spec = ModelSpec.from_json(model_cfg)
    if ds_cfg["kind"] == "csv":
        _require(ds_cfg["path"] is not None, "dataset.path is required for dataset.kind csv")

    run_id = out_cfg["run_id"]
    try:
        run_id_bytes = len(os.fsencode(run_id))
    except UnicodeEncodeError:
        raise ConfigError(f"output.run_id must be encodable as a file name, got {run_id!r}") from None
    _require(
        run_id_bytes <= RUN_ID_MAX_BYTES,
        f"output.run_id must be at most {RUN_ID_MAX_BYTES} bytes in UTF-8, got {run_id_bytes}",
    )

    sgd = SgdConfig(float(sgd_cfg["eta"]), sgd_cfg["epochs"], sgd_cfg["batch_size"])
    partition_spec = PartitionSpec(
        part_cfg["mode"], part_cfg["num_clients"], part_cfg["k"], tuple(part_cfg["volume_range"]),
        float(part_cfg["train_fraction"]), part_cfg["seed"], part_cfg["rater_disagreement"],
    )
    if cfg["ablation"] == "linear_base":
        spec = linearize_base(spec)
    run = RunConfig(spec, cfg["rounds"], sgd, cfg["fine_tune"], cfg["master_seed"], partition_spec)
    if ds_cfg["kind"] != "csv":
        # both generators give every class exactly per_class samples
        num_classes, per_class = ds_cfg["num_classes"], ds_cfg["per_class"]
        check_fits(run, ds_cfg["dim"], num_classes, num_classes * per_class, lambda: [per_class] * num_classes)
    return ResolvedConfig(run, ds_cfg, out_cfg, cfg)


# Each axis of `fedper sweep` and the config key its values set.
SWEEP_AXES = {"k": "partition.k", "kp": "model.k_personal", "algorithm": "algorithm"}


def sweep_seed(master_seed: int, axis: str, value: int | str) -> int:
    """Per-point master seed, derived from the axis value itself so that
    reordering the values list leaves every point unchanged."""
    code = ALGORITHMS.index(value) if axis == "algorithm" else int(value)
    return rngmod.derive_seed(master_seed, rngmod.SWEEP, list(SWEEP_AXES).index(axis), code)


def resolve_sweep(cfg: dict, axis: str, values: Sequence[Any]) -> tuple[dict, list[RunConfig]]:
    """The effective config of the merged config dict (see _effective),
    which no run trains, and one run per value: the dict with the axis key
    set to the value, resolved as that run would be, with the value's
    sweep_seed as master seed.  Its dataset and partition seeds derive from
    the dict's master seed, so every point trains on the base's shards.
    The sweep's own rules, the kind of every base key, every point and the
    values' distinctness are checked before any data is built: a sweep
    refuses what one of its points refuses, and nothing else."""
    if axis not in SWEEP_AXES:
        raise UsageError(f"unknown sweep axis {axis!r}; expected one of {tuple(SWEEP_AXES)}")
    if len(values) == 0:
        raise UsageError("sweep needs at least one value")
    mode = cfg["partition"]["mode"]
    if axis == "k" and mode != K_CLASS:
        raise UsageError(f"axis k needs partition.mode {K_CLASS}; {mode} ignores k")
    if axis == "kp" and cfg["algorithm"] == "fedavg":
        raise UsageError("axis kp needs algorithm fedper; fedavg forces model.k_personal to 0 at every point")
    base = _effective(cfg)
    runs = []
    for value in values:
        point = json.loads(json.dumps(cfg))
        _set(point, SWEEP_AXES[axis].split("."), value)
        runs.append(replace(resolve(point).run, master_seed=sweep_seed(base["master_seed"], axis, value)))
    # each point writes a file named by its value, so a repeat would overwrite
    # one; checked once every value is of its key's kind, where true is not 1
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise UsageError(f"sweep values must be distinct, got {repeated[0]!r} more than once")
    return base, runs


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
