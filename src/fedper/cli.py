"""Command-line entry point: run one federation, sweep an axis, or write a
partition manifest.  Exit codes: 0 ok, 1 runtime error, 2 usage error.
--threads is accepted and unused: a run whose lock-step steps outgrow one
launch trains one client group per usable core on threads of its own, and
no output depends on the groups."""

from __future__ import annotations

import argparse
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .checkpoint import write_json
from .config import SWEEP_AXES, apply_overrides, build_dataset, default_config, load_config_file
from .config import parse_value, resolve, resolve_sweep
from .data import K_CLASS, partition_indices
from .errors import ConfigError, SimulationError, UsageError
from .experiment import check_dataset, run_experiment, run_sweep
from .metrics import emit
from .protocol import write_checkpoint

ENV_OUT_DIR = "FEDPER_OUT_DIR"


def _load(args) -> dict:
    cfg = load_config_file(args.config) if args.config else default_config()
    cfg = apply_overrides(cfg, args.set or [])
    if getattr(args, "seed", None) is not None:
        cfg["master_seed"] = args.seed
    return cfg


def _creatable(path: Path, is_dir: bool) -> Path:
    """path, checked before anything is built: the nearest of it and its
    parents that exists must be a directory, except that an output file
    (not is_dir) that exists must not be one."""
    for found in (path, *path.parents):
        try:
            found_dir = stat.S_ISDIR(os.stat(found).st_mode)
        except FileNotFoundError:
            continue
        except OSError as exc:  # a path under a file, a name too long
            raise UsageError(f"cannot create {path}: {exc}") from exc
        if found_dir == (found == path and not is_dir):
            raise UsageError(f"cannot create {path}: {found} is {'a' if found_dir else 'not a'} directory")
        break
    return path


def _out_dir(args, output: dict) -> Path:
    """The output directory, checked before anything trains."""
    if getattr(args, "out", None):
        out = Path(args.out)
    elif output["dir"]:
        out = Path(output["dir"])
    else:
        out = Path(os.environ.get(ENV_OUT_DIR, "out")) / output["run_id"]
    return _creatable(out, is_dir=True)


def cmd_run(args) -> int:
    resolved = resolve(_load(args))
    out_dir = _out_dir(args, resolved.output)
    run_id = resolved.output["run_id"]
    # passed on unnamed, so that run_experiment can free it once sharded
    result = run_experiment(
        resolved.run,
        build_dataset(resolved.dataset),
        checkpoint_dir=out_dir / "checkpoints",
        checkpoint_every=resolved.output["checkpoint_every"],
    )

    fmt = resolved.output["format"]
    emit(result.history, fmt, out_dir / f"{run_id}_history.{fmt}")
    write_checkpoint(out_dir / "checkpoints", "final", result.layers, resolved.run.spec.k_base)
    write_json(out_dir / f"{run_id}_config.json", resolved.effective)
    print(f"wrote {out_dir / f'{run_id}_history.{fmt}'}")
    return 0


def cmd_sweep(args) -> int:
    # each item is a --set value of the axis key; spaces around the commas are not part of it
    values = [parse_value(v.strip()) for v in args.values.split(",") if v.strip()]
    effective, runs = resolve_sweep(_load(args), args.axis, values)
    output = effective["output"]
    out_dir = _out_dir(args, output)
    histories = run_sweep(runs, build_dataset(effective["dataset"]))

    run_id, fmt = output["run_id"], output["format"]
    for value, history in zip(values, histories):
        emit(history, fmt, out_dir / f"{run_id}_{args.axis}_{value}.{fmt}")
    write_json(out_dir / f"{run_id}_config.json", effective)
    print(f"wrote {len(histories)} result file(s) under {out_dir}")
    return 0


def cmd_partition(args) -> int:
    resolved = resolve(_load(args))
    out_path = Path(args.out) if args.out else _out_dir(args, resolved.output) / "partition_manifest.json"
    _creatable(out_path, is_dir=False)
    ds = build_dataset(resolved.dataset)
    check_dataset(resolved.run, ds)
    spec = resolved.run.partition
    indices = partition_indices(ds, spec)
    manifest = {
        "mode": spec.mode,
        "num_clients": spec.num_clients,
        "k": spec.k if spec.mode == K_CLASS else None,
        "volume_range": None if spec.mode == K_CLASS else list(spec.volume_range),
        "seed": spec.seed,
        "num_classes": ds.num_classes,
        "clients": [
            {
                "id": j,
                "size": len(idx),
                "classes": np.unique(ds.y[idx]).tolist(),
                "indices": idx.tolist(),
            }
            for j, idx in enumerate(indices)
        ],
    }
    write_json(out_path, manifest)
    print(f"wrote {out_path}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedper", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults used if omitted)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", help="output directory (file path for partition)")
        p.add_argument("--seed", type=int, help="override master_seed")
        p.add_argument(
            "--threads", type=_positive_int, default=1,
            help="accepted for compatibility and unused; a run picks its own threads, and no output depends on them",
        )

    p_run = sub.add_parser("run", help="run one federation")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="re-run across one axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_part = sub.add_parser("partition", help="write the partition manifest only")
    common(p_part)
    p_part.set_defaults(func=cmd_partition)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    while "--values" in argv[:-1]:  # argparse takes a value such as -1,0 for an option
        i = argv.index("--values")
        argv[i : i + 2] = [f"--values={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
