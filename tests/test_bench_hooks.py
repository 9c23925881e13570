"""The benchmark drives the program from outside: the traced run wraps
fedper functions by module attribute, and every run is a `fedper run` of a
workload's config checked by the harness.  A name it looks up, or a run it
makes, must not break without notice."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import fedper.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(monkeypatch, name):
    """perfbench/<name>.py as a module, with perfbench/ on sys.path for its
    own imports."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loader = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, module)  # dataclasses look the module up
    loader.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_to_a_callable(monkeypatch):
    spans = load(monkeypatch, "spans")
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.TRACE_TARGETS + spans.PHASE_TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.TRACE_TARGETS and missing == []


def test_every_workload_config_runs_and_passes_the_output_check(monkeypatch, tmp_path):
    bench = load(monkeypatch, "run")
    for name, workload in bench.WORKLOADS.items():
        config, out = tmp_path / f"{name}.json", tmp_path / name
        config.write_text(json.dumps({**bench.workload_config(name, 0), "rounds": 1}))
        argv = ["run", "--config", str(config), "--out", str(out), "--threads", str(workload.threads)]
        assert fedper.cli.main(argv) == 0, name
        _, problems, _ = bench.check_outputs(out, None)
        assert problems == [], name
