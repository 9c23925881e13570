"""The benchmark drives the program from outside: the traced run wraps
fedper functions by module attribute, and every run is a `fedper run` of a
workload's config checked by the harness.  A name it looks up, or a run it
makes, must not break without notice."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import fedper.cli
import fedper.experiment
import fedper.nn
from fedper.config import build_dataset, load_config_file, resolve
from fedper.experiment import client_shards
from helpers import core_note

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


def test_a_run_goes_through_the_federation_phase_once(monkeypatch, tmp_path):
    """The untraced benchmark splits set-up from the federation phase by
    wrapping fedper.experiment.run_federation (spans.PHASE_TARGETS): one
    `fedper run` calls it exactly once, with the training and the test
    row blocks, and builds no lock-step plan before that call."""
    spans = load(monkeypatch, "spans")
    assert spans.PHASE_TARGETS == (("fedper.experiment", "run_federation", spans.FEDERATION_SPAN),)
    calls, plans = [], []
    federate, plan_init = fedper.experiment.run_federation, fedper.nn.LockstepPlan.__init__

    def counting(*args, **kwargs):
        calls.append((len(plans), args))
        return federate(*args, **kwargs)

    def building(self, *args, **kwargs):
        plans.append(self)
        plan_init(self, *args, **kwargs)

    monkeypatch.setattr(fedper.experiment, "run_federation", counting)
    monkeypatch.setattr(fedper.nn.LockstepPlan, "__init__", building)
    assert fedper.cli.main(["run", "--set", "rounds=1", "--out", str(tmp_path)]) == 0
    ((plans_before, (run, trains, tests)),) = calls
    assert plans_before == 0 and plans
    assert isinstance(trains, fedper.nn.RowBlock) and isinstance(tests, fedper.nn.RowBlock)
    assert len(trains.sizes) == len(tests.sizes) == run.partition.num_clients


def test_every_workload_config_runs_and_passes_the_output_check(monkeypatch, tmp_path):
    """Each workload's full config at master-seed offset 0 writes the
    outputs the benchmark's stored reference holds: a run the benchmark
    would refuse as incorrect fails here first."""
    bench = load(monkeypatch, "run")
    reference = json.loads(bench.REFERENCE.read_text())
    for name, workload in bench.WORKLOADS.items():
        config, out = tmp_path / f"{name}.json", tmp_path / name
        config.write_text(json.dumps(bench.workload_config(name, 0)))
        argv = ["run", "--config", str(config), "--out", str(out), "--threads", str(workload.threads)]
        assert fedper.cli.main(argv) == 0, name
        _, problems, _ = bench.check_outputs(out, reference[name]["0"])
        assert problems == [], f"{name}: {core_note()}"


# Per workload: SGD launches per pass, fine-tune launches per pass (None
# without fine-tuning) and scoring launches per round.  Each lock-step step
# is one launch unless its rows exceed ROW_BUDGET (scale_data_io's steps of
# 100 batches of 256 rows are 7 launches, its last steps of 64 rows 2), and
# each side's sets are scored in as few launches as fit the budget.
LAUNCHES = {
    "kclass_dispatch": (20, None, 2),
    "unbalanced_finetune_threads": (48, 12, 2),
    "scale_data_io": (44, None, 60),
}


def step_rows(sizes, epochs, batch_size):
    """Per lock-step step of a pass, the rows of all its batches."""
    walks = [[min(batch_size, n - i) for _ in range(epochs) for i in range(0, n, batch_size)] for n in sizes]
    return [sum(w[t] for w in walks if t < len(w)) for t in range(max(map(len, walks)))]


def step_of(launch, sizes, offsets, batch_size):
    """The lock-step step of a launch, from its first member's first row."""
    j = int(launch[0][0])
    epoch, sample = divmod(int(launch[1][0]) - offsets[j], sizes[j])
    return epoch * -(-sizes[j] // batch_size) + sample // batch_size


def test_workload_launch_counts(monkeypatch, tmp_path):
    """The launches each workload's passes and scoring make, without
    timing anything: a planner that falls back to launching each batch
    size of a step, or each set length, on its own fails here."""
    bench = load(monkeypatch, "run")
    assert set(LAUNCHES) == set(bench.WORKLOADS)
    for name, (sgd_launches, fine_tune_launches, scoring_launches) in LAUNCHES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bench.workload_config(name, 0)))
        resolved = resolve(load_config_file(path))
        run = resolved.run
        sides = [rows.sizes for rows in client_shards(build_dataset(resolved.dataset), run.partition)]
        sizes, batch_size = sides[0], run.sgd.batch_size
        scoring = [fedper.nn.launches(s, np.cumsum([0] + s[:-1]), 1, max(s)) for s in sides]
        assert sum(map(len, scoring)) == scoring_launches, name
        passes = [(run.sgd.epochs, sgd_launches), (1, fine_tune_launches if run.fine_tune else None)]
        for epochs, expected in passes:
            if expected is None:
                continue
            offsets = np.cumsum([0] + [epochs * n for n in sizes[:-1]]).tolist()
            planned = fedper.nn.launches(sizes, offsets, epochs, batch_size)
            assert len(planned) == expected, (name, epochs)
            steps = [step_of(launch, sizes, offsets, batch_size) for launch in planned]
            for t, rows in enumerate(step_rows(sizes, epochs, batch_size)):
                assert rows > fedper.nn.ROW_BUDGET or steps.count(t) == 1, (name, epochs, t)
