"""Tests of the benchmark's own code.  Run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run as bench
import spans

# Two k=2 clients over 2 classes of 11 samples: shard sizes 12 and 10, so
# 10 and 8 train samples, i.e. 3 and 2 minibatches of 4 (ragged).
TINY = {
    "rounds": 3,
    "fine_tune": True,
    "model": {
        "layers": [
            {"in_dim": 2, "out_dim": 3, "activation": "relu"},
            {"in_dim": 3, "out_dim": 2, "activation": "identity"},
        ],
        "k_personal": 1,
    },
    "sgd": {"eta": 0.05, "epochs": 2, "batch_size": 4},
    "dataset": {"num_classes": 2, "dim": 2, "per_class": 11},
    "partition": {"num_clients": 2, "k": 2},
}
TINY_SIZES = [12, 10]
TINY_COUNTS = {
    "sample_grads": 3 * (2 + 1) * (10 + 8),  # rounds * (epochs + fine-tune epoch) * n_train
    "sgd_steps": 3 * 2 * (3 + 2),  # rounds * epochs * minibatches
    "fine_tune_steps": 3 * (3 + 2),
    "wire_bytes": 3 * (2 * 3 + 3) * 8 * 2 * 2,  # rounds * base params * 8 B * 2N
    "eval_rows": 3 * (12 + 10),
    "data_samples": 2 * 11,
}


def _targets():
    return [(importlib.import_module(m), a) for m, a, _ in spans.TRACE_TARGETS]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One traced in-process run of TINY, counting gradient evaluations."""
    import fedper.cli
    import fedper.nn
    import fedper.protocol

    tmp = tmp_path_factory.mktemp("tiny")
    config = tmp / "config.json"
    config.write_text(json.dumps(TINY))
    grad_calls = {"fedper.nn": 0, "fedper.protocol": 0}
    originals = {m: sys.modules[m]._loss_grad_arrays for m in grad_calls}

    def counting(module_name):
        def wrapper(*args, **kwargs):
            grad_calls[module_name] += 1
            return originals[module_name](*args, **kwargs)

        return wrapper

    tracer = spans.Tracer("tiny")
    try:
        for m in grad_calls:
            sys.modules[m]._loss_grad_arrays = counting(m)
        with spans.patched(spans.TRACE_TARGETS, tracer):
            code = fedper.cli.main(["run", "--config", str(config), "--out", str(tmp / "out")])
    finally:
        for m, fn in originals.items():
            sys.modules[m]._loss_grad_arrays = fn
    assert code == 0
    return {"dir": tmp, "config": config, "tracer": tracer, "grad_calls": grad_calls}


def test_wrappers_restore_originals():
    before = [getattr(mod, attr) for mod, attr in _targets()]
    with spans.patched(spans.TRACE_TARGETS, spans.Tracer("t")) as missing:
        assert missing == []
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(_targets(), before))
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(_targets(), before))

    with pytest.raises(RuntimeError):
        with spans.patched(spans.TRACE_TARGETS, spans.Tracer("t")):
            raise RuntimeError("run failed")
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(_targets(), before))


def test_missing_target_is_reported_and_skipped():
    with spans.patched([("fedper.protocol", "no_such_function", "x.y")], spans.Tracer("t")) as missing:
        assert missing == ["fedper.protocol.no_such_function"]
    assert not hasattr(importlib.import_module("fedper.protocol"), "no_such_function")


def test_counts_match_hand_counts(tiny_run):
    effective = json.loads((tiny_run["dir"] / "out" / bench.EFFECTIVE_CONFIG).read_text())
    sizes = bench.partition_sizes(tiny_run["config"], tiny_run["dir"])
    assert sizes == TINY_SIZES
    counts = bench.layer_counts(effective, sizes)
    assert counts == TINY_COUNTS
    # The computed step counts are the gradient evaluations the run made.
    assert tiny_run["grad_calls"] == {"fedper.nn": counts["sgd_steps"], "fedper.protocol": counts["fine_tune_steps"]}


def test_traced_run_spans(tiny_run):
    stats = spans.layer_stats(tiny_run["tracer"].spans)
    rounds, clients = TINY["rounds"], TINY["partition"]["num_clients"]
    assert stats["nn.sgd"]["calls"] == rounds * clients
    assert stats["protocol.fine_tune"]["calls"] == rounds * clients
    assert stats["metrics.evaluate"]["calls"] == 2 * rounds * clients
    assert stats["protocol.write_checkpoint"]["calls"] == 1
    assert stats["cli.cmd_run"]["calls"] == 1
    for s in stats.values():
        assert 0.0 <= s["self_s"] <= s["busy_s"] + 1e-9
    by_id = {s.id: s for s in tiny_run["tracer"].spans}
    for s in tiny_run["tracer"].spans:
        if s.name == "nn.sgd":
            assert by_id[s.parent].name == "protocol.client_round"


def test_train_samples_per_s_and_wire_bytes(tiny_run):
    session = bench.Session("tiny", 0, tiny_run["dir"], {})
    session.runs = [
        bench.Run("plain", offset, result={"wall_s": w, "setup_s": 0.1, "federation_s": f, "peak_rss_mib": 40.0},
                  final_acc=acc)
        for offset, w, f, acc in ((0, 3.0, 2.0, 0.5), (1, 5.0, 4.0, 0.75), (0, 1.5, 1.0, 0.5))
    ]
    metrics = bench.end_to_end_metrics(session, TINY_COUNTS)
    assert metrics["train_samples_per_s"] == {"value": 162 / 2.0, "unit": "1/s"}
    assert metrics["wall_s"]["value"] == 3.0
    # one accuracy per master seed, however many runs it had
    assert metrics["final_acc_mean"]["value"] == 0.625

    session.runs.append(bench.Run("trace", 0, result={"wall_s": 3.5}, spans=tiny_run["tracer"].spans))
    layer = bench.per_layer_metrics(session, TINY_COUNTS)
    assert layer["protocol.wire_bytes"]["value"] == 864
    assert layer["nn.sgd.steps"]["value"] == 30
    assert layer["protocol.fine_tune.steps"]["value"] == 15
    assert layer["trace.overhead_s"]["value"] == pytest.approx(0.5)


def test_output_checker_flags_corrupted_history(tiny_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(tiny_run["dir"] / "out", out)
    digest, problems, acc = bench.check_outputs(out, None)
    assert problems == [] and 0.0 <= acc <= 1.0
    expected = {k: digest[k] for k in ("base_checksum", "history_sha256")}
    assert bench.check_outputs(out, expected)[1] == []

    history = out / bench.HISTORY
    lines = history.read_text().splitlines()
    r, c, accuracy, loss = lines[1].split(",")
    lines[1] = ",".join([r, c, "0.125" if accuracy != "0.125" else "0.25", loss])
    history.write_text("\n".join(lines) + "\n")
    problems = bench.check_outputs(out, expected)[1]
    assert any("history_sha256" in p for p in problems)

    history.write_text("\n".join(lines[:-1]) + "\n")
    assert any("rows" in p for p in bench.check_outputs(out, None)[1])

    (out / bench.FINAL_BASE).unlink()
    assert bench.check_outputs(out, None)[1] == [f"missing output {bench.FINAL_BASE}"]


def test_self_time_counts_overlapping_children_once():
    s = [
        spans.Span("r", 1, None, "parent", 0.0, 10.0),
        spans.Span("r", 2, 1, "child", 1.0, 4.0),
        spans.Span("r", 3, 1, "child", 3.0, 6.0),
        spans.Span("r", 4, 1, "child", 8.0, 9.0),
        spans.Span("r", 5, 4, "grandchild", 8.0, 8.5),
    ]
    assert spans.self_times(s) == {1: 4.0, 2: 3.0, 3: 3.0, 4: 0.5, 5: 0.5}
    stats = spans.layer_stats(s)
    assert stats["child"] == {"calls": 3, "busy_s": 7.0, "self_s": 6.5}


def test_worker_thread_spans_take_the_waiting_caller_as_parent():
    tracer = spans.Tracer("t")
    inner = tracer.wrap(lambda: threading.get_ident(), "inner")

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda _: inner(), range(4)))

    tracer.wrap(outer, "outer")()
    (root,) = [s for s in tracer.spans if s.name == "outer"]
    assert [s.parent for s in tracer.spans if s.name == "inner"] == [root.id] * 4


def test_fails_without_program_source(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / bench.BENCH.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{bench.BENCH.name}/run.py", "--workload", "kclass_dispatch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
