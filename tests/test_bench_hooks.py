"""The traced benchmark run wraps fedper functions by module attribute; a
name it looks up must not disappear from the program without notice."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_trace_target_resolves_to_a_callable(monkeypatch):
    loader = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, spans)  # dataclasses look the module up
    loader.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in spans.TRACE_TARGETS + spans.PHASE_TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert spans.TRACE_TARGETS and missing == []
