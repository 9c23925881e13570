"""Spans recorded from outside the program, by wrapping the fedper functions
that `cli.cmd_run`, `experiment.run_experiment` and `protocol.run_federation`
look up as module attributes.  Nothing under `src/` is changed: the wrappers
are installed in the module namespaces for the duration of one run and the
originals are put back afterwards.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# (module, attribute, span name) for every function the traced run wraps.
# The span name is fixed here, as `<layer>.<function>`, so that it does not
# change if the program moves a function between modules.
TRACE_TARGETS = (
    ("fedper.cli", "cmd_run", "cli.cmd_run"),
    ("fedper.cli", "build_dataset", "config.build_dataset"),
    ("fedper.cli", "run_experiment", "experiment.run_experiment"),
    ("fedper.experiment", "partition", "data.partition"),
    ("fedper.experiment", "train_test_split", "data.train_test_split"),
    ("fedper.experiment", "run_federation", "protocol.run_federation"),
    ("fedper.protocol", "client_round", "protocol.client_round"),
    ("fedper.protocol", "fine_tune", "protocol.fine_tune"),
    ("fedper.protocol", "sgd", "nn.sgd"),
    ("fedper.protocol", "aggregate", "protocol.aggregate"),
    ("fedper.protocol", "evaluate", "metrics.evaluate"),
    ("fedper.protocol", "weights_checksum", "nn.weights_checksum"),
    ("fedper.protocol", "write_checkpoint", "protocol.write_checkpoint"),
    ("fedper.cli", "write_checkpoint", "protocol.write_checkpoint"),
    ("fedper.cli", "emit", "metrics.emit"),
    ("fedper.rng", "substream", "rng.substream"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACE_TARGETS))

# The untraced run wraps only run_federation: one span per run, which splits
# set-up from the federation phase without tracing any inner layer.
FEDERATION_SPAN = "protocol.run_federation"
PHASE_TARGETS = (("fedper.experiment", "run_federation", FEDERATION_SPAN),)


@dataclass(frozen=True)
class Span:
    run: str
    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps the spans of one run in memory.

    The parent of a span is the innermost open span on the same thread.  A
    span opened on a worker thread with nothing open there (a client run on
    the thread pool) takes the innermost open span of the thread that created
    the tracer, which is the caller blocked on the pool.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._home = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        home = self._stacks.get(self._home)
        return home[-1] if home else None

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(self.run_id, span_id, parent, name, start, end))

        return traced

    def first(self, name: str) -> Span | None:
        matching = [s for s in self.spans if s.name == name]
        return min(matching, key=lambda s: s.start) if matching else None

    def records(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]


@contextmanager
def patched(targets, tracer: Tracer):
    """Install tracer wrappers on each (module, attribute, name) target and
    restore the originals on exit.  Yields the targets that do not exist,
    which are left alone (their layer then reads as zero calls)."""
    saved = []
    missing = []
    try:
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the part of it that child spans cover.
    Children that overlap each other (threaded clients) are counted once."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end) for s in spans}


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, busy_s (summed span time) and self_s for every span name in
    SPAN_NAMES, zero where the run made no such call."""
    own = self_times(spans)
    stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    for s in spans:
        entry = stats.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += s.duration
        entry["self_s"] += own[s.id]
    return stats
