"""The bitwise gates under forced OpenBLAS cores, run by hand (it is not a
tier-1 test):

    python tests/cores.py [CORE ...]
    python tests/cores.py --capture CORE

numpy's bundled OpenBLAS picks a core, a set of kernels, for the CPU when
it loads, and OPENBLAS_CORETYPE makes it load another one in one process.
Cores round some matrix products differently, so tests/test_golden.py
stores its values per core.  The first form runs, for each named core
(SkylakeX, Haswell and Katmai, OpenBLAS's generic core, by default), the
gates that compare bits: test_golden.py, TestTrainingReference,
TestFedAvgEquivalence, TestRowBudget (whole weight blocks, pad columns
included), runs in client groups against runs of one group
(TestClientGroups) and acceptance criteria 01 and 09, each in a pytest
subprocess under that core.  It exits 1 if any gate failed, or if a
process could not run on the core asked for.

The second form prints the entries of GOLDEN and CHECKPOINT_GOLDEN for
the core, each config captured in a subprocess of its own under it.  It
captures only where TestTrainingReference passes: on a core where it
fails, the engine's arithmetic is not each client's own, and a golden
would pin values the reference does not give."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CORES = ("SkylakeX", "Haswell", "Katmai")
GATES = (
    "tests/test_golden.py",
    "tests/test_protocol.py::TestTrainingReference",
    "tests/test_protocol.py::TestFedAvgEquivalence",
    "tests/test_protocol.py::TestRowBudget",
    "tests/test_protocol.py::TestClientGroups::test_groups_change_no_output_byte",
    "tests/test_acceptance.py::test_criterion_01_fedavg_equivalence",
    "tests/test_acceptance.py::test_criterion_09_cli_determinism",
)
REFERENCE_GATE = "tests/test_protocol.py::TestTrainingReference"


def python(core: str, *args: str, **kwargs) -> subprocess.CompletedProcess:
    """python with args in the repository, src/ and tests/ importable, under
    OpenBLAS core core."""
    env = {**os.environ, "PYTHONPATH": f"{REPO / 'src'}{os.pathsep}{REPO / 'tests'}", "OPENBLAS_CORETYPE": core}
    return subprocess.run([sys.executable, *args], cwd=REPO, env=env, **kwargs)


def evaluated(core: str, expression: str):
    """The JSON value of a Python expression, evaluated under core with
    helpers, test_golden and pathlib imported; what it prints is dropped."""
    code = (
        "import contextlib, io, json, pathlib, helpers, test_golden\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    value = {expression}\n"
        "print(json.dumps(value))"
    )
    return json.loads(python(core, "-c", code, check=True, capture_output=True, text=True).stdout)


def check_core(core: str) -> None:
    """Raise unless a process started under core runs on it: OpenBLAS falls
    back to another core for one the CPU cannot run."""
    found = evaluated(core, "helpers.blas_core()")
    if found != core:
        raise RuntimeError(f"OPENBLAS_CORETYPE={core} runs on core {found}")


def gate_failed(core: str, gate: str) -> bool:
    proc = python(core, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", gate, stdout=subprocess.DEVNULL)
    if proc.returncode not in (0, 1):  # pytest's codes for all passed and some failed
        raise RuntimeError(f"{core}: pytest {gate} exited {proc.returncode}")
    return proc.returncode == 1


def run_gates(cores: list[str]) -> int:
    failures = []
    for core in cores:
        check_core(core)
        for gate in GATES:
            start = time.perf_counter()
            failed = gate_failed(core, gate)
            print(f"{core}: {gate}: {'FAILED' if failed else 'passed'} in {time.perf_counter() - start:.1f} s")
            if failed:
                failures.append(f"{core} {gate}")
    print(f"failed: {', '.join(failures)}" if failures else "every gate passed on every core")
    return 1 if failures else 0


def capture(core: str) -> int:
    check_core(core)
    if gate_failed(core, REFERENCE_GATE):
        print(f"{REFERENCE_GATE} fails on core {core}: no values captured", file=sys.stderr)
        return 1
    print(f'# GOLDEN\n    "{core}": {{')
    for name in evaluated(core, "list(test_golden.CONFIGS)"):
        checksums, digest = evaluated(core, f"test_golden.history_values({name!r})")
        print(f'        "{name}": (\n            [')
        print("".join(f'                "{c}",\n' for c in checksums), end="")
        print(f'            ],\n            "{digest}",\n        ),')
    print("    },")
    print(f'# CHECKPOINT_GOLDEN\n    "{core}": {{')
    for name in evaluated(core, 'list(test_golden.CHECKPOINT_GOLDEN["SkylakeX"])'):
        with tempfile.TemporaryDirectory() as tmp:
            written = evaluated(core, f"test_golden.checkpoint_values({name!r}, pathlib.Path({tmp!r}))")
        print(f'        "{name}": (')
        print("".join(f'            "{h}",\n' for h in written), end="")
        print("        ),")
    print("    },")
    return 0


def main(args: list[str]) -> int:
    if args[:1] == ["--capture"]:
        if len(args) != 2:
            print("usage: python tests/cores.py --capture CORE", file=sys.stderr)
            return 2
        return capture(args[1])
    return run_gates(args or list(CORES))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
