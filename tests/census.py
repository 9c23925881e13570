"""The census of src/, run by hand (it is not a tier-1 test):

    python tests/census.py [PYTEST_ARG ...]

Runs tier-1 (or pytest with the arguments given) in this process under the
standard library's trace module, pool threads included, and prints every
executable line of src/fedper that never ran, as path:line and its text.
The body of a module's `if TYPE_CHECKING:` block is not counted: it never
runs by design.  Exits 1 if it printed a line or pytest failed.  tier-1
takes about a minute under trace, against about 15 s without it."""

from __future__ import annotations

import ast
import dis
import os
import sys
import trace
import types
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "fedper"


def executable_lines(path: Path) -> set[int]:
    """The lines that start bytecode in any code object of path's module."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # a module starts at line 0
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def type_checking_lines(path: Path) -> set[int]:
    """The lines of the bodies of path's module-level `if TYPE_CHECKING:` blocks."""
    return {
        line
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
        for line in range(node.body[0].lineno, node.end_lineno + 1)
    }


class SrcOnly:
    """trace's rule of which files to ignore: all but src/fedper's.  (The
    stdlib's trace.Ignore caches its answer by module name, so an ignored
    __init__.py anywhere would hide fedper's own.)"""

    def __init__(self) -> None:
        self.ignored: dict[str, bool] = {}

    def names(self, filename: str, modulename: str) -> bool:
        if filename not in self.ignored:
            self.ignored[filename] = not Path(filename).resolve().is_relative_to(SRC)
        return self.ignored[filename]


def main(args: list[str]) -> int:
    os.chdir(REPO)  # for pyproject.toml's testpaths and pythonpath
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = SrcOnly()
    namespace = {"pytest": pytest, "args": ["-q", "-p", "no:cacheprovider", *args]}
    tracer.runctx("status = pytest.main(args)", namespace, namespace)  # runctx traces new threads too
    ran = {(str(Path(name).resolve()), line) for name, line in tracer.results().counts}
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - type_checking_lines(path)):
            if (str(path), line) not in ran:
                print(f"{path.relative_to(REPO)}:{line}: {text[line - 1].strip()}")
                missed += 1
    status = namespace["status"]
    print(f"{missed} executable line(s) of src/ never ran; pytest exited {int(status)}")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
