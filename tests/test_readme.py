"""The README's library example must keep running as the public API changes."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    accuracies = ast.literal_eval(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(accuracies) == 10 and all(0.0 <= a <= 1.0 for a in accuracies)
