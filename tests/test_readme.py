"""The README's library example must keep running as the public API
changes, and its default configuration must be the program's."""

import ast
import json
import re
from pathlib import Path

from fedper.config import default_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    accuracies = ast.literal_eval(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(accuracies) == 10 and all(0.0 <= a <= 1.0 for a in accuracies)


def test_default_config_block_is_the_default_config():
    section = README.read_text().split("## Configuration", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == default_config()
