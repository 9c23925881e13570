"""The README's library example and its command lines must keep running as
the public API and the parser change, and its default configuration must be
the program's."""

import ast
import importlib
import json
import re
import shlex
from pathlib import Path

from fedper.cli import main
from fedper.config import default_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    accuracies = ast.literal_eval(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(accuracies) == 10 and all(0.0 <= a <= 1.0 for a in accuracies)


def test_library_use_names_are_callables():
    """Every call-shaped name in backticks in "Library use" prose, as
    `client_round(client, cfg, base, round_idx)` or `fedper.config.resolve`,
    is a callable of fedper or of the fedper module it names, so the prose
    names no deleted function."""
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    names = [call or dotted for call, dotted in re.findall(r"`(?:(\w+)\([^`]*\)|(fedper(?:\.\w+)+))`", prose)]
    assert len(names) >= 5
    for name in names:
        parts = name.split(".") if name.startswith("fedper.") else ["fedper", name]
        assert callable(resolve_name(parts)), name


def resolve_name(parts):
    """The object that the dotted parts name: the longest prefix that is a
    module, then attributes of it (None past a missing one)."""
    for at in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:at]))
        except ModuleNotFoundError:
            continue
        for attr in parts[at:]:
            obj = getattr(obj, attr, None)
        return obj


def test_default_config_block_is_the_default_config():
    section = README.read_text().split("## Configuration", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == default_config()


def test_command_lines_run(tmp_path):
    """Every `fedper ...` line of the sh blocks exits 0, for one round and
    with its --out under tmp_path."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("fedper ")]
    assert len(lines) >= 7
    for line in lines:
        args = shlex.split(line, comments=True)[1:]
        out = args.index("--out") + 1
        args[out] = str(tmp_path / args[out])
        assert main([*args, "--set", "rounds=1"]) == 0, line
