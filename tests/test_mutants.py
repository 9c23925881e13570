"""Tier-1 guard of tests/mutants.py, whose mutants are run by hand."""

from pathlib import Path

import pytest

from mutants import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutants_old_text_occurs_exactly_once_in_src(mutant):
    """Each edit of a mutant changes one place: its old text must still name
    exactly one spot in src/, or the mutation check would test nothing."""
    assert mutant.edits
    for old, _ in mutant.edits:
        assert sum(path.read_text().count(old) for path in SRC.rglob("*.py")) == 1, old
        assert (SRC / "fedper" / mutant.path).read_text().count(old) == 1, old
