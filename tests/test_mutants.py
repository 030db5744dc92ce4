"""The hand-written mutants of ``tools/mutants.py`` still name live source.

A stale target only shows when the tool runs, after its baseline; here it
shows in tier-1.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_target_occurs_once(mutant):
    text = (ROOT / "src" / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
