"""The committed mutant list of tools/mutants.py still applies to this tree."""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", _ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_changes_its_file_in_one_place(mutant):
    text = (_ROOT / mutant.path).read_text()
    assert mutants.apply(text, mutant) != text


def test_a_text_that_is_not_there_is_refused():
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.apply("x = 1\n", mutants.MUTANTS[0])
