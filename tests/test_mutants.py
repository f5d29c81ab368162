"""The mutant list of tools/mutants.py cannot rot: every text applies, and a canary is killed."""
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = mutants  # dataclasses look their module up while building
spec.loader.exec_module(mutants)

CANARY = "shuffle_longer_than_two"


def test_every_listed_text_occurs_exactly_once():
    assert mutants.check(mutants.ROOT) == []
    assert len(mutants.MUTANTS) >= 9
    assert all(m.selection and m.text != m.replacement for m in mutants.MUTANTS)


def test_the_check_names_a_missing_text_and_a_repeated_name():
    first = mutants.MUTANTS[0]
    broken = (first, replace(first, text="no such text anywhere"))
    assert mutants.check(mutants.ROOT, broken) == [
        f"{first.name}: listed twice",
        f"{first.name}: its text occurs 0 times in {first.path}",
    ]


def test_the_canary_is_killed_and_a_no_op_survives():
    canary = next(m for m in mutants.MUTANTS if m.name == CANARY)
    assert mutants.run_mutant(mutants.ROOT, canary)["outcome"] == "killed"
    no_op = replace(canary, name="no_op", replacement=canary.text)
    assert mutants.run_mutant(mutants.ROOT, no_op)["outcome"] == "survived"
