"""Three rows of the mutant table, one each for the bracket frontier, the
move engine and the diagram predicates; ``python tests/mutants.py`` runs
them all."""

import pytest

from mutants import MUTANTS, baseline, killed

SMOKE = [row for row in MUTANTS if row.name in (
    "frontier keeps closed windings unsorted",
    "R1_add bracket relation with -3 for 3",
    "is_proper tests < 3 regions for < 4",
)]


@pytest.fixture(scope="module", autouse=True)
def unmutated_copy_passes():
    baseline(SMOKE)


@pytest.mark.parametrize("row", SMOKE, ids=lambda row: row.name)
def test_the_named_tests_kill_the_mutant(row):
    assert killed(row), f"{row.name} survived {', '.join(row.tests)}"
