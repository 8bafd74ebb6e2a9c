"""The selftest registry under pytest: every entry at every kappa of its grid."""

import pytest

from diskxray import selftest

CASES = [(check, kappa) for check in selftest.CHECKS for kappa in check.kappas]


@pytest.mark.parametrize("check, kappa", CASES, ids=[f"{c.measure.__name__}-{k}" for c, k in CASES])
def test_entry(check, kappa, hold):
    hold(check.measure, kappa)


def test_entries_are_distinct_and_held():
    assert len({c.name for c in selftest.CHECKS}) == len(selftest.CHECKS)
    assert len({c.measure for c in selftest.CHECKS}) == len(selftest.CHECKS)
    assert all(c.kappas for c in selftest.CHECKS)
