"""Shared fixture: `hold`, the one way a test asserts a selftest registry entry."""

import functools

import pytest

from diskxray import selftest
from diskxray.geometry import CurvatureParam


@functools.lru_cache(maxsize=None)
def _measured(measure, kappa):
    return measure(CurvatureParam(kappa))


@pytest.fixture(scope="session")
def hold():
    """hold(measure, *kappas): assert that the registry entry of `measure`
    passes at each kappa, which must lie on the entry's grid, and return
    the worst measured error.  Each (entry, kappa) is measured once per
    session however many tests name it."""

    def check(measure, *kappas):
        entry = next(c for c in selftest.CHECKS if c.measure is measure)
        worst = 0.0
        for kappa in kappas:
            label = entry.name.format(kappa=kappa)
            assert kappa in entry.kappas, f"{label}: kappa is not on the entry's grid {entry.kappas}"
            got = _measured(measure, kappa)
            assert got < entry.tol, f"{label}: measured {got:.3e} >= tol {entry.tol:.1e}"
            worst = max(worst, got)
        return worst

    return check
