"""Property tests over random curvatures and random band-limited tables."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from diskxray import basis, boundary, fileio, xray  # noqa: E402
from diskxray.geometry import CurvatureParam  # noqa: E402


def random_table(nmax, seed, k_pad=0):
    """Random coefficients for every (n, k), n <= nmax, k in [-k_pad, n + k_pad]."""
    rng = np.random.default_rng(seed)
    tab = basis.CoeffTable(nmax=nmax)
    for n in range(nmax + 1):
        for k in range(-k_pad, n + k_pad + 1):
            tab[(n, k)] = complex(rng.normal(), rng.normal())
    return tab


@settings(max_examples=25, deadline=None)
@given(kappa=st.floats(-0.95, 0.95), nmax=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_svd_round_trip(kappa, nmax, seed):
    # the 24 x 32 grid resolves nmax 8 in beta (|n - 2k| <= 8 < 12) and
    # integrates every product of two modes exactly in alpha
    cp = CurvatureParam(kappa)
    tab = random_table(nmax, seed)
    back = xray.analyze(xray.synthesize(tab, xray.boundary_grid(cp, 24, 32)), nmax)
    want = np.array([c for _, c in tab.items()])
    got = np.array([back[nk] for nk, _ in tab.items()])
    assert [nk for nk, _ in back.items()] == [nk for nk, _ in tab.items()]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@settings(max_examples=10, deadline=None)
@given(kappa=st.floats(-0.95, 0.95), nmax=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_projector_idempotent(kappa, nmax, seed):
    # range modes plus co-kernel modes (k outside [0, n]) on a 32 x 48
    # template.  The projector is Q Q^H per beta bin with Q orthonormal in
    # the grid's inner product, so it is idempotent to rounding at every
    # kappa; the torus chain id + C-^2 it replaced gave 5e-2 at |kappa| =
    # 0.9, and the property used to be stated on [-0.7, 0.7] only
    cp = CurvatureParam(kappa)
    u = xray.synthesize(random_table(nmax, seed, k_pad=2), xray.boundary_grid(cp, 32, 48))
    once = boundary.project_to_range(u)
    twice = boundary.project_to_range(once.projected)
    diff = np.linalg.norm(twice.projected.values - once.projected.values)
    assert diff <= 1e-9 * np.linalg.norm(u.values)


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                   min_size=1, max_size=40))
@example(xs=[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, float("inf"), float("-inf"),
             float("nan"), 1e308, -1e308, 1.7976931348623157e308])
def test_g17_kernel_matches_percent_format(xs):
    # the grid writers' vectorised %.17g, byte for byte, on any double
    x = np.array(xs)
    assert fileio._g17(x, b",").tolist() == [b"%.17g," % v for v in xs]
