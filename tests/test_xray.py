"""Forward transform, adjoint, inner products, SVD machinery, inversion."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from diskxray import basis, boundary, geometry, selftest, xray
from diskxray.geometry import CurvatureParam, exit_time


def ones(z):
    return np.ones(np.shape(z), dtype=complex)


def band_limited(cp, nmax, seed):
    """Random band-limited w_kappa-weighted disk function (and its coefficient table)."""
    rng = np.random.default_rng(seed)
    tab = basis.CoeffTable(nmax=nmax)
    for n in range(nmax + 1):
        for k in range(n + 1):
            tab[(n, k)] = complex(rng.normal(), rng.normal())

    def f(z):
        out = np.zeros(np.shape(z), dtype=complex)
        for (n, k), c in tab.items():
            out += c * basis.zernike_kappa_hat(n, k, z, cp)
        return out * basis.w_kappa(z, cp)

    return f, tab


class TestGrids:
    @pytest.mark.parametrize("kappa", [-0.5, 0.0, 0.5])
    def test_boundary_mass(self, kappa, hold):
        hold(selftest.quadrature_masses, kappa)

    @pytest.mark.parametrize("kappa", [-0.9, 0.9])
    def test_boundary_mass_extreme(self, kappa, hold):
        hold(selftest.quadrature_masses, kappa)

    @pytest.mark.parametrize("kappa", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_disk_mass(self, kappa, hold):
        hold(selftest.quadrature_masses, kappa)

    def test_cached_gauss_legendre_nodes_are_leggauss(self):
        cp = CurvatureParam(0.4)
        for n in (1, 7, 64):
            x, w = np.polynomial.legendre.leggauss(n)
            bg = xray.boundary_grid(cp, 4, n)
            assert np.array_equal(bg.alpha, geometry.sig_inverse(0.5 * np.pi * x, cp))
            assert np.array_equal(bg.alpha_weights, 0.5 * np.pi * w / geometry.sig_prime(bg.alpha, cp))
            dg = xray.disk_grid(cp, n, 4)
            assert np.array_equal(dg.rho, 0.5 * (x + 1.0))
            assert np.array_equal(dg.rho_weights, 0.5 * w)
            cx, cw = xray._gauss_legendre(n)
            assert np.array_equal(cx, x) and np.array_equal(cw, w)

    @pytest.mark.parametrize("kappa", [-0.99, 0.0, 0.9])
    @pytest.mark.parametrize("n_alpha", [63, 64])
    def test_derived_nodes_are_the_explicit_construction(self, kappa, n_alpha):
        # the derived nodes are the explicit construction, bit for bit;
        # the adjoint's mirror classes and the S_A flip rest on
        # alpha = -alpha[::-1]
        cp = CurvatureParam(kappa)
        x, w = np.polynomial.legendre.leggauss(n_alpha)
        bg = xray.boundary_grid(cp, 10, n_alpha)
        alpha = geometry.sig_inverse(0.5 * np.pi * x, cp)
        assert np.array_equal(bg.beta, np.arange(10) * 2 * np.pi / 10)
        assert np.array_equal(bg.alpha, alpha)
        assert np.array_equal(bg.alpha_weights, 0.5 * np.pi * w / geometry.sig_prime(alpha, cp))
        assert np.array_equal(bg.alpha, -bg.alpha[::-1])
        dg = xray.disk_grid(cp, n_alpha, 10)
        assert np.array_equal(dg.rho, 0.5 * (x + 1.0)) and np.array_equal(dg.rho_weights, 0.5 * w)
        assert np.array_equal(dg.omega, np.arange(10) * 2 * np.pi / 10)

    def test_grid_is_its_curvature_and_values(self):
        cp = CurvatureParam(0.4)
        for grid, nodes in ((xray.boundary_grid(cp, 8, 6), ("beta", "alpha", "alpha_weights")),
                            (xray.disk_grid(cp, 6, 8), ("rho", "rho_weights", "omega"))):
            for name in nodes:
                with pytest.raises(TypeError):
                    dataclasses.replace(grid, **{name: getattr(grid, name)})
                with pytest.raises(AttributeError):
                    setattr(grid, name, getattr(grid, name))
        assert [f.name for f in dataclasses.fields(xray.BoundaryGrid)] == ["kappa", "values"]
        assert [f.name for f in dataclasses.fields(xray.DiskGrid)] == ["kappa", "values", "measure"]

    @pytest.mark.parametrize("make", [xray.BoundaryGrid, xray.DiskGrid])
    def test_construction_rejects_bad_kappa_and_shape(self, make):
        with pytest.raises(ValueError, match="kappa"):
            make(1.0, np.zeros((4, 6), dtype=complex))
        with pytest.raises(ValueError, match="2-d"):
            make(0.4, np.zeros(6, dtype=complex))

    @pytest.mark.parametrize("make, shape", [
        (xray.boundary_grid, (0, 64)),  # built, and its norm() divided by zero
        (xray.boundary_grid, (96, 0)),  # failed inside leggauss
        (xray.disk_grid, (8, 0)),  # built
        (xray.disk_grid, (0, 8)),
    ])
    def test_construction_rejects_an_empty_axis(self, make, shape):
        with pytest.raises(ValueError, match=r"a node on each axis, got shape \(\d+, \d+\)"):
            make(CurvatureParam(0.4), *shape)

    def test_cached_gauss_legendre_nodes_are_read_only(self):
        x, w = xray._gauss_legendre(16)
        for arr in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        assert np.array_equal(xray._gauss_legendre(16)[0], np.polynomial.legendre.leggauss(16)[0])

    def test_alpha_nodes_strictly_inward(self):
        g = xray.boundary_grid(CurvatureParam(0.8), 8, 64)
        assert np.all(np.abs(g.alpha) < np.pi / 2)

    def test_measure_tags(self):
        cp = CurvatureParam(0.4)
        with pytest.raises(ValueError):
            xray.disk_grid(cp, 8, 8, measure="bogus").weights()

    def test_measure_tag_checked_at_construction(self):
        cp = CurvatureParam(0.4)
        with pytest.raises(ValueError, match="bogus"):
            xray.disk_grid(cp, 8, 8, measure="bogus")
        grid = xray.disk_grid(cp, 8, 8)
        assert grid.with_values(grid.values).measure == "vol"
        with pytest.raises(ValueError, match="bogus"):
            dataclasses.replace(grid, measure="bogus")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_disk_grid_rejects_non_finite_values(self, bad):
        grid = xray.disk_grid(CurvatureParam(0.4), 6, 8)
        values = np.ones(grid.shape, dtype=complex)
        values[2, 5] = bad
        with pytest.raises(xray._NonFiniteValues):
            grid.with_values(values)
        with pytest.raises(xray._NonFiniteValues):
            dataclasses.replace(grid, values=values)


class TestForward:
    def test_constant_integrates_to_exit_time(self):
        cp = CurvatureParam(0.5)
        got = xray.forward(ones, 0.3, 0.55, cp)
        assert got == pytest.approx(exit_time(0.55, cp), abs=1e-12)

    def test_euclidean_diameter(self):
        got = xray.forward(ones, 1.0, 0.0, CurvatureParam(0.0))
        assert got == pytest.approx(2.0, abs=1e-13)

    def test_rejects_outward(self):
        with pytest.raises(ValueError):
            xray.forward(ones, 0.0, 2.5, CurvatureParam(0.0))

    def test_empty_batch_never_calls_f(self):
        def f(z):
            raise AssertionError("f called on an empty batch")

        for beta, alpha in ((np.empty(0), np.empty(0)), (np.empty((0, 1)), np.zeros(3))):
            got = xray.forward(f, beta, alpha, CurvatureParam(0.3))
            assert got.shape == np.broadcast_shapes(beta.shape, alpha.shape) and got.dtype == complex

    @pytest.mark.parametrize("n_nodes, error", [(0, ValueError), (-5, ValueError), (64.5, TypeError),
                                                 (64.0, TypeError)])
    def test_rejects_bad_node_count(self, n_nodes, error):
        # 0 and -5 used to integrate quietly with 4 nodes per panel, and
        # 64.5 failed inside leggauss
        cp = CurvatureParam(0.3)
        with pytest.raises(error):
            xray.forward(ones, 0.4, 0.2, cp, n_nodes=n_nodes)
        with pytest.raises(error):
            xray.sinogram(ones, xray.boundary_grid(cp, 4, 4), n_nodes=n_nodes)
        assert xray.forward(ones, 0.4, 0.2, cp, n_nodes=np.int64(64)) == xray.forward(ones, 0.4, 0.2, cp)

    def test_tangential_integrates_to_zero(self):
        got = xray.forward(ones, 0.4, np.pi / 2, CurvatureParam(0.3))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_nonfinite_integrand_reported(self):
        cp = CurvatureParam(0.0)

        def bad(z):
            out = ones(z)
            return np.where(np.abs(z) < 0.2, np.nan, out)

        with pytest.raises(ValueError, match="non-finite"):
            xray.forward(bad, 0.0, 0.0, cp)

    def test_single_mode_identity(self):
        # forward of w * Zhat_{0,0} is sigma_0 psi_hat_{0,0} pointwise
        cp = CurvatureParam(0.5)
        rng = np.random.default_rng(0)
        f = lambda z: basis.w_kappa(z, cp) * basis.zernike_kappa_hat(0, 0, z, cp)
        for _ in range(10):
            beta, alpha = rng.uniform(0, 2 * np.pi), rng.uniform(-1.4, 1.4)
            got = xray.forward(f, beta, alpha, cp)
            want = xray.singular_value(0, cp) * basis.psi_kappa_hat(0, 0, beta, alpha, cp)
            assert got == pytest.approx(complex(want), abs=1e-8)

    def test_broadcasts_like_pointwise_calls(self):
        cp = CurvatureParam(0.4)
        assert exit_time(0.0, cp) < xray._PANEL_LENGTH
        f = lambda z: np.exp(z) * basis.w_kappa(z, cp)
        tpl = xray.boundary_grid(cp, 3, 4)
        got = xray.forward(f, tpl.beta[:, None], tpl.alpha[None, :], cp)
        assert got.shape == (3, 4) and got.dtype == complex
        assert np.array_equal(got, xray.sinogram(f, tpl).values)
        pointwise = np.array([[xray.forward(f, b, a, cp) for a in tpl.alpha] for b in tpl.beta])
        assert np.array_equal(got, pointwise)
        scalar = xray.forward(f, np.array(tpl.beta[1]), tpl.alpha[2], cp)
        assert isinstance(scalar, complex) and np.ndim(scalar) == 0
        assert scalar == pointwise[1, 2]

    @pytest.mark.parametrize("kappa", [-0.9, 0.0, 0.4, 0.9])
    def test_point_value_does_not_depend_on_its_batch(self, kappa):
        # the panel count used to follow a call's longest chord, and a
        # matmul sums a row in an order that follows the batch: a point
        # alone and in this batch of 12 differed by up to 6.4e-15
        cp = CurvatureParam(kappa)
        rng = np.random.default_rng(12)
        beta, alpha = rng.uniform(0, 2 * np.pi, 12), rng.uniform(-1.5, 1.5, 12)
        alpha[:3] = [1.5, 1.55, -1.56]  # short chords: alone, they needed fewer panels
        f = band_limited(cp, 4, 13)[0]
        batch = xray.forward(f, beta, alpha, cp)
        alone = np.array([xray.forward(f, b, a, cp) for b, a in zip(beta, alpha)])
        assert np.array_equal(batch, alone)
        assert np.array_equal(batch[3:], xray.forward(f, beta[3:], alpha[3:], cp))

    def test_quadrature_convergence(self, hold):
        hold(selftest.quadrature_convergence, 0.5)


class TestSinogram:
    def test_zero_function(self):
        cp = CurvatureParam(0.2)
        g = xray.sinogram(lambda z: np.zeros(np.shape(z), complex), xray.boundary_grid(cp, 8, 8))
        assert np.all(g.values == 0)

    def test_constant_rotation_invariance(self):
        cp = CurvatureParam(-0.4)
        g = xray.sinogram(ones, xray.boundary_grid(cp, 12, 16))
        # independent of beta: every row equals the exit-time profile
        assert np.max(np.abs(g.values - g.values[0][None, :])) < 1e-12
        assert np.allclose(g.values[0].real, exit_time(g.alpha, cp))

    def test_mode_orthogonality(self):
        # sinogram of one deformed Zernike mode is orthogonal to every
        # other boundary singular function
        cp = CurvatureParam(0.5)
        tpl = xray.boundary_grid(cp, 48, 40)
        bb, aa = tpl.mesh()
        f = lambda z: basis.w_kappa(z, cp) * basis.zernike_kappa_hat(2, 1, z, cp)
        sg = xray.sinogram(f, tpl)
        for n in range(7):
            for k in range(n + 1):
                ip = xray.inner(sg, tpl.with_values(basis.psi_kappa_hat(n, k, bb, aa, cp)))
                want = xray.singular_value(2, cp) if (n, k) == (2, 1) else 0.0
                assert abs(ip - want) < 1e-7

    def test_disk_grid_input_rejected(self):
        # samples are not interpolated: a coefficient table goes in as the
        # callable w_kappa * zernike_kappa_series
        cp = CurvatureParam(0.3)
        dg = xray.disk_grid(cp, 8, 8)
        with pytest.raises(TypeError, match="zernike_kappa_series"):
            xray.sinogram(dg, xray.boundary_grid(cp, 8, 12))


class TestConstantCallables:
    """A callable may return a scalar: every entry point that samples one
    broadcasts it to the points, as if it had returned np.ones_like."""

    @pytest.mark.parametrize("kappa", [-0.9, 0.0, 0.4, 0.9])
    def test_scalar_equals_array_bit_for_bit(self, kappa):
        cp = CurvatureParam(kappa)
        tpl = xray.boundary_grid(cp, 8, 12)
        z = np.array([0.0, 0.3j, -0.5 + 0.2j])
        cases = [
            (lambda f: xray.forward(f, 0.1, 0.2, cp), lambda z: 1.0, np.ones_like),
            (lambda f: xray.forward(f, tpl.beta[:, None], tpl.alpha, cp), lambda z: 1.0, np.ones_like),
            (lambda f: xray.sinogram(f, tpl).values, lambda z: 1.0, np.ones_like),
            (lambda f: xray.adjoint_sharp(f, z, cp), lambda b, a: 1.0, lambda b, a: np.ones_like(b)),
            (lambda f: boundary.project_to_range(f, tpl).projected.values,
             lambda b, a: 1.0, lambda b, a: np.ones_like(b)),
            (lambda f: boundary.p_minus(f, tpl).values, lambda b, a: 1.0, lambda b, a: np.ones_like(b)),
            (lambda f: boundary.c_minus(f, tpl).values, lambda b, a: 1.0, lambda b, a: np.ones_like(b)),
        ]
        for apply, scalar, array in cases:
            assert np.array_equal(apply(scalar), apply(array))

    @pytest.mark.parametrize("kappa", [-0.9, 0.0, 0.4, 0.9])
    def test_unit_sinogram_is_exit_time(self, kappa):
        # the CLI's unit route writes exit_time(alpha) at every beta
        cp = CurvatureParam(kappa)
        tpl = xray.boundary_grid(cp, 8, 12)
        got = xray.sinogram(lambda z: 1.0, tpl).values
        assert np.max(np.abs(got - exit_time(tpl.alpha, cp)[None, :])) <= 1e-14


class TestAdjoint:
    def test_constant_gives_fiber_length(self):
        cp = CurvatureParam(0.5)
        g = lambda beta, alpha: np.ones(np.shape(beta), complex)
        rng = np.random.default_rng(1)
        z = rng.uniform(0, 0.95, 8) * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        assert np.max(np.abs(xray.adjoint_sharp(g, z, cp) - 2 * np.pi)) < 1e-12

    def test_rejects_boundary_point(self):
        cp = CurvatureParam(0.1)
        with pytest.raises(ValueError):
            xray.adjoint_sharp(lambda b, a: ones(b), 1.0 + 0j, cp)

    @pytest.mark.parametrize("n_theta", [0, -3])
    def test_rejects_empty_theta_rule(self, n_theta):
        cp = CurvatureParam(0.1)
        with pytest.raises(ValueError, match="n_theta"):
            xray.adjoint_sharp(lambda b, a: ones(b), 0.2 + 0j, cp, n_theta=n_theta)

    @pytest.mark.parametrize("kappa", [-0.5, 0.5])
    def test_kernel_modes(self, kappa, hold):
        hold(selftest.adjoint_kernel, kappa)

    @pytest.mark.parametrize("kappa", [-0.5, 0.5])
    def test_produces_deformed_zernike(self, kappa):
        cp = CurvatureParam(kappa)
        rng = np.random.default_rng(3)
        z = rng.uniform(0, 0.9, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi, 10))
        for n in range(5):
            for k in range(n + 1):
                g = lambda beta, alpha, n=n, k=k: basis.psi_over_mu(n, k, beta, alpha, cp)
                vals = xray.adjoint_sharp(g, z, cp)
                assert np.max(np.abs(vals - basis.zernike_kappa(n, k, z, cp))) < 1e-7

    def test_boundary_grid_input(self):
        # adjoint accepts a sampled sinogram through the interpolant
        cp = CurvatureParam(0.4)
        tpl = xray.boundary_grid(cp, 48, 48)
        bb, aa = tpl.mesh()
        grid = tpl.with_values(basis.psi_over_mu(2, 1, bb, aa, cp))
        rng = np.random.default_rng(4)
        z = rng.uniform(0, 0.85, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        got = xray.adjoint_sharp(grid, z, cp)
        assert np.max(np.abs(got - basis.zernike_kappa(2, 1, z, cp))) < 1e-7

    def test_adjoint_duality(self):
        # kpad = 1 pads g by the co-kernel modes k = -1, n + 1; the pinned
        # values are those of the per-mode sum of psi_over_mu, whose terms
        # the psi/mu series only regroups
        check = next(c for c in selftest.CHECKS if c.measure is selftest.adjoint_duality)
        for kappa, kpad, per_mode in [
            (0.0, 0, 4.013995950410647e-15), (0.0, 1, 9.291108495117319e-15),
            (0.5, 0, 1.0017089770825896e-14), (0.5, 1, 1.2453819583131663e-14),
            (0.9, 0, 3.2829462769067967e-09), (0.9, 1, 4.385028249901608e-09),
        ]:
            got = selftest.adjoint_duality(CurvatureParam(kappa), kpad=kpad)
            assert got < check.tol
            assert abs(got - per_mode) < 1e-13, (kappa, kpad)

    @pytest.mark.parametrize("kappa", [-0.9, 0.0, 0.5, 0.9])
    def test_psi_over_mu_series_matches_per_mode_sum(self, kappa):
        cp = CurvatureParam(kappa)
        rng = np.random.default_rng(13)
        tab = selftest._random_table(rng, 4, kpad=2)
        beta = rng.uniform(0, 2 * np.pi, 500)
        alpha = np.concatenate([rng.uniform(-np.pi / 2, np.pi / 2, 497), [-np.pi / 2, 0.0, np.pi / 2]])
        want = sum(c * 2.0 * math.sqrt(1.0 + kappa) * basis.psi_over_mu(n, k, beta, alpha, cp)
                   for (n, k), c in tab.items())
        got = selftest._psi_hat_over_mu_series(tab, beta, alpha, cp)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_theta", [2.5, 3.0])
    def test_rejects_non_integer_theta_rule(self, n_theta):
        with pytest.raises(TypeError):
            xray.adjoint_sharp(lambda b, a: ones(b), 0.3 + 0j, CurvatureParam(0.0), n_theta=n_theta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.1, np.nan)])
    def test_rejects_non_finite_points(self, bad):
        # a NaN radius fails no |z| < 1 test: it must be stopped on entry
        cp = CurvatureParam(0.4)
        z = np.array([0.2 + 0.1j, bad])
        for g in (xray.boundary_grid(cp, 16, 16), lambda b, a: ones(b)):
            with pytest.raises(ValueError, match="finite"):
                xray.adjoint_sharp(g, z, cp)

    def test_numpy_integer_theta_rule(self):
        g = lambda beta, alpha: np.exp(1j * beta)
        cp = CurvatureParam(0.0)
        want = xray.adjoint_sharp(g, 0.3 + 0j, cp, n_theta=64)
        assert xray.adjoint_sharp(g, 0.3 + 0j, cp, n_theta=np.int64(64)) == want


def psi_series(tab, cp):
    """The callable sum of c psi_hat_{n,k}(beta, alpha) over tab, mode by
    mode through `basis.psi_kappa_hat`: it shares no code with
    `xray._FiberPlan`, which synthesizes and interpolates grids."""
    def fn(beta, alpha):
        return sum(c * basis.psi_kappa_hat(n, k, beta, alpha, cp) for (n, k), c in tab.items())

    return fn


def psi_sinogram(cp, nmax=6, seed=0):
    """Samples of a random nmax band of psi_hat on the default 96x64 grid;
    `psi_series(band_limited(cp, nmax, seed)[1], cp)` is its exact callable."""
    _, tab = band_limited(cp, nmax, seed)
    return xray.synthesize(tab, xray.boundary_grid(cp, 96, 64))


def hold_to_per_target(grid, z, cp, n_theta=512):
    """Grid-input adjoint_sharp (one fiber sum per O(2) class) against
    the per-target route through the grid's interpolant, to 1e-13."""
    got = xray.adjoint_sharp(grid, z, cp, n_theta=n_theta)
    want = xray.adjoint_sharp(grid.interpolant(), z, cp, n_theta=n_theta)
    assert np.shape(got) == np.shape(want) == np.shape(z)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    return got


def count_fiber_nodes(monkeypatch, grid, z, cp, n_theta=512, cold=True):
    """Fiber nodes grid-input adjoint_sharp forms, through footpoint_angles,
    from an empty plan cache unless cold is False."""
    if cold:
        xray._cached_adjoint_plan.cache_clear()
    nodes = []
    footpoint_angles = xray.footpoint_angles

    def counted(*args):
        bm, am = footpoint_angles(*args)
        nodes.append(am.size)
        return bm, am

    with monkeypatch.context() as m:
        m.setattr(xray, "footpoint_angles", counted)
        xray.adjoint_sharp(grid, z, cp, n_theta=n_theta)
    return sum(nodes)


class TestGridInterpolant:
    @pytest.mark.parametrize("kappa", [-0.9, 0.0, 0.4, 0.9])
    def test_grid_adjoint_matches_exact_callable(self, kappa):
        cp = CurvatureParam(kappa)
        z = xray.disk_grid(cp, 4, 6).points()
        got = xray.adjoint_sharp(psi_sinogram(cp), z, cp)
        want = xray.adjoint_sharp(psi_series(band_limited(cp, 6, 0)[1], cp), z, cp)
        assert np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("kappa", [-0.9, 0.0, 0.4, 0.9])
    def test_shared_fibers_match_per_target_route_on_polar_grid(self, kappa):
        # 12 radii x 3 offsets from the 512 theta nodes share 36 fibers
        cp = CurvatureParam(kappa)
        hold_to_per_target(psi_sinogram(cp), xray.disk_grid(cp, 12, 24).points(), cp)

    @pytest.mark.parametrize("n_theta", [1, 7, 512])
    @pytest.mark.parametrize("kappa", [-0.9, 0.0, 0.4, 0.9])
    def test_shared_fibers_match_per_target_route(self, kappa, n_theta):
        cp = CurvatureParam(kappa)
        grid = psi_sinogram(cp)
        rng = np.random.default_rng(7)
        radii = xray.disk_grid(cp, 6, 1).rho
        polar = xray.disk_grid(cp, 4, 6).points()
        step = 2 * np.pi / n_theta
        nodes = np.arange(-2, 3) * step
        cases = {
            "no shared phase": radii[:, None] * np.exp(1j * rng.uniform(-np.pi, np.pi, (6, 4))),
            "distinct radii": np.sqrt(rng.uniform(0, 0.95, 30)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 30)),
            "duplicates": np.repeat(polar.ravel(), 2),
            "origin": np.array([0j, complex(-0.0, -0.0), 0.3 + 0j, 0j]),
            "across pi": 0.6 * np.exp(1j * np.array([np.pi, -np.pi, np.pi - 1e-9, -np.pi + 1e-9])),
            "on the negative axis": np.array([complex(-0.6, 0.0), complex(-0.6, -0.0), -0.2 + 1e-17j]),
            "scalar": np.complex128(0.3 - 0.2j),
            "empty": np.empty((0, 3), dtype=complex),
            # every point reads its class's own fold, or every point its mirror image
            "all at +step/3": radii[:, None] * np.exp(1j * (nodes + step / 3)),
            "all at -step/3": radii[:, None] * np.exp(1j * (nodes - step / 3)),
        }
        for name, z in cases.items():
            got = hold_to_per_target(grid, z, cp, n_theta)
            if name.startswith("all at"):
                assert np.all(xray._adjoint_plan(grid, z, n_theta)._mirror == name.endswith("-step/3"))
            if name == "duplicates":
                assert np.array_equal(got[0::2], got[1::2])
            if name == "scalar":
                assert np.shape(got) == ()

    def test_theta_rule_longer_than_a_block(self):
        # one class's fiber nodes then span several blocks
        cp = CurvatureParam(0.4)
        z = xray.disk_grid(cp, 2, 3).points()
        hold_to_per_target(psi_sinogram(cp), z, cp, n_theta=2 * xray._BLOCK + 3)

    def test_fibers_evaluated_once_per_class(self, monkeypatch):
        # |rho e^{i omega}| differs by an ulp across omega, so grouping
        # radii on exact equality would find 80 classes on 12x24, not 36.
        # 12x24: 12 radii on the theta nodes (delta = 0, each its own
        # mirror image: nodes 0 .. 256) and 12 mirror pairs delta = +-step/3
        # (one fold of 512 nodes each); 128x256 is all on the nodes;
        # random points have no mirror partners
        cp = CurvatureParam(0.4)
        grid = psi_sinogram(cp)
        rng = np.random.default_rng(8)
        distinct = np.sqrt(rng.uniform(0, 0.95, 288)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 288))
        for z, nodes in ((xray.disk_grid(cp, 12, 24).points(), 12 * 257 + 12 * 512),
                         (xray.disk_grid(cp, 128, 256).points(), 128 * 257),
                         (distinct, 288 * 512)):
            assert count_fiber_nodes(monkeypatch, grid, z, cp) == nodes

    def test_half_step_ties_on_mirror_path(self):
        # 24 angles on 36 theta nodes: odd multiples of 2 pi / 24 sit half
        # a step off the nodes, where the offset's sign is a tie
        cp = CurvatureParam(0.4)
        hold_to_per_target(psi_sinogram(cp), xray.disk_grid(cp, 4, 24).points(), cp, n_theta=36)

    @pytest.mark.parametrize("n_theta", [1, 2, 7])
    def test_odd_and_tiny_theta_rules_on_mirror_path(self, n_theta):
        # on-node classes fold nodes 0 .. n_theta/2 with weight 1/2 on the
        # nodes that are their own mirror images; z and conj(z) pair up
        cp = CurvatureParam(-0.5)
        rng = np.random.default_rng(9)
        z = np.sqrt(rng.uniform(0, 0.95, 6)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
        points = np.concatenate((xray.disk_grid(cp, 4, 24).points().ravel(), z, z.conj()))
        hold_to_per_target(psi_sinogram(cp), points, cp, n_theta=n_theta)

    @pytest.mark.parametrize("kappa", [-0.99, 0.99])
    def test_mirror_path_near_degenerate(self, kappa):
        cp = CurvatureParam(kappa)
        hold_to_per_target(psi_sinogram(cp), xray.disk_grid(cp, 12, 24).points(), cp)

    def test_plan_serves_new_values_without_fiber_nodes(self, monkeypatch):
        # the folds depend on the geometry alone: a second call with other
        # values forms no fiber node and still matches the per-target route
        cp = CurvatureParam(0.4)
        z = xray.disk_grid(cp, 12, 24).points()
        first, second = psi_sinogram(cp, seed=0), psi_sinogram(cp, seed=1)
        assert count_fiber_nodes(monkeypatch, first, z, cp) == 12 * 257 + 12 * 512
        assert count_fiber_nodes(monkeypatch, second, z, cp, cold=False) == 0
        hold_to_per_target(second, z, cp)

    def test_plan_keyed_on_bytes_not_identity(self):
        # the caller's points changed in place between calls are a new
        # geometry, not the memoised one; the grid's nodes cannot change
        cp = CurvatureParam(0.4)
        grid = psi_sinogram(cp)
        z = xray.disk_grid(cp, 4, 6).points()
        before = hold_to_per_target(grid, z, cp)
        z *= 0.5
        moved = hold_to_per_target(grid, z, cp)
        assert np.linalg.norm(moved - before) > 1e-3 * np.linalg.norm(before)
        for nodes in (grid.alpha, grid.alpha_weights):
            with pytest.raises(ValueError, match="read-only"):
                nodes[:] = xray.boundary_grid(CurvatureParam(0.0), 96, 64).alpha
        with pytest.raises(AttributeError):
            grid.alpha = xray.boundary_grid(CurvatureParam(0.0), 96, 64).alpha

    def test_odd_alpha_count_on_mirror_path(self, monkeypatch):
        # 63 nodes: the middle column of an own-image fold is real and kept once
        cp = CurvatureParam(0.4)
        _, tab = band_limited(cp, 6, 0)
        grid = xray.synthesize(tab, xray.boundary_grid(cp, 96, 63))
        z = xray.disk_grid(cp, 12, 24).points()
        assert count_fiber_nodes(monkeypatch, grid, z, cp) == 12 * 257 + 12 * 512  # mirror classes
        hold_to_per_target(grid, z, cp)

    def test_plan_arrays_read_only(self):
        # the adjoint plan and the fiber plan it reads, lazy parts built
        cp = CurvatureParam(0.4)
        plan = xray._adjoint_plan(xray.boundary_grid(cp, 96, 64), xray.disk_grid(cp, 12, 24).points(), 512)
        assert plan.fiber.band == 29 and plan.fiber._range_basis  # builds the lazy parts

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    yield from arrays(item)
            elif isinstance(obj, xray._FiberPlan):
                yield from arrays(list(vars(obj).values()))

        found = list(arrays(list(vars(plan).values())))
        fiber = list(arrays(list(vars(plan.fiber).values())))
        assert plan._folds and len(found) > 10 and len(fiber) == 9  # q, mask, phase among them
        assert not any(a.flags.writeable for a in found)

    def test_plan_past_budget_streams_its_folds(self):
        # 400 distinct radii are 400 classes of 49x64 folds, 20 MB, past
        # _PLAN_BYTES: the plan keeps only each point's class and mirror bit,
        # every call folds the fibers again, so little stays behind a call
        cp = CurvatureParam(0.4)
        grid = psi_sinogram(cp)
        rng = np.random.default_rng(10)
        z = np.sqrt(rng.uniform(0, 0.95, 400)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 400))
        xray._cached_adjoint_plan.cache_clear()
        tracemalloc.start()
        try:
            got = xray.adjoint_sharp(grid, z, cp)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2**20
        assert xray._adjoint_plan(grid, z, 512)._folds is None
        want = xray.adjoint_sharp(grid.interpolant(), z, cp)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        hold_to_per_target(grid, z, cp)  # a second call streams the same folds

    @pytest.mark.parametrize("kappa", [-0.9, 0.4])
    def test_reproduces_samples_at_nodes(self, kappa):
        # targets on the alpha nodes take the exact-hit rows
        grid = psi_sinogram(CurvatureParam(kappa))
        bb, aa = grid.mesh()
        got = grid.interpolant()(bb, aa)
        assert np.max(np.abs(got - grid.values)) < 1e-13 * np.max(np.abs(grid.values))

    def test_target_counts_and_shapes(self):
        cp = CurvatureParam(0.4)
        fn = psi_sinogram(cp, nmax=3, seed=1).interpolant()
        exact = psi_series(band_limited(cp, 3, 1)[1], cp)
        rng = np.random.default_rng(2)
        for count in (0, 1, 2 * xray._BLOCK + 3):
            b = rng.uniform(0, 2 * np.pi, count)
            a = rng.uniform(-np.pi / 2, np.pi / 2, count)
            got = fn(b, a)
            assert got.shape == (count,)
            assert np.allclose(got, exact(b, a), rtol=0, atol=1e-12)
        scalar = fn(0.3, -0.2)
        assert np.shape(scalar) == () and abs(scalar - exact(0.3, -0.2)) < 1e-12
        b, a = rng.uniform(0, 2 * np.pi, (5, 1)), rng.uniform(-1.5, 1.5, (1, 7))
        got = fn(b, a)
        assert got.shape == (5, 7)
        assert np.allclose(got, exact(b, a), rtol=0, atol=1e-12)

    def test_adjoint_memory_bounded(self):
        # 12x24 points at n_theta 512 are 147456 targets; a dense
        # targets x n_beta evaluation would hold hundreds of MB.  The
        # CLI-default 128x256 disk grid has 32768 points, so its per-point
        # phase sums must be blocked as well
        cp = CurvatureParam(0.4)
        grid = psi_sinogram(cp)
        for shape in ((12, 24), (128, 256)):
            z = xray.disk_grid(cp, *shape).points()
            tracemalloc.start()
            try:
                xray.adjoint_sharp(grid, z, cp, n_theta=512)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20, shape

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, bad):
        cp = CurvatureParam(0.4)
        grid = xray.boundary_grid(cp, 16, 16)
        values = np.ones(grid.shape, dtype=complex)
        values[3, 4] = bad
        with pytest.raises(ValueError):
            xray.adjoint_sharp(grid.with_values(values), np.array([0.3 + 0.1j]), cp)
        with pytest.raises(ValueError):
            dataclasses.replace(grid, values=values)


class TestKappaMismatch:
    """A grid's kappa is the only kappa its paths read: a function that
    takes a grid takes no cp, and two inputs of different curvature are
    rejected with both values named, not read in the wrong geometry."""

    GRID, CP = CurvatureParam(0.4), CurvatureParam(-0.5)
    MESSAGE = r"kappa=0\.4 .*kappa=-0\.5"

    def ones_grid(self):
        grid = xray.boundary_grid(self.GRID, 16, 64)
        return grid.with_values(np.ones(grid.shape))

    def test_adjoint_sharp(self):
        # would return -68.4 where 2 pi is right
        with pytest.raises(ValueError, match=self.MESSAGE):
            xray.adjoint_sharp(self.ones_grid(), np.array([0.3 + 0.1j]), self.CP)
        assert abs(xray.adjoint_sharp(self.ones_grid(), 0.3 + 0.1j, self.GRID) - 2 * np.pi) < 1e-8

    def test_sinogram(self):
        # given cp kappa -0.5, a kappa 0.4 template came back labelled 0.4
        # and holding the kappa -0.5 chord lengths, 0.036 first
        got = xray.sinogram(lambda z: np.ones(np.shape(z)), xray.boundary_grid(self.GRID, 8, 8))
        want = exit_time(got.alpha, self.GRID)
        assert got.kappa == 0.4
        assert np.max(np.abs(got.values - want[None, :])) < 1e-12

    def test_analyze(self):
        grid = self.ones_grid()
        bb, aa = grid.mesh()
        for (n, k), c in xray.analyze(grid, 2).items():
            mode = grid.with_values(basis.psi_kappa_hat(n, k, bb, aa, self.GRID))
            assert abs(c - xray.inner(grid, mode)) < 1e-12

    def test_synthesize(self):
        table = basis.CoeffTable(nmax=1, entries={(1, 0): 1.0})
        boundary_tpl, disk_tpl = self.ones_grid(), xray.disk_grid(self.GRID, 4, 4)
        got = xray.synthesize(table, boundary_tpl)
        want = basis.psi_kappa_hat(1, 0, *boundary_tpl.mesh(), self.GRID)
        assert got.kappa == 0.4 and np.max(np.abs(got.values - want)) < 1e-12
        got = xray.synthesize(table, disk_tpl)
        want = basis.zernike_kappa_hat(1, 0, disk_tpl.points(), self.GRID)
        assert got.kappa == 0.4 and np.max(np.abs(got.values - want)) < 1e-12

    def test_invert(self):
        g = self.ones_grid()
        with pytest.raises(ValueError, match=self.MESSAGE):
            xray.invert(g, 2, disk_template=xray.disk_grid(self.CP, 8, 8))
        assert xray.invert(g, 2).recon.kappa == 0.4  # the default template takes g's kappa

    def test_project_to_range(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            boundary.project_to_range(self.ones_grid(), template=xray.boundary_grid(self.CP, 16, 64))
        # a callable is read on the template, at the template's kappa
        got = boundary.project_to_range(lambda b, a: ones(b), template=self.ones_grid())
        assert np.array_equal(got.projected.values,
                              boundary.project_to_range(self.ones_grid()).projected.values)

    def test_moment_residuals(self):
        # the kappa 0.4 range mode psi_hat(2, 0) has no moments at its own
        # kappa; its samples read at kappa -0.5 have a normalized moment 0.28
        grid = self.ones_grid()
        bb, aa = grid.mesh()
        rep = boundary.moment_residuals(grid.with_values(basis.psi_kappa_hat(2, 0, bb, aa, self.GRID)), 2, 1)
        assert rep.in_range and rep.max_normalized < 1e-14
        rep = boundary.moment_residuals(grid.with_values(basis.psi_kappa_hat(2, -1, bb, aa, self.GRID)), 2, 1)
        assert not rep.in_range and rep.max_normalized == pytest.approx(1.0, rel=1e-12)


class TestInnerProducts:
    def test_psi_norm(self):
        cp = CurvatureParam(0.3)
        g = xray.boundary_grid(cp, 16, 48)
        bb, aa = g.mesh()
        f = g.with_values(basis.psi_kappa(2, 1, bb, aa, cp))
        assert xray.inner(f, f) == pytest.approx(1 / (4 * 1.3), abs=1e-10)

    def test_positivity(self):
        cp = CurvatureParam(-0.2)
        g = xray.boundary_grid(cp, 8, 16)
        rng = np.random.default_rng(7)
        f = g.with_values(rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        assert xray.inner(f, f).real > 0
        z = g.with_values(np.zeros(g.shape))
        assert xray.inner(z, z) == 0

    def test_zernike_kappa_cross_terms(self):
        cp = CurvatureParam(0.4)
        dg = xray.disk_grid(cp, 96, 32, measure="weighted")
        pts = dg.points()
        f1 = dg.with_values(basis.zernike_kappa(3, 1, pts, cp))
        f2 = dg.with_values(basis.zernike_kappa(3, 2, pts, cp))
        assert abs(xray.inner(f1, f2)) < 1e-8

    def test_grid_mismatch_rejected(self):
        cp = CurvatureParam(0.1)
        g1 = xray.boundary_grid(cp, 8, 16)
        g2 = xray.boundary_grid(cp, 8, 24)
        with pytest.raises(ValueError, match="nodes differ"):
            xray.inner(g1, g2)
        d1 = xray.disk_grid(cp, 8, 8, measure="vol")
        d2 = xray.disk_grid(cp, 8, 8, measure="weighted")
        with pytest.raises(ValueError, match="measures differ"):
            xray.inner(d1, d2)

    def test_grids_of_different_kinds_rejected(self):
        # a boundary and a disk grid of one kappa and shape share no nodes:
        # the boundary product of the two returned 13.89, and the disk
        # product of two boundary grids failed with AttributeError
        cp = CurvatureParam(0.4)
        bg = xray.boundary_grid(cp, 8, 8)
        bg = bg.with_values(np.ones(bg.shape))
        dg = xray.disk_grid(cp, 8, 8)
        dg = dg.with_values(np.ones(dg.shape))
        for pair in ((bg, dg), (dg, bg)):
            with pytest.raises(ValueError, match="cannot pair a (Boundary|Disk)Grid with a (Disk|Boundary)Grid"):
                xray.inner(*pair)
        assert xray.inner(bg, bg) == pytest.approx(bg.norm() ** 2, rel=1e-15)
        assert xray.inner(dg, dg) == pytest.approx(dg.norm() ** 2, rel=1e-15)


class TestAnalyzeSynthesize:
    def test_round_trip(self):
        cp = CurvatureParam(0.5)
        tpl = xray.boundary_grid(cp, 48, 40)
        rng = np.random.default_rng(8)
        tab = basis.CoeffTable(nmax=6)
        for n in range(7):
            for k in range(n + 1):
                tab[(n, k)] = complex(rng.normal(), rng.normal())
        grid = xray.synthesize(tab, tpl)
        back = xray.analyze(grid, 6)
        err = max(abs(back[nk] - tab[nk]) for nk, _ in tab.items())
        assert err < 1e-9

    def test_sinogram_gives_delta_table(self):
        cp = CurvatureParam(0.5)
        tpl = xray.boundary_grid(cp, 48, 40)
        f = lambda z: basis.w_kappa(z, cp) * basis.zernike_kappa_hat(3, 1, z, cp)
        tab = xray.analyze(xray.sinogram(f, tpl), 5)
        for (n, k), c in tab.items():
            want = xray.singular_value(3, cp) if (n, k) == (3, 1) else 0.0
            assert abs(c - want) < 1e-8

    def test_zero_grid(self):
        cp = CurvatureParam(0.2)
        tpl = xray.boundary_grid(cp, 16, 16)
        tab = xray.analyze(tpl, 3)
        assert all(c == 0 for _, c in tab.items())

    def test_rejects_negative_nmax(self):
        cp = CurvatureParam(0.2)
        with pytest.raises(ValueError, match="analyze requires nmax >= 0"):
            xray.analyze(xray.boundary_grid(cp, 16, 10), -1)

    def test_aliasing_guard(self):
        cp = CurvatureParam(0.2)
        tpl = xray.boundary_grid(cp, 16, 10)
        with pytest.raises(ValueError, match="resolvable"):
            xray.analyze(tpl, 5)

    def test_gram_guard(self):
        # on 64 alpha nodes the range modes n <= 29 are orthonormal to
        # 5.9e-10; nmax 30 (9.9e-9) and 31 (1.3e-7) pass the old
        # 2 (nmax + 1) <= n_alpha rule, and nmax 31 recovered coefficients
        # only to 3.7e-7
        cp = CurvatureParam(0.4)
        tpl = xray.boundary_grid(cp, 96, 64)
        rng = np.random.default_rng(11)
        for nmax in (0, 16, 29):
            tab = basis.CoeffTable(nmax=nmax, entries={
                (n, k): complex(rng.normal(), rng.normal())
                for n in range(nmax + 1) for k in range(n + 1)})
            back = xray.analyze(xray.synthesize(tab, tpl), nmax)
            err = max(abs(back[nk] - c) for nk, c in tab.items())
            assert err < 1e-8
        for nmax in (30, 31):
            with pytest.raises(ValueError, match="Gram deviation"):
                xray.analyze(tpl, nmax)
            with pytest.raises(ValueError, match="Gram deviation"):
                xray.invert(tpl, nmax)

    def test_synthesize_requires_grid(self):
        with pytest.raises(TypeError):
            xray.synthesize(basis.CoeffTable(nmax=1), object())


def _max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestPolarSynthesis:
    """synthesize onto a DiskGrid sums each angular frequency m = n - 2k
    radially and multiplies by e^{i m omega}; the point-wise series and
    the per-mode sum at the grid's points are its oracles."""

    @pytest.mark.parametrize("shape", [(128, 256), (7, 5), (1, 3)])
    @pytest.mark.parametrize("nmax", [0, 6, 16])
    @pytest.mark.parametrize("kappa", [-0.99, -0.9, 0.0, 0.4, 0.9, 0.99])
    def test_matches_pointwise_series(self, kappa, nmax, shape):
        cp = CurvatureParam(kappa)
        tab = band_limited(cp, nmax, 40 + nmax)[1]
        grid = xray.disk_grid(cp, *shape)
        got = xray.synthesize(tab, grid).values
        z = grid.points()
        # The oracle evaluates at z = fl(rho e^{i omega}), whose modulus is
        # rho to an ulp; the series amplifies that by about
        # (nmax + 1)(1 + kappa rho^2) / (1 - kappa rho^2).  At kappa 0.99,
        # nmax 16 on 128 radii the exact series moves by 9e-13 between the
        # two points (long-double check), so 1e-13 alone cannot hold there.
        r2 = grid.rho**2
        cond = (nmax + 1) * np.max((1.0 + kappa * r2) / (1.0 - kappa * r2))
        tol = max(1e-13, 4.0 * np.finfo(float).eps * cond)
        assert _max_rel(got, basis.zernike_kappa_series(tab, z, cp)) < tol
        per_mode = sum(c * basis.zernike_kappa_hat(n, k, z, cp) for (n, k), c in tab.items())
        assert _max_rel(got, per_mode) < 1e-11

    @pytest.mark.parametrize("measure", xray._MEASURES)
    def test_values_and_tag_for_every_measure(self, measure):
        cp = CurvatureParam(0.4)
        tab = band_limited(cp, 6, 41)[1]
        grid = xray.disk_grid(cp, 7, 5, measure=measure)
        out = xray.synthesize(tab, grid)
        assert out.measure == measure
        assert _max_rel(out.values, basis.zernike_kappa_series(tab, grid.points(), cp)) < 1e-13
        assert np.array_equal(out.values, xray.synthesize(tab, xray.disk_grid(cp, 7, 5)).values)

    def test_empty_table_gives_exact_zeros(self):
        cp = CurvatureParam(0.4)
        out = xray.synthesize(basis.CoeffTable(nmax=3), xray.disk_grid(cp, 7, 5))
        assert out.shape == (7, 5)
        assert np.array_equal(out.values, np.zeros((7, 5), dtype=complex))

    @pytest.mark.parametrize("nk", [(2, 3), (2, -1)])
    def test_rejects_index_outside_disk_family(self, nk):
        cp = CurvatureParam(0.4)
        tab = band_limited(cp, 3, 42)[1]
        tab[nk] = 1.0
        grid = xray.disk_grid(cp, 7, 5)
        with pytest.raises(ValueError) as pointwise:
            basis.zernike_kappa_series(tab, grid.points(), cp)
        with pytest.raises(ValueError) as polar:
            xray.synthesize(tab, grid)
        n, k = nk
        assert str(polar.value) == str(pointwise.value) == f"zernike requires 0 <= k <= n, got (n,k)=({n},{k})"

    def test_rejects_radius_outside_closed_disk(self):
        cp = CurvatureParam(0.0)  # the map is the identity
        with pytest.raises(ValueError, match="closed unit disk"):
            basis.zernike_kappa_series(band_limited(cp, 2, 43)[1], np.array([0.5, 0.9, 1.01]), cp)

    @pytest.mark.parametrize("kappa", [-0.9, 0.4, 0.9])
    def test_invert_weights_each_radius(self, kappa):
        cp = CurvatureParam(kappa)
        tab = band_limited(cp, 6, 44)[1]
        image = basis.CoeffTable(nmax=6, entries={
            (n, k): xray.singular_value(n, cp) * c for (n, k), c in tab.items()})
        res = xray.invert(xray.synthesize(image, xray.boundary_grid(cp, 96, 64)), 6)
        z = res.recon.points()
        want = basis.w_kappa(z, cp) * basis.zernike_kappa_series(res.coeffs, z, cp)
        assert _max_rel(res.recon.values, want) < 1e-12


def full_grid_inner(g, modes, family, cp):
    """<g, family(n, k)> by quadrature of every mode over the whole grid:
    the per-mode oracle for the beta-spectral engine."""
    bb, aa = g.mesh()
    w = g.weights()
    return np.array([np.sum(w * g.values * np.conj(family(n, k, bb, aa, cp))) for n, k in modes])


class TestSpectralEngineOracle:
    """analyze/synthesize against per-mode full-grid psi quadrature; the
    grids are the smallest odd n_beta the beta-resolution check allows."""

    @pytest.mark.parametrize("kappa", [-0.9, 0.0, 0.4, 0.9])
    @pytest.mark.parametrize("nmax", [0, 6, 16])
    def test_analyze_matches_full_grid_quadrature(self, kappa, nmax):
        # n_alpha = 2 nmax + 4 met the old 2 (nmax + 1) <= n_alpha rule; the
        # Gram guard rejects it (deviation 1e-3, 3e-4, 4e-6), and 2 nmax + 12
        # is a few nodes above the smallest size it accepts
        cp = CurvatureParam(kappa)
        with pytest.raises(ValueError, match="Gram deviation"):
            xray.analyze(xray.boundary_grid(cp, 2 * nmax + 1, 2 * nmax + 4), nmax)
        g = xray.boundary_grid(cp, 2 * nmax + 1, 2 * nmax + 12)
        rng = np.random.default_rng(nmax)
        g = g.with_values(rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        table = xray.analyze(g, nmax)
        modes = [nk for nk, _ in table.items()]
        assert modes == [(n, k) for n in range(nmax + 1) for k in range(n + 1)]
        got = np.array([c for _, c in table.items()])
        want = full_grid_inner(g, modes, basis.psi_kappa_hat, cp)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("kappa", [-0.9, 0.0, 0.4, 0.9])
    @pytest.mark.parametrize("nmax", [0, 6, 16])
    def test_synthesize_matches_full_grid_sum(self, kappa, nmax):
        # k outside [0, n] and beta frequencies beyond the grid's band
        # included: on the nodes every mode is exact whatever its bin
        cp = CurvatureParam(kappa)
        tpl = xray.boundary_grid(cp, 2 * nmax + 1, 2 * nmax + 4)
        rng = np.random.default_rng(100 + nmax)
        tab = basis.CoeffTable(nmax=nmax)
        for n in range(nmax + 1):
            for k in range(-2, n + 3):
                tab[(n, k)] = complex(rng.normal(), rng.normal())
        got = xray.synthesize(tab, tpl)
        want = psi_series(tab, cp)(*tpl.mesh())
        assert np.linalg.norm(got.values - want) <= 1e-12 * np.linalg.norm(want)

    def test_empty_table_synthesizes_zeros(self):
        cp = CurvatureParam(0.4)
        tpl = xray.boundary_grid(cp, 9, 8)
        assert not np.any(xray.synthesize(basis.CoeffTable(nmax=3), tpl).values)

    @pytest.mark.parametrize("n_beta", [12, 13])
    def test_beta_resolution_check(self, n_beta):
        # nmax < n_beta / 2 passes; nmax >= n_beta / 2 would read a
        # frequency from an aliased FFT bin
        cp = CurvatureParam(0.3)
        tpl = xray.boundary_grid(cp, n_beta, 40)
        top = (n_beta - 1) // 2
        xray.analyze(tpl, top)
        with pytest.raises(ValueError, match="beta nodes"):
            xray.analyze(tpl, top + 1)
        with pytest.raises(ValueError, match="beta nodes"):
            xray.invert(tpl.with_values(np.ones(tpl.shape)), top + 1)


def gram_scan(grid):
    """max |G - I| of each band n <= N, bin by bin: in beta bin f the Gram
    matrix of the fiber factors sqrt(sig') (e^{i(2n-2k+1)s} + ...) of its
    range modes n = |f|, |f| + 2, ... against the grid's own alpha weights
    and bundle measure.  Oracle of `_FiberPlan.gram`'s profile form."""
    cp = CurvatureParam(grid.kappa)
    n_beta, n_alpha = grid.shape
    s, root = geometry.sig(grid.alpha, cp), np.sqrt(geometry.sig_prime(grid.alpha, cp))
    w = 2 * np.pi * grid.alpha_weights / (1 + grid.kappa)
    top = min((n_beta - 1) // 2, n_alpha)
    dev = np.zeros(top + 1)
    for f in range(-top, top + 1):
        n = np.arange(abs(f), top + 1, 2)
        k = (n - f) // 2
        sign = (1 - 2 * (n % 2))[:, None]
        pair = sign * np.exp(1j * np.outer(2 * n - 2 * k + 1, s)) + np.exp(-1j * np.outer(2 * k + 1, s))
        fibers = root * pair * (math.sqrt(1 + grid.kappa) / (2 * np.pi))
        gram = (fibers * w) @ fibers.conj().T
        np.maximum.at(dev, np.maximum.outer(n, n).ravel(), np.abs(gram - np.eye(len(n))).ravel())
    return np.maximum.accumulate(dev)


def product_rows(grid, alpha):
    """Barycentric rows in s at alpha from the weights 1 / prod_k (s_j - s_k)
    of the grid's nodes s = sig(alpha_j), sqrt(sig') restored: oracle of
    `_FiberPlan.rows_at`'s closed-form weights (targets off the nodes)."""
    cp = CurvatureParam(grid.kappa)
    s = geometry.sig(grid.alpha, cp)
    diff = (4.0 / np.ptp(s)) * (s[:, None] - s)  # capacity scaling: no overflow
    np.fill_diagonal(diff, 1.0)
    rows = (1.0 / diff.prod(axis=1)) / np.subtract.outer(geometry.sig(alpha, cp), s)
    return rows / rows.sum(axis=1)[:, None] * np.sqrt(geometry.sig_prime(alpha, cp))[:, None]


def bin_projector(grid):
    """The grid's values projected bin by bin: in beta bin f of the band
    (from `gram_scan`), one complex QR of the sqrt(weight)-scaled fiber
    factors sqrt(sig') (e^{i(2n-2k+1)s} + ...) of its range modes
    n = |f|, |f| + 2, ..., applied as Q Q^H to the FFT over beta.  Oracle
    of `_FiberPlan.project`'s two real QRs."""
    cp = CurvatureParam(grid.kappa)
    s, root = geometry.sig(grid.alpha, cp), np.sqrt(geometry.sig_prime(grid.alpha, cp))
    sqrt_w = np.sqrt(grid.alpha_weights)
    band = np.count_nonzero(gram_scan(grid) <= xray.GRAM_TOL) - 1
    spec = np.fft.fft(grid.values, axis=0)
    out = np.zeros_like(spec)
    for f in range(-band, band + 1):
        n = np.arange(abs(f), band + 1, 2)
        k = (n - f) // 2
        sign = (1 - 2 * (n % 2))[:, None]
        pair = sign * np.exp(1j * np.outer(2 * n - 2 * k + 1, s)) + np.exp(-1j * np.outer(2 * k + 1, s))
        q = np.linalg.qr((root * pair * sqrt_w).T)[0]
        out[f % grid.shape[0]] = q @ (q.conj().T @ (spec[f % grid.shape[0]] * sqrt_w)) / sqrt_w
    return np.fft.ifft(out, axis=0)


class TestFiberPlan:
    """xray._FiberPlan: one per geometry, fibers a bin phase times a real profile."""

    @pytest.mark.parametrize("kappa", [-0.99, 0.0, 0.9])
    def test_fibers_match_psi_kappa_hat(self, kappa):
        # range and co-kernel modes, and exponents past the plan's table:
        # psi_hat is sqrt(sig') times the kappa-free fiber over pi / sqrt(1+kappa)
        cp = CurvatureParam(kappa)
        tpl = xray.boundary_grid(cp, 24, 32)
        plan = xray._fiber_plan(tpl)
        modes = [(n, k) for n in range(40) for k in range(-3, n + 4)]
        n, k = np.array(modes).T
        want = np.array([basis.psi_kappa_hat(n, k, 0.0, tpl.alpha, cp) for n, k in modes])
        got = plan.root * plan.fibers(n, k) * (math.sqrt(1 + kappa) / np.pi)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("kappa", [-0.95, 0.4])
    def test_gram_matches_bin_scan(self, kappa):
        for n_alpha in (*range(1, 20), 24, 32, 33, 48, 63, 64, 65, 96, 128):
            for n_beta in (2, 3, 4, 5, 8, 13, 24, 64, 96, 97, 128, 256):
                plan = xray._FiberPlan(kappa, n_beta, n_alpha)
                want = gram_scan(xray.boundary_grid(CurvatureParam(kappa), n_beta, n_alpha))
                assert plan.gram.shape == want.shape
                assert np.abs(plan.gram - want).max() <= 1e-13, (n_alpha, n_beta)
                assert plan.band == np.count_nonzero(want <= xray.GRAM_TOL) - 1, (n_alpha, n_beta)

    @pytest.mark.parametrize("kappa", [-0.99, -0.9, 0.0, 0.4, 0.9, 0.99])
    def test_rows_match_product_formula(self, kappa):
        # on the data the rows interpolate, psi_hat's fiber factors over
        # sqrt(sig') for range and co-kernel modes n <= 6; single entries
        # differ by up to 2.4e-12 of the largest at 0.99, since the closed
        # form is exact for the nodes pi x / 2 and the product for the
        # rounded nodes sig(sig_inverse(pi x / 2))
        cp = CurvatureParam(kappa)
        rng = np.random.default_rng(4)
        modes = [(n, k) for n in range(7) for k in range(-1, n + 2)]
        for n_alpha in (32, 48, 64):
            grid = xray.boundary_grid(cp, 8, n_alpha)
            plan = xray._fiber_plan(grid)
            alpha = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 2000)
            fibers = np.array([basis.psi_kappa_hat(n, k, 0.0, grid.alpha, cp) for n, k in modes])
            data = (fibers / plan.root).T
            want = product_rows(grid, alpha) @ data
            assert np.abs(plan.rows_at(alpha) @ data - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("kappa", selftest.FULL_KAPPAS)
    def test_projector_matches_bin_qr(self, kappa):
        # the two real QRs, bin x degree mask and bin phases against one
        # complex QR per bin, on white noise; the Parseval norm of a
        # spectrum against the grid norm of its values
        cp = CurvatureParam(kappa)
        rng = np.random.default_rng(7)
        for shape in ((96, 64), (64, 48), (33, 31)):
            grid = xray.boundary_grid(cp, *shape)
            grid = grid.with_values(rng.normal(size=shape) + 1j * rng.normal(size=shape))
            plan = xray._fiber_plan(grid)
            got = grid.with_values(plan.from_spectrum(plan.project(plan.spectrum(grid.values))))
            want = grid.with_values(bin_projector(grid))
            assert grid.with_values(got.values - want.values).norm() <= 1e-13 * grid.norm()
            assert got.norm() > 0.1 * grid.norm()
            for g in (grid, got):
                assert plan.norm(plan.spectrum(g.values)) == pytest.approx(g.norm(), rel=1e-13)

    def test_one_plan_per_geometry(self):
        cp = CurvatureParam(0.4)
        a, b = xray.boundary_grid(cp, 96, 64), xray.boundary_grid(cp, 96, 64)
        b = b.with_values(np.ones(b.shape))
        plan = xray._fiber_plan(a)
        assert xray._fiber_plan(b) is plan  # values play no part
        assert xray._fiber_plan(xray.boundary_grid(cp, 64, 64)) is not plan
        assert xray._fiber_plan(xray.boundary_grid(CurvatureParam(0.3), 96, 64)) is not plan
        with pytest.raises(ValueError):
            plan.gram[0] = 0.0

    def test_every_grid_path_reads_one_plan(self, monkeypatch, sa_pullback):
        # a cold adjoint plan builds the grid's fiber plan without its Gram
        # scan; the interpolant, c_minus, analyze and the pullback then read
        # that same plan, and nothing else takes sig or sig' of the grid's
        # nodes (boundary takes sig' of the fiber circle's nodes only)
        cp = CurvatureParam(0.4)
        grid = psi_sinogram(cp)
        xray._cached_plan.cache_clear()
        xray._cached_adjoint_plan.cache_clear()
        plan = xray._adjoint_plan(grid, xray.disk_grid(cp, 12, 24).points(), 512).fiber
        assert "gram" not in vars(plan) and "_range_basis" not in vars(plan)

        seen = []
        for module, name in ((xray, "sig"), (xray, "sig_prime"), (boundary, "sig_prime")):
            monkeypatch.setattr(module, name, lambda a, c, f=getattr(module, name): seen.append(a) or f(a, c))
        rng = np.random.default_rng(3)
        grid.interpolant()(rng.uniform(0, 2 * np.pi, 8), rng.uniform(-1.5, 1.5, 8))
        boundary.c_minus(grid, grid, 32, 64)
        sa_pullback(grid)
        xray.analyze(grid, 6)
        assert "gram" in vars(plan)
        assert xray._fiber_plan(grid) is plan
        assert xray._cached_plan.cache_info().misses == 1
        assert seen and not any(np.array_equal(a, grid.alpha) for a in seen)

    @pytest.mark.parametrize("kappa", [-0.9, 0.0, 0.4, 0.9])
    def test_band_from_gram_deviation(self, kappa):
        cp = CurvatureParam(kappa)
        for n_alpha, band in ((48, 20), (64, 29)):
            plan = xray._fiber_plan(xray.boundary_grid(cp, 96, n_alpha))
            assert plan.band == band
            assert plan.gram_deviation(band) <= xray.GRAM_TOL < plan.gram_deviation(band + 1)
        # the beta grid caps the band below n_beta / 2
        assert xray._fiber_plan(xray.boundary_grid(cp, 24, 64)).band == 11


class TestSingularValues:
    def test_euclidean_top(self):
        assert xray.singular_value(0, CurvatureParam(0.0)) == pytest.approx(2 * math.sqrt(math.pi))

    def test_curved_value(self):
        got = xray.singular_value(3, CurvatureParam(0.5))
        assert got == pytest.approx(2 * math.sqrt(math.pi) / (math.sqrt(0.5) * 2))
        assert got == pytest.approx(2.5066282746310002, abs=1e-12)

    def test_triples(self):
        cp = CurvatureParam(0.5)
        sigmas = [xray.singular_value(n, cp) for n in range(6)]
        # decreasing in n, and the closed form sigma_n^2 (n+1) is constant
        assert all(sigmas[n] > sigmas[n + 1] for n in range(5))
        for n, s in enumerate(sigmas):
            assert s * s * (n + 1) == pytest.approx(4 * math.pi / (1 - cp.kappa), rel=1e-14)
        with pytest.raises(ValueError):
            xray.singular_value(-1, cp)


class TestInversion:
    def test_single_mode(self):
        cp = CurvatureParam(0.3)
        tpl = xray.boundary_grid(cp, 32, 32)
        bb, aa = tpl.mesh()
        sigma = xray.singular_value(0, cp)
        g = tpl.with_values(sigma * basis.psi_kappa_hat(0, 0, bb, aa, cp))
        res = xray.invert(g, 2, disk_template=xray.disk_grid(cp, 48, 16))
        pts = res.recon.points()
        want = basis.w_kappa(pts, cp) * basis.zernike_kappa_hat(0, 0, pts, cp)
        assert np.max(np.abs(res.recon.values - want)) < 1e-9
        assert res.coeffs[(0, 0)] == pytest.approx(1.0, abs=1e-10)

    def test_round_trip_two_modes(self):
        # w (0.7 Zhat_{1,0} + 0.2i Zhat_{3,2}) recovered below 1e-6
        cp = CurvatureParam(0.4)
        tpl = xray.boundary_grid(cp, 48, 64)
        dg = xray.disk_grid(cp, 96, 64)

        def f(z):
            return basis.w_kappa(z, cp) * (
                0.7 * basis.zernike_kappa_hat(1, 0, z, cp)
                + 0.2j * basis.zernike_kappa_hat(3, 2, z, cp)
            )

        res = xray.invert(xray.sinogram(f, tpl), 6, disk_template=dg)
        truth = dg.with_values(f(dg.points()))
        err = dg.with_values(res.recon.values - truth.values).norm() / truth.norm()
        assert err < 1e-6
        assert res.residual < 1e-9
        assert res.discarded_energy == 0.0

    def test_cutoff_discards_and_reports(self):
        cp = CurvatureParam(0.0)
        tpl = xray.boundary_grid(cp, 48, 40)
        f, tab = band_limited(cp, 4, seed=9)
        g = xray.sinogram(f, tpl)
        # cutoff strictly between sigma_4 and sigma_3 drops exactly the n=4 shell
        cut = 0.5 * (xray.singular_value(3, cp) + xray.singular_value(4, cp))
        res = xray.invert(g, 4, sigma_cutoff=cut, disk_template=xray.disk_grid(cp, 32, 16))
        assert all(n < 4 for (n, k) in res.accepted)
        want_discard = sum(
            abs(tab[(4, k)] * xray.singular_value(4, cp)) ** 2 for k in range(5)
        )
        assert res.discarded_energy == pytest.approx(want_discard, rel=1e-6)
        assert res.residual > 0

    def test_empty_accepted_set(self):
        cp = CurvatureParam(0.0)
        tpl = xray.boundary_grid(cp, 16, 16)
        with pytest.raises(ValueError, match="cutoff"):
            xray.invert(tpl, 2, sigma_cutoff=100.0)

    def test_rejects_nan_cutoff(self):
        # s < nan is false for every singular value, so a NaN cutoff kept
        # every mode and was reported as a plain truncation
        g = xray.boundary_grid(CurvatureParam(0.4), 16, 16)
        with pytest.raises(ValueError, match="sigma_cutoff must be a number, not NaN"):
            xray.invert(g, 2, sigma_cutoff=float("nan"))

    def test_noise_amplification_scaling(self):
        # in-band noise maps to reconstruction error within a factor of
        # the inverse smallest retained singular value
        cp = CurvatureParam(0.5)
        nmax = 8
        tpl = xray.boundary_grid(cp, 64, 48)
        dg = xray.disk_grid(cp, 64, 48, measure="weighted")
        bound = 1.0 / xray.singular_value(nmax, cp)
        rng = np.random.default_rng(10)
        ratios = []
        for _ in range(20):
            noise_tab = basis.CoeffTable(nmax=nmax)
            for n in range(nmax + 1):
                for k in range(n + 1):
                    noise_tab[(n, k)] = 1e-2 * complex(rng.normal(), rng.normal())
            noise = xray.synthesize(noise_tab, tpl)
            res = xray.invert(noise, nmax, disk_template=dg)
            err = dg.with_values(res.recon.values / basis.w_kappa(dg.points(), cp)).norm()
            ratios.append(err / noise.norm())
        mean_ratio = np.exp(np.mean(np.log(ratios)))
        assert np.all(np.array(ratios) <= bound * (1 + 1e-9))
        assert 0.5 * bound <= mean_ratio <= bound


class TestArgumentKinds:
    """Every boundary-grid path rejects another grid kind, and degrees and
    sizes are integers, where they enter the library."""

    CP = CurvatureParam(0.4)

    _WRONG_KIND = {
        "analyze": lambda g: xray.analyze(g, 4),
        "invert": lambda g: xray.invert(g, 4),
        "moment_residuals": lambda g: boundary.moment_residuals(g, 6, 2),
        "project_to_range": boundary.project_to_range,  # a callable here is data, given a template
        "project_to_range-template": lambda g: boundary.project_to_range(lambda b, a: 1.0, g),
    }

    @pytest.mark.parametrize("name, kind", [(name, kind) for name in _WRONG_KIND for kind in ("DiskGrid", "function")
                                            if (name, kind) != ("project_to_range", "function")])
    def test_rejects_a_grid_of_the_wrong_kind(self, name, kind):
        # a 96 x 64 disk grid passed for a sinogram was analysed, inverted
        # with residual 0 and judged in range, each on a fiber plan built
        # from its shape, or asked for a template; a callable, or a disk
        # grid as a template, died in an attribute lookup
        g = xray.disk_grid(self.CP, 96, 64) if kind == "DiskGrid" else (lambda b, a: 1.0)
        with pytest.raises(TypeError, match=f"expected a BoundaryGrid, got a {kind}"):
            self._WRONG_KIND[name](g)

    @pytest.mark.parametrize("call", [
        lambda g, cp: xray.singular_value(2.5, cp),
        lambda g, cp: basis.psi_kappa(2.5, 1, 0.1, 0.2, cp),
        lambda g, cp: basis.psi_kappa_hat(2.5, 1, 0.1, 0.2, cp),
        lambda g, cp: basis.psi_kappa_hat(2, 1.0, 0.1, 0.2, cp),
        lambda g, cp: basis.psi_over_mu(2, 0.5, 0.1, 0.2, cp),
        lambda g, cp: xray.analyze(g, 2.5),
        lambda g, cp: xray.invert(g, 2.5),
        lambda g, cp: boundary.moment_residuals(g, 4.0, 2),
        lambda g, cp: boundary.moment_residuals(g, 4, 2.0),
        lambda g, cp: boundary.c_minus(g, g, 64.0, 128),
        lambda g, cp: boundary.p_minus(g, g, 64, 128.0),
    ], ids=["singular_value", "psi_kappa", "psi_kappa_hat-n", "psi_kappa_hat-k", "psi_over_mu", "analyze", "invert",
            "moment_residuals-nmax", "moment_residuals-kpad", "c_minus-n_beta", "p_minus-n_fiber"])
    def test_rejects_non_integer_degrees_and_sizes(self, call):
        # singular_value(2.5) read 2.446, psi_kappa_hat(2.5, 1, ...)
        # -0.171+0.142j and psi_over_mu(2, 0.5, ...) 0.103+0.019j; analyze
        # and a float fiber size died inside numpy
        g = xray.boundary_grid(self.CP, 96, 64)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call(g, self.CP)

    def test_numpy_integers_count(self):
        g = xray.synthesize(basis.CoeffTable(nmax=2, entries={(1, 0): 1.0}), xray.boundary_grid(self.CP, 32, 24))
        two = np.int64(2)
        assert xray.singular_value(two, self.CP) == xray.singular_value(2, self.CP)
        assert basis.psi_kappa_hat(two, np.int64(1), 0.1, 0.2, self.CP) == basis.psi_kappa_hat(2, 1, 0.1, 0.2, self.CP)
        assert xray.analyze(g, two).items() == xray.analyze(g, 2).items()
        assert boundary.moment_residuals(g, two, np.int64(1)).rows == boundary.moment_residuals(g, 2, 1).rows
        assert np.array_equal(boundary.c_minus(g, g, np.int64(32), np.int64(64)).values,
                              boundary.c_minus(g, g, 32, 64).values)


    @pytest.mark.parametrize("call", [
        lambda cp: basis.e_pl(0.5, 1, 0.1, 0.2, cp),
        lambda cp: basis.e_pl(1, 2.0, 0.1, 0.2, cp),
        lambda cp: basis.phi_prime(1, 0.5, 0.1, 0.2, cp),
        lambda cp: basis.u_prime(1.5, 2, 0.1, 0.2, cp),
        lambda cp: basis.v_prime(2, np.float64(1.0), 0.1, 0.2, cp),
        lambda cp: boundary.c_minus_rule(2, 0.5),
        lambda cp: boundary.p_minus_rule(0.5, 1),
    ], ids=["e_pl-p", "e_pl-l", "phi_prime", "u_prime", "v_prime", "c_minus_rule", "p_minus_rule"])
    def test_boundary_families_reject_non_integer_indices(self, call):
        # u_prime(1.5, 2, ...) read 0.540-0.299j, e_pl(0.5, 1, ...)
        # 0.991+0.136j and p_minus_rule(0.5, 1) -2j
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call(self.CP)

    def test_boundary_families_take_numpy_integers(self):
        # a negative numpy p died in (-1) ** p: "Integers to negative
        # integer powers are not allowed"
        i = np.int64
        for p, q in ((2, 3), (-3, 2), (1, -1), (-5, -4)):
            for family in (basis.phi_prime, basis.u_prime, basis.v_prime):
                assert family(i(p), i(q), 0.1, 0.2, self.CP) == family(p, q, 0.1, 0.2, self.CP)
            assert basis.e_pl(i(p), i(2 * q), 0.1, 0.2, self.CP) == basis.e_pl(p, 2 * q, 0.1, 0.2, self.CP)
            for rule in (boundary.c_minus_rule, boundary.p_minus_rule):
                assert rule(i(p), np.int32(q)) == rule(p, q)


class TestRandomCurvatures:
    def test_diagonality_at_random_kappa(self):
        # the SVD identity is exact for every kappa, not only round values
        rng = np.random.default_rng(99)
        for kappa in rng.uniform(-0.85, 0.85, 3):
            cp = CurvatureParam(float(kappa))
            tpl = xray.boundary_grid(cp, 24, 32)
            bb, aa = tpl.mesh()
            w = tpl.weights()
            modes = [(n, k) for n in range(4) for k in range(n + 1)]
            psis = np.array([basis.psi_kappa_hat(n, k, bb, aa, cp) for (n, k) in modes])
            for i, (n, k) in enumerate(modes):
                f = lambda z, n=n, k=k: basis.w_kappa(z, cp) * basis.zernike_kappa_hat(n, k, z, cp)
                sino = xray.sinogram(f, tpl).values
                row = np.tensordot(w * sino, np.conj(psis), axes=([0, 1], [1, 2]))
                want = np.zeros(len(modes), complex)
                want[i] = xray.singular_value(n, cp)
                assert np.max(np.abs(row - want)) < 1e-7


class TestEuclideanDegeneration:
    def test_small_kappa_matches_zero(self, hold):
        hold(selftest.euclidean_degeneration, 0.0)
