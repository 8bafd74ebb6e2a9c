"""Forward transform, adjoint, inner products, SVD machinery, inversion."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from diskxray import basis, xray
from diskxray.geometry import CurvatureParam, FanBeamPoint, exit_time, geodesic_point, sig


def ones(z):
    return np.ones(np.shape(z), dtype=complex)


def band_limited(cp, nmax, seed, weighted=True):
    """Random band-limited disk function (and its coefficient table)."""
    rng = np.random.default_rng(seed)
    tab = basis.CoeffTable(nmax=nmax)
    for n in range(nmax + 1):
        for k in range(n + 1):
            tab[(n, k)] = complex(rng.normal(), rng.normal())

    def f(z):
        out = np.zeros(np.shape(z), dtype=complex)
        for (n, k), c in tab.items():
            out += c * basis.zernike_kappa_hat(n, k, z, cp)
        if weighted:
            out *= basis.w_kappa(z, cp)
        return out

    return f, tab


class TestGrids:
    @pytest.mark.parametrize("kappa", [-0.5, 0.0, 0.5])
    def test_boundary_mass(self, kappa):
        cp = CurvatureParam(kappa)
        g = xray.boundary_grid(cp, 16, 96)
        assert np.sum(g.weights()) == pytest.approx(2 * np.pi**2 / (1 + kappa), abs=1e-10)

    @pytest.mark.parametrize("kappa", [-0.9, 0.9])
    def test_boundary_mass_extreme(self, kappa):
        # node placement follows the signature, so the flat integrand
        # needs a denser fiber rule at extreme curvature
        cp = CurvatureParam(kappa)
        g = xray.boundary_grid(cp, 16, 512)
        assert np.sum(g.weights()) == pytest.approx(2 * np.pi**2 / (1 + kappa), abs=1e-10)

    @pytest.mark.parametrize("kappa", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_disk_mass(self, kappa):
        cp = CurvatureParam(kappa)
        g = xray.disk_grid(cp, 128, 16)
        assert np.sum(g.weights()) == pytest.approx(np.pi / (1 + kappa), abs=1e-10)

    def test_alpha_nodes_strictly_inward(self):
        g = xray.boundary_grid(CurvatureParam(0.8), 8, 64)
        assert np.all(np.abs(g.alpha) < np.pi / 2)

    def test_measure_tags(self):
        cp = CurvatureParam(0.4)
        with pytest.raises(ValueError):
            xray.disk_grid(cp, 8, 8, measure="bogus").weights()


class TestForward:
    def test_constant_integrates_to_exit_time(self):
        cp = CurvatureParam(0.5)
        bp = FanBeamPoint(0.3, 0.55)
        got = xray.forward(ones, bp, cp)
        assert got == pytest.approx(exit_time(bp.alpha, cp), abs=1e-12)

    def test_euclidean_diameter(self):
        got = xray.forward(ones, FanBeamPoint(1.0, 0.0), CurvatureParam(0.0))
        assert got == pytest.approx(2.0, abs=1e-13)

    def test_rejects_outward(self):
        with pytest.raises(ValueError):
            xray.forward(ones, FanBeamPoint(0.0, 2.5), CurvatureParam(0.0))

    def test_tangential_integrates_to_zero(self):
        got = xray.forward(ones, FanBeamPoint(0.4, np.pi / 2), CurvatureParam(0.3))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_nonfinite_integrand_reported(self):
        cp = CurvatureParam(0.0)

        def bad(z):
            out = ones(z)
            return np.where(np.abs(z) < 0.2, np.nan, out)

        with pytest.raises(ValueError, match="non-finite"):
            xray.forward(bad, FanBeamPoint(0.0, 0.0), cp)

    def test_single_mode_identity(self):
        # forward of w * Zhat_{0,0} is sigma_0 psi_hat_{0,0} pointwise
        cp = CurvatureParam(0.5)
        rng = np.random.default_rng(0)
        f = lambda z: basis.w_kappa(z, cp) * basis.zernike_kappa_hat(0, 0, z, cp)
        for _ in range(10):
            bp = FanBeamPoint(rng.uniform(0, 2 * np.pi), rng.uniform(-1.4, 1.4))
            got = xray.forward(f, bp, cp)
            want = xray.singular_value(0, cp) * basis.psi_kappa_hat(0, 0, bp.beta, bp.alpha, cp)
            assert got == pytest.approx(complex(want), abs=1e-8)

    def test_quadrature_convergence(self):
        cp = CurvatureParam(0.5)
        f = lambda z: np.exp(z) * basis.w_kappa(z, cp)
        vals = [
            xray._forward_batch(f, [0.7], [0.3], cp, xray.GeodesicQuad(n_nodes=n))[0]
            for n in (16, 32, 64)
        ]
        assert abs(vals[1] - vals[2]) < 1e-9


class TestSinogram:
    def test_zero_function(self):
        cp = CurvatureParam(0.2)
        g = xray.sinogram(lambda z: np.zeros(np.shape(z), complex), xray.boundary_grid(cp, 8, 8), cp)
        assert np.all(g.values == 0)

    def test_constant_rotation_invariance(self):
        cp = CurvatureParam(-0.4)
        g = xray.sinogram(ones, xray.boundary_grid(cp, 12, 16), cp)
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
        sg = xray.sinogram(f, tpl, cp)
        for n in range(7):
            for k in range(n + 1):
                ip = xray.boundary_inner(sg, tpl.with_values(basis.psi_kappa_hat(n, k, bb, aa, cp)))
                want = xray.singular_value(2, cp) if (n, k) == (2, 1) else 0.0
                assert abs(ip - want) < 1e-7

    def test_interpolated_disk_grid_input(self):
        # secondary path: f given by samples, bicubic in (rho, omega)
        cp = CurvatureParam(0.3)
        dg = xray.disk_grid(cp, 96, 128)
        f = lambda z: np.exp(-2 * np.abs(z) ** 2) * (1 + 0.3j * z)
        sampled = dg.with_values(f(dg.points()))
        tpl = xray.boundary_grid(cp, 8, 12)
        got = xray.sinogram(sampled, tpl, cp)
        want = xray.sinogram(f, tpl, cp)
        assert np.max(np.abs(got.values - want.values)) < 1e-5


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

    @pytest.mark.parametrize("kappa", [-0.5, 0.5])
    def test_kernel_modes(self, kappa):
        # psi/mu with k outside [0, n] integrates to zero over every fiber
        cp = CurvatureParam(kappa)
        rng = np.random.default_rng(2)
        z = rng.uniform(0, 0.9, 10) * np.exp(1j * rng.uniform(0, 2 * np.pi, 10))
        for n in range(5):
            for k in (-2, -1, n + 1, n + 2):
                g = lambda beta, alpha, n=n, k=k: basis.psi_over_mu(n, k, beta, alpha, cp)
                vals = xray.adjoint_sharp(g, z, cp)
                assert np.max(np.abs(vals)) < 1e-7

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
        # <I(w f), g> on the boundary equals <f, adjoint(g/mu)> on the disk
        cp = CurvatureParam(0.5)
        f, _ = band_limited(cp, 3, seed=5, weighted=False)
        rng = np.random.default_rng(6)
        gtab = basis.CoeffTable(nmax=3)
        for n in range(4):
            for k in range(-1, n + 2):
                gtab.entries[(n, k)] = complex(rng.normal(), rng.normal())

        def g(beta, alpha):
            out = np.zeros(np.shape(beta), complex)
            for (n, k), c in gtab.items():
                out += c * basis.psi_kappa_hat(n, k, beta, alpha, cp)
            return out

        bg = xray.boundary_grid(cp, 32, 48)
        bb, aa = bg.mesh()
        sino = xray.sinogram(lambda z: basis.w_kappa(z, cp) * f(z), bg, cp)
        lhs = xray.boundary_inner(sino, bg.with_values(g(bb, aa)))

        dg = xray.disk_grid(cp, 64, 32, measure="weighted")
        pts = dg.points()
        back = xray.adjoint_sharp(lambda b, a: g(b, a) / np.cos(a), pts, cp, n_theta=512)
        rhs = xray.disk_inner(dg.with_values(f(pts)), dg.with_values(back))
        assert abs(lhs - rhs) < 1e-6 * abs(lhs)


def psi_sinogram(cp, nmax=6, seed=0):
    """Random nmax band of psi_hat on the default 96x64 grid; carries the
    exact callable, drop it with `with_values(values)`."""
    _, tab = band_limited(cp, nmax, seed)
    return xray.synthesize(tab, xray.boundary_grid(cp, 96, 64), cp)


class TestGridInterpolant:
    @pytest.mark.parametrize("kappa", [-0.9, 0.0, 0.4, 0.9])
    def test_grid_adjoint_matches_exact_callable(self, kappa):
        cp = CurvatureParam(kappa)
        exact = psi_sinogram(cp)
        z = xray.disk_grid(cp, 4, 6).points()
        got = xray.adjoint_sharp(exact.with_values(exact.values), z, cp)
        want = xray.adjoint_sharp(exact, z, cp)
        assert np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("kappa", [-0.9, 0.4])
    def test_reproduces_samples_at_nodes(self, kappa):
        # targets on the alpha nodes take the exact-hit rows
        grid = psi_sinogram(CurvatureParam(kappa))
        bb, aa = grid.mesh()
        got = grid.with_values(grid.values).interpolant()(bb, aa)
        assert np.max(np.abs(got - grid.values)) < 1e-13 * np.max(np.abs(grid.values))

    def test_target_counts_and_shapes(self):
        cp = CurvatureParam(0.4)
        exact = psi_sinogram(cp, nmax=3, seed=1)
        fn = exact.with_values(exact.values).interpolant()
        rng = np.random.default_rng(2)
        for count in (0, 1, 2 * xray._BLOCK + 3):
            b = rng.uniform(0, 2 * np.pi, count)
            a = rng.uniform(-np.pi / 2, np.pi / 2, count)
            got = fn(b, a)
            assert got.shape == (count,)
            assert np.allclose(got, exact.fn(b, a), rtol=0, atol=1e-12)
        scalar = fn(0.3, -0.2)
        assert np.shape(scalar) == () and abs(scalar - exact.fn(0.3, -0.2)) < 1e-12
        b, a = rng.uniform(0, 2 * np.pi, (5, 1)), rng.uniform(-1.5, 1.5, (1, 7))
        got = fn(b, a)
        assert got.shape == (5, 7)
        assert np.allclose(got, exact.fn(b, a), rtol=0, atol=1e-12)

    def test_adjoint_memory_bounded(self):
        # 12x24 points at n_theta 512 are 147456 targets; a dense
        # targets x n_beta evaluation would hold hundreds of MB
        cp = CurvatureParam(0.4)
        exact = psi_sinogram(cp)
        grid = exact.with_values(exact.values)
        z = xray.disk_grid(cp, 12, 24).points()
        tracemalloc.start()
        try:
            xray.adjoint_sharp(grid, z, cp, n_theta=512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

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


class TestInnerProducts:
    def test_psi_norm(self):
        cp = CurvatureParam(0.3)
        g = xray.boundary_grid(cp, 16, 48)
        bb, aa = g.mesh()
        f = g.with_values(basis.psi_kappa(2, 1, bb, aa, cp))
        assert xray.boundary_inner(f, f) == pytest.approx(1 / (4 * 1.3), abs=1e-10)

    def test_positivity(self):
        cp = CurvatureParam(-0.2)
        g = xray.boundary_grid(cp, 8, 16)
        rng = np.random.default_rng(7)
        f = g.with_values(rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        assert xray.boundary_inner(f, f).real > 0
        z = g.with_values(np.zeros(g.shape))
        assert xray.boundary_inner(z, z) == 0

    def test_zernike_kappa_cross_terms(self):
        cp = CurvatureParam(0.4)
        dg = xray.disk_grid(cp, 96, 32, measure="weighted")
        pts = dg.points()
        f1 = dg.with_values(basis.zernike_kappa(3, 1, pts, cp))
        f2 = dg.with_values(basis.zernike_kappa(3, 2, pts, cp))
        assert abs(xray.disk_inner(f1, f2)) < 1e-8

    def test_grid_mismatch_rejected(self):
        cp = CurvatureParam(0.1)
        g1 = xray.boundary_grid(cp, 8, 16)
        g2 = xray.boundary_grid(cp, 8, 24)
        with pytest.raises(ValueError):
            xray.boundary_inner(g1, g2)
        d1 = xray.disk_grid(cp, 8, 8, measure="vol")
        d2 = xray.disk_grid(cp, 8, 8, measure="weighted")
        with pytest.raises(ValueError):
            xray.disk_inner(d1, d2)


class TestAnalyzeSynthesize:
    def test_round_trip(self):
        cp = CurvatureParam(0.5)
        tpl = xray.boundary_grid(cp, 48, 40)
        rng = np.random.default_rng(8)
        tab = basis.CoeffTable(nmax=6)
        for n in range(7):
            for k in range(n + 1):
                tab[(n, k)] = complex(rng.normal(), rng.normal())
        grid = xray.synthesize(tab, tpl, cp)
        back = xray.analyze(grid, 6, cp)
        err = max(abs(back[nk] - tab[nk]) for nk, _ in tab.items())
        assert err < 1e-9

    def test_sinogram_gives_delta_table(self):
        cp = CurvatureParam(0.5)
        tpl = xray.boundary_grid(cp, 48, 40)
        f = lambda z: basis.w_kappa(z, cp) * basis.zernike_kappa_hat(3, 1, z, cp)
        tab = xray.analyze(xray.sinogram(f, tpl, cp), 5, cp)
        for (n, k), c in tab.items():
            want = xray.singular_value(3, cp) if (n, k) == (3, 1) else 0.0
            assert abs(c - want) < 1e-8

    def test_zero_grid(self):
        cp = CurvatureParam(0.2)
        tpl = xray.boundary_grid(cp, 16, 16)
        tab = xray.analyze(tpl, 3, cp)
        assert all(c == 0 for _, c in tab.items())

    def test_aliasing_guard(self):
        cp = CurvatureParam(0.2)
        tpl = xray.boundary_grid(cp, 16, 10)
        with pytest.raises(ValueError, match="resolvable"):
            xray.analyze(tpl, 5, cp)

    def test_synthesize_requires_grid(self):
        with pytest.raises(TypeError):
            xray.synthesize(basis.CoeffTable(nmax=1), object(), CurvatureParam(0.0))


class TestSingularValues:
    def test_euclidean_top(self):
        assert xray.singular_value(0, CurvatureParam(0.0)) == pytest.approx(2 * math.sqrt(math.pi))

    def test_curved_value(self):
        got = xray.singular_value(3, CurvatureParam(0.5))
        assert got == pytest.approx(2 * math.sqrt(math.pi) / (math.sqrt(0.5) * 2))
        assert got == pytest.approx(2.5066282746310002, abs=1e-12)

    def test_triples(self):
        cp = CurvatureParam(0.5)
        triples = xray.singular_values(5, cp)
        assert len(triples) == 21
        sigmas = {t.index.n: t.sigma for t in triples}
        # independent of k, decreasing in n
        by_k = [t.sigma for t in triples if t.index.n == 5]
        assert all(s == by_k[0] for s in by_k)
        assert all(sigmas[n] > sigmas[n + 1] for n in range(5))
        # the callables are the normalized pair
        t = [t for t in triples if (t.index.n, t.index.k) == (2, 1)][0]
        assert t.left(0.3, 0.2) == pytest.approx(complex(basis.psi_kappa_hat(2, 1, 0.3, 0.2, cp)))
        assert t.right(0.4 + 0.1j) == pytest.approx(complex(basis.zernike_kappa_hat(2, 1, 0.4 + 0.1j, cp)))


class TestInversion:
    def test_single_mode(self):
        cp = CurvatureParam(0.3)
        tpl = xray.boundary_grid(cp, 32, 32)
        bb, aa = tpl.mesh()
        sigma = xray.singular_value(0, cp)
        g = tpl.with_values(sigma * basis.psi_kappa_hat(0, 0, bb, aa, cp))
        res = xray.invert(g, 2, cp, disk_template=xray.disk_grid(cp, 48, 16))
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

        res = xray.invert(xray.sinogram(f, tpl, cp), 6, cp, disk_template=dg)
        truth = dg.with_values(f(dg.points()))
        err = dg.with_values(res.recon.values - truth.values).norm() / truth.norm()
        assert err < 1e-6
        assert res.residual < 1e-9
        assert res.discarded_energy == 0.0

    def test_cutoff_discards_and_reports(self):
        cp = CurvatureParam(0.0)
        tpl = xray.boundary_grid(cp, 48, 40)
        f, tab = band_limited(cp, 4, seed=9)
        g = xray.sinogram(f, tpl, cp)
        # cutoff strictly between sigma_4 and sigma_3 drops exactly the n=4 shell
        cut = 0.5 * (xray.singular_value(3, cp) + xray.singular_value(4, cp))
        res = xray.invert(g, 4, cp, sigma_cutoff=cut, disk_template=xray.disk_grid(cp, 32, 16))
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
            xray.invert(tpl, 2, cp, sigma_cutoff=100.0)

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
            noise = xray.synthesize(noise_tab, tpl, cp)
            res = xray.invert(noise, nmax, cp, disk_template=dg)
            err = dg.with_values(res.recon.values / basis.w_kappa(dg.points(), cp)).norm()
            ratios.append(err / noise.norm())
        mean_ratio = np.exp(np.mean(np.log(ratios)))
        assert np.all(np.array(ratios) <= bound * (1 + 1e-9))
        assert 0.5 * bound <= mean_ratio <= bound


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
                sino = xray.sinogram(f, tpl, cp).values
                row = np.tensordot(w * sino, np.conj(psis), axes=([0, 1], [1, 2]))
                want = np.zeros(len(modes), complex)
                want[i] = xray.singular_value(n, cp)
                assert np.max(np.abs(row - want)) < 1e-7


class TestEuclideanDegeneration:
    def test_small_kappa_matches_zero(self):
        tiny, zero = CurvatureParam(1e-12), CurvatureParam(0.0)
        a = np.linspace(-1.4, 1.4, 101)
        assert np.max(np.abs(exit_time(a, tiny) - exit_time(a, zero))) < 1e-8
        assert np.max(np.abs(sig(a, tiny) - a)) < 1e-8
        t = np.linspace(0, 1.0, 9)
        assert np.max(np.abs(
            geodesic_point(0.3, 0.5, t, tiny) - geodesic_point(0.3, 0.5, t, zero)
        )) < 1e-8
        bp = FanBeamPoint(0.2, 0.4)
        f = lambda z: np.exp(z)
        assert abs(xray.forward(f, bp, tiny) - xray.forward(f, bp, zero)) < 1e-8
        assert abs(xray.singular_value(3, tiny) - xray.singular_value(3, zero)) < 1e-8
