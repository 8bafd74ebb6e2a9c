"""Basis families: Chebyshev-type W_n, Zernike, deformed Zernike, psi."""

import math

import numpy as np
import pytest

from diskxray import basis, selftest
from diskxray.geometry import CurvatureParam, sig, sig_prime
from diskxray.xray import disk_grid, inner


def cheb_w(n, t):
    """W_n(t): degree-n polynomial with W_0 = 1, W_1 = 2it and
    W_{n+1} = 2it W_n + W_{n-1}; equals i^n times the Chebyshev
    polynomial of the second kind U_n(t).  Computed that way: the
    library's real recurrence `basis._cheb_u`, then one exact product
    with i^n.  The values equal the complex recurrence's; only the sign
    of the zero part may differ.  It is the paper's W_n, the polynomial
    that Z_{n,k} and psi_{n,k} are built from."""
    if n < 0:
        raise ValueError("cheb_w requires n >= 0")
    return (1 + 0j, 1j, -1 + 0j, -1j)[n % 4] * basis._cheb_u(n, t)


def zernike_by_quadrature(n, k, z, n_theta=4096):
    """Harmonic-extraction integral evaluated by the trapezoid rule.

    Independent route to the radial profile; the library builds the same
    object from exact binomial sums.
    """
    z = complex(z)
    rho, omega = abs(z), np.angle(z)
    th = np.arange(n_theta) * 2 * np.pi / n_theta
    vals = np.exp(1j * (n - 2 * k) * th) * cheb_w(n, rho * np.sin(th))
    return np.exp(1j * (n - 2 * k) * omega) * (-1) ** n * np.mean(vals)


class TestChebW:
    def test_base_cases(self):
        assert cheb_w(0, 0.7) == 1.0
        assert cheb_w(1, 0.3) == pytest.approx(0.6j)

    def test_degree_two_root(self):
        # W_2 = 1 - 4 t^2 vanishes at t = 1/2
        assert cheb_w(2, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_parity(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(-1, 1, 40)
        for n in range(11):
            assert np.allclose(cheb_w(n, -t), (-1) ** n * cheb_w(n, t))

    def test_matches_chebyshev_u(self):
        eval_chebyu = pytest.importorskip("scipy.special").eval_chebyu
        rng = np.random.default_rng(1)
        t = rng.uniform(-1, 1, 40)
        for n in range(12):
            want = (1j) ** n * eval_chebyu(n, t)
            assert np.max(np.abs(cheb_w(n, t) - want)) < 1e-10

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            cheb_w(-1, 0.0)

    def test_real_recurrence_matches_complex(self):
        # W_n = i^n U_n has one nonzero part, so the real recurrence times
        # the exact i^n must reproduce W_{n+1} = 2it W_n + W_{n-1} exactly
        t = np.random.default_rng(2).uniform(-1, 1, (256, 64))
        w_prev, w = np.ones(t.shape, dtype=complex), 2j * t
        assert np.array_equal(cheb_w(0, t), w_prev)
        for n in range(1, 31):
            got = cheb_w(n, t)
            assert got.dtype == complex and np.array_equal(got, w), n
            w_prev, w = w, 2j * t * w + w_prev


class TestZernike:
    def test_power_convention(self):
        z = 0.5 * np.exp(0.2j)
        assert basis.zernike(3, 0, z) == pytest.approx(z**3)

    def test_boundary_values(self):
        for n in range(9):
            for k in range(n + 1):
                got = basis.zernike(n, k, np.exp(0.7j))
                assert got == pytest.approx((-1) ** k * np.exp(1j * (n - 2 * k) * 0.7), abs=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(2)
        z = rng.uniform(0, 1, 30) * np.exp(1j * rng.uniform(0, 2 * np.pi, 30))
        for n in range(9):
            for k in range(n + 1):
                lhs = basis.zernike(n, n - k, z)
                rhs = (-1) ** n * np.conj(basis.zernike(n, k, z))
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(3)
        for n in range(7):
            for k in range(n + 1):
                z = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                assert basis.zernike(n, k, z) == pytest.approx(
                    zernike_by_quadrature(n, k, z), abs=1e-11
                )

    def test_index_validation(self):
        for k in (-1, 3):
            with pytest.raises(ValueError, match=rf"0 <= k <= n, got \(n,k\)=\(2,{k}\)"):
                basis.zernike_radial(2, k, 0.5)
        with pytest.raises(ValueError):
            basis.zernike(2, 3, 0.1)
        with pytest.raises(ValueError):
            basis.zernike(2, -1, 0.1)
        with pytest.raises(ValueError):
            basis.zernike(2, 1, 1.5)

    def test_radial_against_60_digit_sum(self, zernike_60):
        # the binomial sum cancels in double precision: a power-basis
        # polyval of it is 4.9e-3 off here at n = 40 and 1.9e5 at n = 60
        rho = np.concatenate([np.linspace(0.0, 1.0, 21), [0.99, 0.999]])
        for n in (10, 20, 30, 40, 60):
            for k in range(n + 1):
                want = [zernike_60(n, k, r, 0.0, normalized=False).real for r in rho]
                assert np.max(np.abs(basis.zernike_radial(n, k, rho) - want)) <= 5e-14, (n, k)

    def test_boundary_recursion(self, hold):
        hold(selftest.boundary_recursion, 0.0)

    def test_cauchy_riemann_chain(self, hold):
        hold(selftest.cauchy_riemann, 0.0)

    def test_euclidean_orthogonality(self):
        cp = CurvatureParam(0.0)
        grid = disk_grid(cp, 96, 64)  # at kappa = 0 "vol" is the flat area element
        pts = grid.points()
        fams = {
            (n, k): grid.with_values(basis.zernike(n, k, pts))
            for n in range(9)
            for k in range(n + 1)
        }
        for (n, k), f in fams.items():
            for (n2, k2), g in fams.items():
                if (n2, k2) < (n, k):
                    continue
                got = inner(f, g)
                want = math.pi / (n + 1) if (n, k) == (n2, k2) else 0.0
                assert abs(got - want) < 1e-8


class TestZernikeKappa:
    def test_reduces_at_zero_curvature(self):
        cp = CurvatureParam(0.0)
        rng = np.random.default_rng(5)
        z = rng.uniform(0, 1, 30) * np.exp(1j * rng.uniform(0, 2 * np.pi, 30))
        for n in range(5):
            for k in range(n + 1):
                assert np.allclose(basis.zernike_kappa(n, k, z, cp), basis.zernike(n, k, z))

    def test_center_scaling(self):
        cp = CurvatureParam(0.5)
        for n in range(5):
            for k in range(n + 1):
                want = math.sqrt(1.0 / 3.0) * basis.zernike(n, k, 0.0)
                assert basis.zernike_kappa(n, k, 0.0, cp) == pytest.approx(want)

    def test_boundary_value(self):
        # at |z| = 1 the map fixes z and the weight becomes sqrt((1+k)/(1-k))
        cp = CurvatureParam(0.3)
        om = 0.8
        for n in range(5):
            for k in range(n + 1):
                got = basis.zernike_kappa(n, k, np.exp(1j * om), cp)
                want = math.sqrt(1.3 / 0.7) * (-1) ** k * np.exp(1j * (n - 2 * k) * om)
                assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kappa", [-0.9, -0.5, 0.5, 0.9])
    def test_orthogonality_weighted(self, kappa, hold):
        hold(selftest.zernike_orthogonality, kappa)

    @pytest.mark.parametrize("kappa", [-0.9, 0.4, 0.9])
    def test_normalized_against_60_digit_sum(self, kappa, zernike_60):
        cp = CurvatureParam(kappa)
        z = np.concatenate([_disk_points(8, 40),
                            [0.0, 0.5j, 0.99 * np.exp(0.3j), 0.999 * np.exp(-2.0j), np.exp(1.1j)]])
        for n in (0, 1, 2, 5, 10, 20, 30, 40):
            for k in range(n + 1):
                want = np.array([zernike_60(n, k, zz, kappa) for zz in z])
                err = np.max(np.abs(basis.zernike_kappa_hat(n, k, z, cp) - want))
                assert err <= 1e-12 * np.max(np.abs(want)), (n, k)

    def test_normalized_norm(self):
        cp = CurvatureParam(0.6)
        grid = disk_grid(cp, 128, 32, measure="weighted")
        pts = grid.points()
        f = grid.with_values(basis.zernike_kappa_hat(4, 2, pts, cp))
        assert inner(f, f) == pytest.approx(1.0, abs=1e-10)


def _random_table(nmax, seed):
    rng = np.random.default_rng(seed)
    tab = basis.CoeffTable(nmax=nmax)
    for n in range(nmax + 1):
        for k in range(n + 1):
            tab[(n, k)] = complex(rng.normal(), rng.normal())
    return tab


def _disk_points(size, seed):
    rng = np.random.default_rng(seed)
    return np.sqrt(rng.uniform(0, 1, size)) * np.exp(1j * rng.uniform(0, 2 * np.pi, size))


def _per_mode_sum(tab, z, cp):
    return sum(c * basis.zernike_kappa_hat(n, k, z, cp) for (n, k), c in tab.items())


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestZernikeKappaSeries:
    @pytest.mark.parametrize("nmax", [0, 6, 16])
    @pytest.mark.parametrize("kappa", [-0.999, -0.9, 0.0, 0.4, 0.9, 0.999])
    def test_matches_per_mode_sum(self, nmax, kappa):
        # a consistency check, not an independent one: both routes run the
        # one radial recurrence; the 40-digit test below and the quadrature
        # oracle of TestZernike are the independent references
        cp = CurvatureParam(kappa)
        tab = _random_table(nmax, 20 + nmax)
        z = np.concatenate([_disk_points(400, 21), np.exp(1j * np.linspace(0, 6, 7)), [0.0]])
        assert _rel_err(basis.zernike_kappa_series(tab, z, cp), _per_mode_sum(tab, z, cp)) < 1e-11

    @pytest.mark.parametrize("kappa", [0.0, 0.9])
    def test_matches_extended_precision_reference(self, kappa):
        mp = pytest.importorskip("mpmath")
        nmax = 16
        tab = _random_table(nmax, 22)
        z = np.concatenate([_disk_points(24, 23), [0.0, 0.999 * np.exp(0.4j), np.exp(2.1j)]])
        got = basis.zernike_kappa_series(tab, z, CurvatureParam(kappa))
        with mp.workdps(40):
            kap = mp.mpf(kappa)
            want = []
            for zz in z:
                zz = mp.mpc(zz)
                r2 = abs(zz) ** 2
                w = (1 - kap) * zz / (1 - kap * r2)
                rho, omega = abs(w), mp.arg(w)
                total = mp.mpc(0)
                for (n, k), c in tab.items():
                    radial = sum(
                        (-1) ** (k + l) * mp.binomial(n - l, l) * mp.binomial(n - 2 * l, k - l)
                        * rho ** (n - 2 * l)
                        for l in range(min(k, n - k) + 1)
                    )
                    norm = mp.sqrt((n + 1) * (1 - kap**2) / mp.pi)
                    total += mp.mpc(c) * norm * radial * mp.expj((n - 2 * k) * omega)
                weight = mp.sqrt((1 - kap) / (1 + kap)) * (1 + kap * r2) / (1 - kap * r2)
                want.append(complex(weight * total))
        assert _rel_err(got, np.array(want)) < 1e-12

    def test_point_counts_and_shapes(self):
        cp = CurvatureParam(0.4)
        tab = _random_table(5, 24)
        z = _disk_points(2 * basis._SERIES_BLOCK + 3, 25)
        got = basis.zernike_kappa_series(tab, z, cp)
        assert got.shape == z.shape
        assert _rel_err(got, _per_mode_sum(tab, z, cp)) < 1e-13
        assert basis.zernike_kappa_series(tab, z[:0], cp).shape == (0,)
        assert basis.zernike_kappa_series(tab, z[:1], cp) == pytest.approx(got[:1], rel=1e-14)
        scalar = basis.zernike_kappa_series(tab, z[7], cp)
        assert np.shape(scalar) == () and complex(scalar) == pytest.approx(got[7], rel=1e-14)
        square = basis.zernike_kappa_series(tab, z[:12].reshape(3, 4), cp)
        assert square.shape == (3, 4)
        assert np.allclose(square.ravel(), got[:12], rtol=1e-14, atol=0)

    def test_empty_table_is_zero(self):
        got = basis.zernike_kappa_series(basis.CoeffTable(nmax=3), _disk_points(5, 26), CurvatureParam(0.2))
        assert np.array_equal(got, np.zeros(5, dtype=complex))

    def test_clamps_unit_circle_and_rejects_beyond(self):
        cp = CurvatureParam(0.0)  # the map is the identity, so w = z
        tab = _random_table(4, 27)
        edge = np.exp(0.7j)
        got = basis.zernike_kappa_series(tab, edge * (1 + 5e-7), cp)
        assert complex(got) == pytest.approx(complex(basis.zernike_kappa_series(tab, edge, cp)), rel=1e-14)
        assert complex(got) == pytest.approx(complex(_per_mode_sum(tab, edge * (1 + 5e-7), cp)), rel=1e-12)
        with pytest.raises(ValueError):
            basis.zernike_kappa_series(tab, np.array([0.1, edge * (1 + 2e-6)]), cp)

    @pytest.mark.parametrize("nk", [(2, 3), (2, -1)])
    def test_rejects_index_outside_disk_family(self, nk):
        tab = basis.CoeffTable(nmax=3)
        tab[(1, 0)] = 1.0
        tab[nk] = 1.0
        with pytest.raises(ValueError):
            basis.zernike_kappa_series(tab, np.array([0.2j]), CurvatureParam(0.1))

    def test_memory_bounded_by_block(self):
        import tracemalloc

        cp = CurvatureParam(0.4)
        tab = _random_table(16, 28)
        z = _disk_points(6144 * 64, 29).reshape(6144, 64)
        tracemalloc.start()
        try:
            out = basis.zernike_kappa_series(tab, z, cp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 6 MB result plus a few degree rows of one block (the
        # per-mode sum peaks at 42 MB here)
        assert out.shape == z.shape
        assert peak < 20 * 2**20


class TestPsi:
    def test_euclidean_formula(self):
        # closed Euclidean form written out independently
        cp = CurvatureParam(0.0)
        rng = np.random.default_rng(6)
        beta = rng.uniform(0, 2 * np.pi, 40)
        alpha = rng.uniform(-np.pi / 2, np.pi / 2, 40)
        for n in range(5):
            for k in range(-2, n + 3):
                want = (
                    (-1) ** n
                    / (4 * np.pi)
                    * np.exp(1j * (n - 2 * k) * (beta + alpha))
                    * (np.exp(1j * (n + 1) * alpha) + (-1) ** n * np.exp(-1j * (n + 1) * alpha))
                )
                got = basis.psi_kappa(n, k, beta, alpha, cp)
                assert np.max(np.abs(got - want)) < 1e-14

    def test_point_value(self):
        assert basis.psi_kappa(0, 0, 0.0, 0.0, CurvatureParam(0.0)) == pytest.approx(1 / (2 * np.pi))

    @pytest.mark.parametrize("fn", [basis.psi_kappa, basis.psi_over_mu])
    def test_rejects_negative_degree(self, fn):
        with pytest.raises(ValueError, match=f"{fn.__name__} requires n >= 0"):
            fn(-1, 0, 0.0, 0.0, CurvatureParam(0.0))

    @pytest.mark.parametrize("kappa", [-0.6, 0.0, 0.5])
    def test_antipodal_invariance(self, kappa, antipodal_scattering_angles):
        cp = CurvatureParam(kappa)
        rng = np.random.default_rng(7)
        beta = rng.uniform(0, 2 * np.pi, 60)
        alpha = rng.uniform(-np.pi / 2, np.pi / 2, 60)
        b2, a2 = antipodal_scattering_angles(beta, alpha, cp)
        for n in range(4):
            for k in (-1, 0, n, n + 1):
                lhs = basis.psi_kappa(n, k, b2, a2, cp)
                rhs = basis.psi_kappa(n, k, beta, alpha, cp)
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_uprime_identity(self):
        cp = CurvatureParam(0.4)
        rng = np.random.default_rng(8)
        beta = rng.uniform(0, 2 * np.pi, 30)
        alpha = rng.uniform(-np.pi / 2, np.pi / 2, 30)
        for n in range(5):
            for k in range(-2, n + 3):
                p, q = basis.nk_to_pq(n, k)
                want = (-1) ** n / (4 * np.pi) * basis.u_prime(p, q, beta, alpha, cp)
                got = basis.psi_kappa(n, k, beta, alpha, cp)
                assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("kappa", [-0.9, -0.3, 0.3, 0.9])
    def test_orthogonality(self, kappa, hold):
        hold(selftest.psi_orthogonality, kappa)

    def test_psi_over_mu_consistency(self):
        # cancellation-free form equals psi / cos(alpha) away from tangential
        cp = CurvatureParam(0.5)
        rng = np.random.default_rng(9)
        beta = rng.uniform(0, 2 * np.pi, 50)
        alpha = rng.uniform(-1.3, 1.3, 50)
        for n in range(4):
            for k in (-1, 0, 2, n + 1):
                lhs = basis.psi_over_mu(n, k, beta, alpha, cp)
                rhs = basis.psi_kappa(n, k, beta, alpha, cp) / np.cos(alpha)
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_psi_over_mu_finite_at_tangential(self):
        cp = CurvatureParam(0.3)
        vals = basis.psi_over_mu(3, 1, 0.0, np.array([np.pi / 2, -np.pi / 2]), cp)
        assert np.all(np.isfinite(vals))


    def test_psi_over_mu_real_amplitude_matches_complex_form(self):
        # the real amplitude times (-i)^n against the complex product of
        # (-1)^n / 2 pi, the amplitude, the phase and W_n(sin s)
        rng = np.random.default_rng(4)
        beta = rng.uniform(0, 2 * np.pi, 2000)
        alpha = rng.uniform(-np.pi / 2, np.pi / 2, 2000)
        for kappa in (-0.9, 0.0, 0.4, 0.9):
            cp = CurvatureParam(kappa)
            s = sig(alpha, cp)
            amp = math.sqrt((1 + kappa) / (1 - kappa)) * sig_prime(alpha, cp)
            for n in range(31):
                for k in (-1, 0, n // 2, n + 1):
                    want = ((-1) ** n / (2 * math.pi) * amp * np.exp(1j * (n - 2 * k) * (beta + s))
                            * cheb_w(n, np.sin(s)))
                    got = basis.psi_over_mu(n, k, beta, alpha, cp)
                    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

class TestBoundaryFamily:
    def test_redundancies(self):
        cp = CurvatureParam(-0.3)
        rng = np.random.default_rng(10)
        beta = rng.uniform(0, 2 * np.pi, 20)
        alpha = rng.uniform(-np.pi / 2, np.pi / 2, 20)
        for p in range(-4, 5):
            for q in range(-4, 5):
                u1 = basis.u_prime(p, q, beta, alpha, cp)
                u2 = basis.u_prime(p, p - q - 1, beta, alpha, cp)
                assert np.max(np.abs(u1 - (-1) ** p * u2)) < 1e-13
                v1 = basis.v_prime(p, q, beta, alpha, cp)
                v2 = basis.v_prime(p, p - q - 1, beta, alpha, cp)
                assert np.max(np.abs(v1 + (-1) ** p * v2)) < 1e-13

    def test_euclidean_phi(self):
        cp = CurvatureParam(0.0)
        beta, alpha = 0.9, -0.4
        for p, q in [(0, 0), (2, -1), (-3, 2)]:
            got = basis.phi_prime(p, q, beta, alpha, cp)
            assert got == pytest.approx(np.exp(1j * (p * beta + (2 * q + 1) * alpha)))

    @pytest.mark.parametrize("kappa", [-0.6, 0.4])
    def test_hilbert_eigenrelation(self, kappa, hold):
        hold(selftest.hilbert_eigen, kappa)


class TestIndexing:
    def test_reindex_roundtrip(self):
        for n in range(10):
            for k in range(-4, n + 5):
                p, q = basis.nk_to_pq(n, k)
                assert (p, q) == (n - 2 * k, n - k)
                assert basis.pq_to_nk(p, q) == (n, k)


class TestCoeffTable:
    def test_deterministic_iteration(self):
        t = basis.CoeffTable(nmax=4)
        t[(3, 1)] = 1.0
        t[(0, 0)] = 2.0
        t[(3, 0)] = 3.0
        assert [nk for nk, _ in t.items()] == [(0, 0), (3, 0), (3, 1)]

    def test_band_limit_enforced(self):
        t = basis.CoeffTable(nmax=2)
        with pytest.raises(ValueError):
            t[(3, 0)] = 1.0
        with pytest.raises(ValueError):
            basis.CoeffTable(nmax=1, entries={(2, 0): 1.0})

    def test_missing_defaults_to_zero(self):
        t = basis.CoeffTable(nmax=2)
        assert t[(1, 0)] == 0.0

    @pytest.mark.parametrize("nmax", [-1, -2])
    def test_rejects_negative_band_limit(self, nmax):
        # an empty table at nmax -1 used to pass, and the CLI wrote an
        # all-zero sinogram from it
        with pytest.raises(ValueError, match=f"band limit nmax must be >= 0, got {nmax}"):
            basis.CoeffTable(nmax=nmax)
        assert basis.CoeffTable(nmax=0).items() == []

    def test_rejects_non_integer_band_limit_and_index(self):
        # nmax 2.5 was accepted, and synthesize read the entry (1.5, 0) as
        # mode (1, 0): its integer cast truncated the index
        with pytest.raises(TypeError):
            basis.CoeffTable(nmax=2.5)
        for nk in ((1.5, 0), (1, 0.5)):
            with pytest.raises(TypeError):
                basis.CoeffTable(nmax=3, entries={nk: 1.0})
            t = basis.CoeffTable(nmax=3)
            with pytest.raises(TypeError):
                t[nk] = 1.0
            assert t.entries == {}
        t = basis.CoeffTable(nmax=np.int64(3), entries={(np.int64(1), np.int32(0)): 1.0})
        assert t.nmax == 3 and type(t.nmax) is int and t[(1, 0)] == 1.0

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf), -math.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        t = basis.CoeffTable(nmax=2)
        with pytest.raises(basis._NonFiniteValues):
            t[(1, 0)] = bad
        assert t.entries == {}
        with pytest.raises(basis._NonFiniteValues):
            basis.CoeffTable(nmax=2, entries={(0, 0): 1.0, (1, 1): bad})

