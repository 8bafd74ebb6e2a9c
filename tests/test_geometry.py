"""Geometry layer: metric, isometries, geodesics, scattering, footpoints."""

import math

import numpy as np
import pytest

from diskxray import selftest
from diskxray.geometry import (
    CurvatureParam,
    MoebiusMap,
    conformal_factor,
    exit_time,
    fiber_change,
    footpoint_angles,
    geodesic_point,
    geodesic_velocity,
    isometry_from_tangent,
    scattering_angles,
    sig,
    sig_inverse,
    sig_prime,
)
from diskxray.xray import boundary_grid

KAPPAS = [-0.9, -0.5, -0.2, 0.0, 0.3, 0.5, 0.9]


def oracle_geodesic(beta, alpha, t, kappa):
    """Independent geodesic evaluator: profile moved by the entry isometry.

    Written from scratch (no calls into the package) so the library's
    geodesic_point has a second, independently coded route to compare to.
    """
    if kappa == 0.0:
        z = t
    elif kappa > 0.0:
        z = math.tan(math.sqrt(kappa) * t) / math.sqrt(kappa)
    else:
        z = math.tanh(math.sqrt(-kappa) * t) / math.sqrt(-kappa)
    w = np.exp(1j * alpha) * z
    return np.exp(1j * beta) * (1 - w) / (1 + kappa * w)


def oracle_exit_time(alpha, kappa):
    """Bisection on |gamma(t)| = 1 using only the oracle evaluator."""
    lo, hi = 0.0, 1e-12
    while abs(oracle_geodesic(0.0, alpha, hi, kappa)) < 1.0:
        lo, hi = hi, hi * 2.0
        if hi > 1e3:
            return 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if abs(oracle_geodesic(0.0, alpha, mid, kappa)) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCurvatureParam:
    def test_derived_constants(self):
        cp = CurvatureParam(0.5)
        assert cp.lam == pytest.approx((1 - 0.5) / (1 + 0.5), abs=1e-15)

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, -2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            CurvatureParam(bad)


class TestConformalFactor:
    def test_origin(self):
        for kappa in KAPPAS:
            assert conformal_factor(0.0, CurvatureParam(kappa)) == 1.0

    def test_boundary_value(self):
        assert conformal_factor(np.exp(0.3j), CurvatureParam(0.5)) == pytest.approx(1.5)

    def test_euclidean(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(0, 1, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
        assert np.allclose(conformal_factor(z, CurvatureParam(0.0)), 1.0)


class TestIsometries:
    def test_identity_map(self):
        T = isometry_from_tangent(0.0, 0.0, CurvatureParam(0.3))
        z = 0.4 + 0.2j
        assert T(z) == pytest.approx(z)

    def test_pure_rotation(self):
        T = isometry_from_tangent(0.0, np.pi / 2, CurvatureParam(0.3))
        z = 0.4 + 0.2j
        assert T(z) == pytest.approx(1j * z)

    def test_tangent_data(self):
        cp = CurvatureParam(-0.5)
        T = isometry_from_tangent(0.3, 0.7, cp)
        assert T(0.0) == pytest.approx(0.3)
        want = conformal_factor(0.3, cp) * np.exp(0.7j)
        assert T.deriv(0.0) == pytest.approx(want)
        # derivative against finite differences of the closed form
        h = 1e-6
        fd = (T(h) - T(-h)) / (2 * h)
        assert fd == pytest.approx(want, rel=1e-8)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            MoebiusMap(a=1.2, b=0.0, kappa=0.5)

    def test_rejects_outside_disk(self):
        with pytest.raises(ValueError):
            isometry_from_tangent(1.5, 0.0, CurvatureParam(0.2))

    def test_isometry_from_tangent_broadcasts(self):
        # an array of maps is the family of per-point maps, and one bad
        # member rejects the whole family
        cp = CurvatureParam(-0.5)
        rng = np.random.default_rng(3)
        z1 = 0.95 * rng.uniform(0, 1, 6) * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        th = rng.uniform(0, 2 * np.pi, 6)
        z = 0.8 * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        T = isometry_from_tangent(z1, th, cp)
        for i in range(6):
            Ti = isometry_from_tangent(z1[i], th[i], cp)
            assert T(z)[i] == pytest.approx(Ti(z[i]), rel=1e-15, abs=0)
            assert T.deriv(z)[i] == pytest.approx(Ti.deriv(z[i]), rel=1e-15, abs=0)
        with pytest.raises(ValueError):
            isometry_from_tangent(np.array([0.2, 1.5j, 0.0]), 0.0, cp)
        with pytest.raises(ValueError):
            MoebiusMap(a=np.array([1.0, 1.2]), b=np.zeros(2), kappa=0.5)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_metric_invariance(self, kappa, hold):
        hold(selftest.isometry_invariance, kappa)


class TestExitTime:
    def test_tangential_is_zero(self):
        for kappa in KAPPAS:
            cp = CurvatureParam(kappa)
            assert exit_time(np.pi / 2, cp) == pytest.approx(0.0, abs=1e-12)
            assert exit_time(-np.pi / 2, cp) == pytest.approx(0.0, abs=1e-12)

    def test_euclidean_diameter(self):
        assert exit_time(0.0, CurvatureParam(0.0)) == pytest.approx(2.0)

    def test_positive_curvature_value(self):
        # closed form at kappa=0.5, alpha=0, cross-checked by shooting
        got = exit_time(0.0, CurvatureParam(0.5))
        assert got == pytest.approx(math.atan(2 * math.sqrt(2)) / math.sqrt(0.5), abs=1e-14)
        assert got == pytest.approx(oracle_exit_time(0.0, 0.5), abs=1e-11)

    @pytest.mark.parametrize("kappa", [-0.8, -0.3, 0.4, 0.7])
    def test_against_shooting_oracle(self, kappa):
        cp = CurvatureParam(kappa)
        for alpha in np.linspace(-1.4, 1.4, 9):
            assert exit_time(alpha, cp) == pytest.approx(
                oracle_exit_time(alpha, kappa), abs=1e-10
            )

    def test_rejects_outward(self):
        with pytest.raises(ValueError):
            exit_time(2.0, CurvatureParam(0.1))


class TestGeodesics:
    def test_entry_point(self):
        cp = CurvatureParam(0.6)
        assert geodesic_point(0.0, 0.0, 0.0, cp) == pytest.approx(1.0)

    def test_euclidean_midpoint(self):
        assert geodesic_point(0.0, 0.0, 1.0, CurvatureParam(0.0)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_matches_oracle(self, kappa):
        cp = CurvatureParam(kappa)
        rng = np.random.default_rng(7)
        for _ in range(50):
            beta = rng.uniform(0, 2 * np.pi)
            alpha = rng.uniform(-1.5, 1.5)
            t = rng.uniform(0, 1) * exit_time(alpha, cp)
            assert geodesic_point(beta, alpha, t, cp) == pytest.approx(
                oracle_geodesic(beta, alpha, t, kappa), abs=1e-12
            )

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_unit_speed(self, kappa, hold):
        hold(selftest.unit_speed, kappa)

    def test_scattering_consistency(self, hold):
        hold(selftest.scattering_consistency, *KAPPAS)

    def test_rejects_bad_arclength(self):
        cp = CurvatureParam(0.2)
        tau = exit_time(0.3, cp)
        with pytest.raises(ValueError):
            geodesic_point(0.0, 0.3, tau * 1.01, cp)
        with pytest.raises(ValueError):
            geodesic_point(0.0, 0.3, -0.1, cp)

    def test_tangential_only_time_zero(self):
        cp = CurvatureParam(0.2)
        assert abs(geodesic_point(0.0, np.pi / 2, 0.0, cp)) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            geodesic_point(0.0, np.pi / 2, 0.1, cp)


class TestScattering:
    def test_euclidean_formula(self):
        cp = CurvatureParam(0.0)
        rng = np.random.default_rng(10)
        beta = rng.uniform(0, 2 * np.pi, 50)
        alpha = rng.uniform(-np.pi / 2, np.pi / 2, 50)
        b2, a2 = scattering_angles(beta, alpha, cp)
        assert np.allclose(b2, np.mod(beta + np.pi + 2 * alpha, 2 * np.pi))
        assert np.allclose(np.mod(a2, 2 * np.pi), np.mod(np.pi - alpha, 2 * np.pi))

    def test_antipodal_involution(self, antipodal_scattering_angles):
        cp = CurvatureParam(0.7)
        rng = np.random.default_rng(11)
        beta = rng.uniform(0, 2 * np.pi, 100)
        alpha = rng.uniform(-np.pi / 2, np.pi / 2, 100)
        back_beta, back_alpha = antipodal_scattering_angles(*antipodal_scattering_angles(beta, alpha, cp), cp)
        assert np.allclose(back_beta, beta, rtol=0, atol=1e-12)
        assert np.allclose(back_alpha, alpha, rtol=0, atol=1e-12)

    def test_normal_entry(self, antipodal_scattering_angles):
        for kappa in (-0.5, 0.0, 0.6):
            cp = CurvatureParam(kappa)
            s_beta, s_alpha = scattering_angles(0.0, 0.0, cp)
            assert s_beta == pytest.approx(np.pi)
            assert abs(s_alpha) == pytest.approx(np.pi)  # pi - 0 wrapped to [-pi, pi)
            sa_beta, sa_alpha = antipodal_scattering_angles(0.0, 0.0, cp)
            assert sa_beta == pytest.approx(np.pi)
            assert sa_alpha == pytest.approx(0.0)

    def test_full_scattering_involution(self):
        # S is an involution on the whole bundle with the extended signature
        cp = CurvatureParam(-0.6)
        rng = np.random.default_rng(12)
        beta = rng.uniform(0, 2 * np.pi, 200)
        alpha = rng.uniform(-np.pi, np.pi, 200)
        b2, a2 = scattering_angles(beta, alpha, cp)
        b3, a3 = scattering_angles(b2, a2, cp)
        assert np.max(np.abs(np.exp(1j * b3) - np.exp(1j * beta))) < 1e-12
        assert np.max(np.abs(np.exp(1j * a3) - np.exp(1j * alpha))) < 1e-12


class TestSignature:
    def test_euclidean_identity(self):
        cp = CurvatureParam(0.0)
        a = np.linspace(-3, 3, 31)
        assert np.allclose(sig(a, cp), a)
        assert np.allclose(sig_prime(a, cp), 1.0)

    def test_reference_value(self):
        # arctan(lam tan(pi/4)) with lam = 1/3
        got = sig(np.pi / 4, CurvatureParam(0.5))
        assert got == pytest.approx(math.atan(1.0 / 3.0), abs=1e-15)
        assert got == pytest.approx(0.32175055439664219, abs=1e-15)

    def test_branch_structure(self):
        cp = CurvatureParam(0.7)
        a = np.linspace(-7, 7, 2001)
        s = sig(a, cp)
        assert np.all(np.diff(s) > 0)  # strictly increasing
        assert sig(0.0, cp) == 0.0
        assert np.allclose(sig(-a, cp), -s)
        assert np.allclose(sig(a + np.pi, cp), s + np.pi)
        # principal branch matches arctan(lam tan a) on (-pi/2, pi/2)
        inner = np.abs(a) < np.pi / 2 - 1e-3
        assert np.allclose(s[inner], np.arctan(cp.lam * np.tan(a[inner])))

    def test_derivative_agrees_with_finite_difference(self):
        cp = CurvatureParam(-0.4)
        a = np.linspace(-3, 3, 101)
        h = 1e-6
        fd = (sig(a + h, cp) - sig(a - h, cp)) / (2 * h)
        assert np.max(np.abs(fd - sig_prime(a, cp))) < 1e-9

    def test_inverse_composition(self):
        cp = CurvatureParam(0.8)
        rng = np.random.default_rng(13)
        a = rng.uniform(-4, 4, 100)
        assert np.max(np.abs(sig(sig_inverse(a, cp), cp) - a)) < 1e-12
        assert np.max(np.abs(sig_inverse(sig(a, cp), cp) - a)) < 1e-12

    @pytest.mark.parametrize("kappa", [-0.999, -0.99, -0.9, 0.9, 0.99, 0.999])
    def test_matches_extended_precision_near_the_cliff(self, kappa):
        # on the 64-node grid's alpha nodes and 201 uniform alpha, against
        # 40 digits: the forms in cos 2a erred by up to 4.8e-14 in sig and
        # 2.3e-10 relative in sig' at |kappa| = 0.999
        mp = pytest.importorskip("mpmath")
        cp = CurvatureParam(kappa)
        x = np.polynomial.legendre.leggauss(64)[0]
        a = np.concatenate([sig_inverse(0.5 * np.pi * x, cp), np.linspace(-np.pi / 2, np.pi / 2, 201)])
        with mp.workdps(40):
            k = mp.mpf(kappa)
            want_s = [aa - mp.atan2(k * mp.sin(2 * aa), 1 + k * mp.cos(2 * aa)) for aa in map(mp.mpf, a)]
            want_sp = [(1 - k * k) / (1 + k * k + 2 * k * mp.cos(2 * mp.mpf(aa))) for aa in a]
            err_s = max(abs(float(got - want)) for got, want in zip(sig(a, cp), want_s))
            err_sp = max(abs(float(got / want - 1)) for got, want in zip(sig_prime(a, cp), want_sp))
        assert err_s <= 4.5e-16 and err_sp <= 1e-15

    @pytest.mark.parametrize("kappa", [0.0, -0.3, 0.3, -0.9, 0.9, -0.99, 0.99, -0.999, 0.999])
    def test_relative_accuracy_against_extended_precision(self, kappa):
        # small results included (alpha = +-10^u, u in [-8, 0]) and |alpha| <= 20
        # across branches, against 40 digits; the form alpha - arg(1 + kappa
        # e^{2i alpha}) erred by 4.9e-13 relative here at kappa = 0.999
        mp = pytest.importorskip("mpmath")
        cp = CurvatureParam(kappa)
        small = 10.0 ** np.linspace(-8.0, 0.0, 41)
        a = np.concatenate([small, -small, np.linspace(-20.0, 20.0, 160)])  # 0 excluded

        def want_sig(aa, k):
            lam = (1 - k) / (1 + k)
            turns = mp.nint(aa / mp.pi)
            return mp.atan(lam * mp.tan(aa - turns * mp.pi)) + turns * mp.pi

        with mp.workdps(40):
            k = mp.mpf(kappa)
            lam = (1 - k) / (1 + k)
            for got_s, got_i, got_sp, aa in zip(sig(a, cp), sig_inverse(a, cp), sig_prime(a, cp), map(mp.mpf, a)):
                assert abs(float(got_s / want_sig(aa, k) - 1)) <= 1e-15, ("sig", float(aa))
                assert abs(float(got_i / want_sig(aa, -k) - 1)) <= 1e-15, ("sig_inverse", float(aa))
                want_sp = lam / (mp.cos(aa) ** 2 + lam**2 * mp.sin(aa) ** 2)
                assert abs(float(got_sp / want_sp - 1)) <= 1e-15, ("sig_prime", float(aa))

    @pytest.mark.parametrize("kappa", [-0.999, -0.99, -0.9])
    def test_alpha_nodes_land_on_their_s_nodes(self, kappa):
        # sig' < 1 there, so the alpha nodes sig^{-1}(pi x / 2) map back to
        # within an ulp; the a - atan2 form missed by 1.3e-13 at kappa = -0.999
        cp = CurvatureParam(kappa)
        t = 0.5 * np.pi * np.polynomial.legendre.leggauss(64)[0]
        assert np.max(np.abs(sig(sig_inverse(t, cp), cp) - t)) <= 4.4e-16

    def test_euclidean_identity_is_bit_exact(self):
        cp = CurvatureParam(0.0)
        a = np.concatenate([np.linspace(-20.0, 20.0, 161), 10.0 ** np.linspace(-8.0, 0.0, 41)])
        assert np.array_equal(sig(a, cp), a) and np.array_equal(sig_inverse(a, cp), a)
        assert np.array_equal(sig_prime(a, cp), np.ones_like(a))
        thp, jac = fiber_change(np.linspace(0.0, 0.99, 7)[:, None], a, cp)
        assert np.array_equal(thp, np.broadcast_to(a, thp.shape)) and np.array_equal(jac, np.ones_like(jac))
        for n in (48, 64, 96, 128):
            x = np.polynomial.legendre.leggauss(n)[0]
            assert np.array_equal(boundary_grid(cp, 4, n).alpha, 0.5 * np.pi * x)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_derivative_bounds(self, kappa, hold):
        hold(selftest.sig_bounds, kappa)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_linear_fractional_identity(self, kappa, hold):
        hold(selftest.lft_identity, kappa)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_sqrt_jacobian_real(self, kappa, hold):
        hold(selftest.sqrt_jacobian, kappa)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_sine_cosine_relations(self, kappa, hold):
        hold(selftest.sine_cosine, kappa)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_derivative_dual_representation(self, kappa):
        # sig' equals both the alpha-side and the sig-side closed forms
        cp = CurvatureParam(kappa)
        a = np.linspace(-np.pi, np.pi, 501)
        s, sp = sig(a, cp), sig_prime(a, cp)
        alt = (1 + kappa**2 - 2 * kappa * np.cos(2 * s)) / (1 - kappa**2)
        assert np.max(np.abs(sp - alt)) < 1e-12
        # and the cosine transfer between the two angles
        lhs = np.cos(2 * s)
        rhs = ((1 + kappa**2) * np.cos(2 * a) + 2 * kappa) / (1 + kappa**2 + 2 * kappa * np.cos(2 * a))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("kappa", [-0.7, -0.2, 0.4, 0.8])
    def test_holomorphy(self, kappa, hold):
        # e^{2i sig} itself is the registry entry; its powers are checked here
        hold(selftest.holomorphy, kappa)
        cp = CurvatureParam(kappa)
        # powers inherit the one-sided even structure: e^{2iq sig} is
        # holomorphic even for q > 0 and anti-holomorphic even for q < 0
        # (finer grid: the power spectra decay like |kappa|^{m/2})
        n2 = 2048
        a2 = np.arange(n2) * 2 * np.pi / n2
        m2 = np.fft.fftfreq(n2, 1.0 / n2).astype(int)
        for q in (2, 3):
            up = np.fft.fft(np.exp(2j * q * sig(a2, cp))) / n2
            assert np.max(np.abs(up[m2 < 0])) < 1e-10
            assert np.max(np.abs(up[m2 % 2 == 1])) < 1e-10
            down = np.fft.fft(np.exp(-2j * q * sig(a2, cp))) / n2
            assert np.max(np.abs(down[m2 > 0])) < 1e-10

    @pytest.mark.parametrize("kappa", [-0.8, -0.3, 0.4, 0.7])
    def test_profile_weighted_sine_identity(self, kappa):
        # the radius of the central geodesic at arclength t satisfies
        # sin_{4k}(t) = rho / (1 + kappa rho^2), where sin_{4k} is the
        # curvature-weighted sine; this is the ingredient that turns the
        # law of sines into the closed-form footpoint angle
        cp = CurvatureParam(kappa)
        r = math.sqrt(abs(kappa))
        t = np.linspace(0.0, 0.9 * exit_time(0.0, cp), 50)
        # recover the profile radius from the geodesic through z = 1:
        # gamma(t) = (1 - z(t)) / (1 + kappa z(t))  =>  z(t) by inversion
        gam = np.real(geodesic_point(0.0, 0.0, t, cp))
        rho = (1.0 - gam) / (kappa * gam + 1.0)
        if kappa > 0:
            sin4k = np.sin(2 * r * t) / (2 * r)
        else:
            sin4k = np.sinh(2 * r * t) / (2 * r)
        rhs = rho / (1 + kappa * rho**2)
        assert np.max(np.abs(sin4k - rhs) / (1 + np.abs(rhs))) < 1e-13


class TestFootpoint:
    def test_euclidean_relations(self):
        cp = CurvatureParam(0.0)
        rng = np.random.default_rng(17)
        rho = rng.uniform(0, 0.99, 200)
        th = rng.uniform(0, 2 * np.pi, 200)
        bm, am = footpoint_angles(rho, 0.0, th, cp)
        assert np.max(np.abs(np.sin(am) + rho * np.sin(th))) < 1e-12
        wrapped = np.mod(bm + am + np.pi - th, 2 * np.pi)
        assert np.max(np.minimum(wrapped, 2 * np.pi - wrapped)) < 1e-12

    def test_center(self):
        for kappa in (-0.5, 0.0, 0.7):
            cp = CurvatureParam(kappa)
            bm, am = footpoint_angles(0.0, 0.0, 1.0, cp)
            assert am == pytest.approx(0.0, abs=1e-15)
            assert bm == pytest.approx(np.mod(1.0 - np.pi, 2 * np.pi), abs=1e-12)

    def test_rejects_boundary_radius(self):
        with pytest.raises(ValueError):
            footpoint_angles(1.0, 0.0, 0.0, CurvatureParam(0.1))

    @pytest.mark.parametrize("kappa", [-0.7, -0.3, 0.5, 0.8])
    def test_roundtrip_through_geodesic(self, kappa):
        # the footpoint geodesic passes through (z, theta); nearest-point
        # residual found by bisection on the projection equation
        cp = CurvatureParam(kappa)
        rng = np.random.default_rng(18)
        for _ in range(25):
            rho = rng.uniform(0, 0.95)
            om = rng.uniform(0, 2 * np.pi)
            th = rng.uniform(0, 2 * np.pi)
            z0 = rho * np.exp(1j * om)
            bm, am = footpoint_angles(rho, om, th, cp)
            tau = exit_time(am, cp)

            def proj(t):
                gam = geodesic_point(bm, am, t, cp)
                vel = geodesic_velocity(bm, am, t, cp)
                return ((gam - z0) * np.conj(vel)).real

            ts = np.linspace(0, tau, 80)
            hs = np.array([proj(t) for t in ts])
            idx = np.where(np.sign(hs[:-1]) != np.sign(hs[1:]))[0]
            assert len(idx) > 0
            lo, hi = ts[idx[0]], ts[idx[0] + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.sign(proj(mid)) == np.sign(proj(lo)):
                    lo = mid
                else:
                    hi = mid
            t_hat = 0.5 * (lo + hi)
            assert abs(geodesic_point(bm, am, t_hat, cp) - z0) < 1e-10
            vel = geodesic_velocity(bm, am, t_hat, cp)
            dth = np.angle(vel) - th
            assert abs(np.remainder(dth + np.pi, 2 * np.pi) - np.pi) < 1e-9

    def test_specific_case(self):
        cp = CurvatureParam(0.5)
        bm, am = footpoint_angles(0.6, 0.0, 1.0, cp)
        # sine relation pins alpha
        want = -np.arcsin((1 + 0.5) * 0.6 * np.sin(1.0) / (1 + 0.5 * 0.36))
        assert am == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_sine_identity(self, kappa, hold):
        hold(selftest.footpoint_sine, kappa)

    def test_rotation_equivariance(self):
        cp = CurvatureParam(0.4)
        rng = np.random.default_rng(20)
        for _ in range(30):
            rho, om, th = rng.uniform(0, 0.95), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
            b1, a1 = footpoint_angles(rho, om, th, cp)
            b0, a0 = footpoint_angles(rho, 0.0, th - om, cp)
            assert a1 == pytest.approx(a0, abs=1e-13)
            assert np.exp(1j * b1) == pytest.approx(np.exp(1j * (b0 + om)), abs=1e-12)


class TestFiberChange:
    def test_trivial_cases(self):
        cp0 = CurvatureParam(0.0)
        th = np.linspace(0, 2 * np.pi, 11)
        thp, jac = fiber_change(0.5, th, cp0)
        assert np.allclose(thp, th) and np.allclose(jac, 1.0)
        cp = CurvatureParam(0.7)
        thp, jac = fiber_change(0.0, th, cp)
        assert np.allclose(thp, th) and np.allclose(jac, 1.0)

    def test_jacobian_by_finite_difference(self):
        cp = CurvatureParam(0.7)
        rho, th = 0.5, 0.9
        _, jac = fiber_change(rho, th, cp)
        h = 1e-6
        fd = (fiber_change(rho, th + h, cp)[0] - fiber_change(rho, th - h, cp)[0]) / (2 * h)
        assert jac == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("kappa", [-0.999, -0.99, 0.99, 0.999])
    def test_jacobian_matches_extended_precision(self, kappa):
        # rho up to 0.999, theta across (-pi/2, pi/2), against 40 digits:
        # the form (1 + m)^2 - 4 m sin^2 theta erred by 2.2e-12 relative
        # at kappa = 0.99
        mp = pytest.importorskip("mpmath")
        rho = np.repeat(np.linspace(0.0, 0.999, 41), 41)
        th = np.tile(np.linspace(-np.pi / 2, np.pi / 2, 41), 41)
        jac = fiber_change(rho, th, CurvatureParam(kappa))[1]
        with mp.workdps(40):
            err = 0.0
            for r, t, got in zip(rho, th, jac):
                m = mp.mpf(kappa) * mp.mpf(r) ** 2
                want = (1 - m * m) / (1 + m * m + 2 * m * mp.cos(2 * mp.mpf(t)))
                err = max(err, abs(float(got / want - 1)))
        assert err <= 1e-14

    @pytest.mark.parametrize("kappa", [-0.999, -0.99, 0.99, 0.999])
    def test_matches_extended_precision_near_the_rim(self, kappa):
        # theta' and the jacobian relative to 40 digits for rho = 1 - 10^u,
        # u in [-4, -1]: forming kappa rho^2 before 1 -+ kappa rho^2 erred here
        # by 3.3e-13 (theta', kappa = 0.999) and 5.9e-14 (jacobian)
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1)
        rho = 1.0 - 10.0 ** rng.uniform(-4.0, -1.0, 200)
        th = rng.uniform(-np.pi / 2, np.pi / 2, 200)
        thp, jac = fiber_change(rho, th, CurvatureParam(kappa))
        with mp.workdps(40):
            for r, t, got_t, got_j in zip(rho, th, thp, jac):
                m = mp.mpf(kappa) * mp.mpf(r) ** 2
                lam = (1 - m) / (1 + m)
                assert abs(float(got_t / mp.atan(lam * mp.tan(mp.mpf(t))) - 1)) <= 1e-15
                assert abs(float(got_j * (mp.cos(t) ** 2 + lam**2 * mp.sin(t) ** 2) / lam - 1)) <= 1e-15

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_relations_to_footpoint(self, kappa, hold):
        hold(selftest.fiber_closed_forms, kappa)
