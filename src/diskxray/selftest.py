"""Invariant suite: every structural identity of the library at desk scale.

Each check returns (name, measured, tolerance); `run` collects them into
a report.  The suite is what `diskxray selftest` executes; the pytest
acceptance tests run sharper versions of the same identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis, boundary, xray
from .geometry import (
    CurvatureParam,
    conformal_factor,
    exit_time,
    fiber_change,
    footpoint_angles,
    geodesic_point,
    geodesic_velocity,
    isometry_from_tangent,
    scattering_angles,
    sig,
    sig_prime,
)


@dataclass
class CheckResult:
    name: str
    measured: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.measured < self.tol


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# geometry checks
# ---------------------------------------------------------------------------

def check_isometry_invariance(cp, n=500):
    rng = _rng(1)
    z1 = rng.uniform(0, 1, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    th = rng.uniform(0, 2 * np.pi, n)
    z = rng.uniform(0, 1, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    zeta = rng.normal(size=n) + 1j * rng.normal(size=n)
    worst = 0.0
    for i in range(n):
        T = isometry_from_tangent(z1[i], th[i], cp)
        lhs = abs(T.deriv(z[i]) * zeta[i]) / conformal_factor(T(z[i]), cp)
        rhs = abs(zeta[i]) / conformal_factor(z[i], cp)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return CheckResult(f"isometry metric invariance (kappa={cp.kappa})", worst, 1e-12)


def check_unit_speed(cp, n=200):
    rng = _rng(2)
    beta = rng.uniform(0, 2 * np.pi, n)
    alpha = rng.uniform(-1.4, 1.4, n)
    tau = exit_time(alpha, cp)
    t = tau * rng.uniform(0.1, 0.9, n)
    h = 1e-6
    num = np.abs(
        geodesic_point(beta, alpha, t + h, cp) - geodesic_point(beta, alpha, t - h, cp)
    ) / (2 * h)
    speed = num / np.abs(conformal_factor(geodesic_point(beta, alpha, t, cp), cp))
    return CheckResult(f"geodesic unit speed (kappa={cp.kappa})", float(np.max(np.abs(speed - 1))), 1e-8)


def check_scattering_consistency(cp, n=1000):
    rng = _rng(3)
    beta = rng.uniform(0, 2 * np.pi, n)
    alpha = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, n)
    tau = exit_time(alpha, cp)
    zend = geodesic_point(beta, alpha, tau, cp)
    b2, a2 = scattering_angles(beta, alpha, cp)
    err_pos = np.max(np.abs(zend - np.exp(1j * b2)))
    # exit direction must be the fan-beam direction of the scattered point
    vel = geodesic_velocity(beta, alpha, tau, cp)
    want = np.exp(1j * (b2 + np.pi + a2))
    err_dir = np.max(np.abs(vel / np.abs(vel) - want))
    return CheckResult(
        f"scattering matches geodesic endpoints (kappa={cp.kappa})",
        float(max(err_pos, err_dir)),
        1e-9,
    )


def check_lft_identity(cp, n=1000):
    rng = _rng(4)
    a = rng.uniform(-np.pi, np.pi, n)
    lhs = np.exp(2j * sig(a, cp)) * (1 + cp.kappa * np.exp(2j * a))
    rhs = np.exp(2j * a) + cp.kappa
    return CheckResult(f"linear-fractional signature identity (kappa={cp.kappa})",
                       float(np.max(np.abs(lhs - rhs))), 1e-12)


def check_sqrtjac(cp, n=1000):
    rng = _rng(5)
    a = rng.uniform(-np.pi, np.pi, n)
    s = sig(a, cp)
    f = np.exp(1j * a) * (np.exp(-1j * s) - cp.kappa * np.exp(1j * s))
    imag = np.max(np.abs(f.imag))
    diff = np.max(np.abs(f.real - np.sqrt((1 - cp.kappa**2) * sig_prime(a, cp))))
    return CheckResult(f"sqrt-jacobian realness (kappa={cp.kappa})", float(max(imag, diff)), 1e-12)


def check_sine_cosine(cp, n=1000):
    rng = _rng(6)
    a = rng.uniform(-np.pi, np.pi, n)
    s, sp = sig(a, cp), sig_prime(a, cp)
    lam = cp.lam
    e1 = np.max(np.abs(np.sqrt(sp / lam) * np.cos(a) - np.cos(s)))
    e2 = np.max(np.abs(np.sqrt(sp * lam) * np.sin(a) - np.sin(s)))
    return CheckResult(f"sine/cosine signature relations (kappa={cp.kappa})", float(max(e1, e2)), 1e-12)


def check_holomorphy(cp, n=512):
    a = np.arange(n) * 2 * np.pi / n
    coeffs = np.fft.fft(np.exp(2j * sig(a, cp))) / n
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    neg = np.max(np.abs(coeffs[m < 0]))
    odd = np.max(np.abs(coeffs[m % 2 == 1]))
    mean = abs(coeffs[0] - cp.kappa)
    return CheckResult(f"signature holomorphy and mean (kappa={cp.kappa})",
                       float(max(neg, odd, mean)), 1e-10)


def check_sig_bounds(cp, n=1000):
    a = np.linspace(-np.pi, np.pi, n)
    sp = sig_prime(a, cp)
    lo, hi = min(cp.lam, 1 / cp.lam), max(cp.lam, 1 / cp.lam)
    breach = max(float(np.max(lo - sp)), float(np.max(sp - hi)), 0.0)
    return CheckResult(f"signature derivative bounds (kappa={cp.kappa})", breach, 1e-12)


def check_footpoint_sine(cp, n=1000):
    rng = _rng(7)
    rho = rng.uniform(0, 0.99, n)
    th = rng.uniform(0, 2 * np.pi, n)
    _, am = footpoint_angles(rho, 0.0, th, cp)
    lhs = np.sin(sig(am, cp)) / np.sqrt(sig_prime(am, cp))
    rhs = -math.sqrt(1 - cp.kappa**2) * rho * np.sin(th) / (1 + cp.kappa * rho**2)
    return CheckResult(f"footpoint sine relation (kappa={cp.kappa})",
                       float(np.max(np.abs(lhs - rhs))), 1e-10)


def check_fiber_jacobian(cp, n=400):
    rng = _rng(8)
    rho = rng.uniform(0, 0.99, n)
    th = rng.uniform(0, 2 * np.pi, n)
    thp, jac = fiber_change(rho, th, cp)
    h = 1e-6
    fd = (fiber_change(rho, th + h, cp)[0] - fiber_change(rho, th - h, cp)[0]) / (2 * h)
    err_fd = np.max(np.abs(jac - fd))
    # closed-form relations against the footpoint map
    _, am = footpoint_angles(rho, 0.0, th, cp)
    sp = sig_prime(am, cp)
    ratio = (1 - cp.kappa * rho**2) / (1 + cp.kappa * rho**2)
    err_jac = np.max(np.abs(jac - ratio / cp.lam * sp))
    err_sin = np.max(np.abs(np.sin(thp) - ratio * np.sqrt(sp / cp.lam) * np.sin(th)))
    return CheckResult(f"fiber substitution jacobian (kappa={cp.kappa})",
                       float(max(err_fd, err_jac, err_sin)), 1e-8)


# ---------------------------------------------------------------------------
# basis checks
# ---------------------------------------------------------------------------

def check_cauchy_riemann(cp=None, nmax=5):
    h = 1e-4
    rng = _rng(9)
    pts = rng.uniform(0.1, 0.8, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))

    def dz(fn, z):
        fx = (fn(z + h) - fn(z - h)) / (2 * h)
        fy = (fn(z + 1j * h) - fn(z - 1j * h)) / (2 * h)
        return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)

    worst = 0.0
    for n in range(nmax + 1):
        for k in range(n + 1):
            dzk, dbk = dz(lambda z, n=n, k=k: basis.zernike(n, k, z), pts)
            if k == 0:
                worst = max(worst, float(np.max(np.abs(dbk))))
            if k == n:
                worst = max(worst, float(np.max(np.abs(dzk))))
            if k < n:
                _, db_next = dz(lambda z, n=n, k=k: basis.zernike(n, k + 1, z), pts)
                worst = max(worst, float(np.max(np.abs(dzk + db_next))))
    return CheckResult("zernike Cauchy-Riemann chain", worst, 1e-6)


def check_zernike_orthogonality(cp, nmax=6):
    dg = xray.disk_grid(cp, 96, 96, measure="weighted")
    pts = dg.points()
    fams = {}
    for n in range(nmax + 1):
        for k in range(n + 1):
            fams[(n, k)] = dg.with_values(basis.zernike_kappa(n, k, pts, cp))
    worst = 0.0
    for (n, k), f in fams.items():
        for (n2, k2), f2 in fams.items():
            if (n2, k2) < (n, k):
                continue
            got = xray.disk_inner(f, f2)
            want = basis.norms(n, k, cp)[1] if (n, k) == (n2, k2) else 0.0
            worst = max(worst, abs(got - want))
    return CheckResult(f"deformed Zernike orthogonality (kappa={cp.kappa})", worst, 1e-8)


def check_psi_orthogonality(cp, nmax=5):
    bg = xray.boundary_grid(cp, 64, 48)
    bb, aa = bg.mesh()
    fams = {}
    for n in range(nmax + 1):
        for k in range(-1, n + 2):
            fams[(n, k)] = bg.with_values(basis.psi_kappa(n, k, bb, aa, cp))
    worst = 0.0
    for (n, k), f in fams.items():
        for (n2, k2), f2 in fams.items():
            if (n2, k2) < (n, k):
                continue
            got = xray.boundary_inner(f, f2)
            want = basis.norms(n, k, cp)[0] if (n, k) == (n2, k2) else 0.0
            worst = max(worst, abs(got - want))
    return CheckResult(f"psi orthogonality (kappa={cp.kappa})", worst, 1e-10)


def check_hilbert_eigen(cp, prange=4, qrange=4):
    nf = 1024
    a = np.arange(nf) * 2 * np.pi / nf
    m = np.fft.fftfreq(nf, 1.0 / nf).astype(int)
    mult = -1j * np.sign(m)
    worst = 0.0
    for p in range(-prange, prange + 1):
        for q in range(-qrange, qrange + 1):
            vals = basis.phi_prime(p, q, 0.37, a, cp)
            got = np.fft.ifft(np.fft.fft(vals) * mult)
            want = -1j * np.sign(2 * q + 1) * vals
            worst = max(worst, float(np.max(np.abs(got - want))))
    return CheckResult(f"Hilbert eigenrelation on phi' (kappa={cp.kappa})", worst, 1e-8)


def check_boundary_recursion(nmax=8):
    worst = 0.0
    for n in range(2, nmax + 1):
        for k in range(1, n):
            lhs = basis.zernike_radial(n, k, 1.0)
            rhs = (
                basis.zernike_radial(n - 2, k - 1, 1.0)
                - basis.zernike_radial(n - 1, k - 1, 1.0)
                + basis.zernike_radial(n - 1, k, 1.0)
            )
            worst = max(worst, abs(lhs - rhs))
    return CheckResult("zernike boundary recursion", worst, 1e-12)


# ---------------------------------------------------------------------------
# transform checks
# ---------------------------------------------------------------------------

def check_quadrature_masses(cp):
    n_alpha = 512 if abs(cp.kappa) > 0.6 else 96
    bg = xray.boundary_grid(cp, 8, n_alpha)
    dg = xray.disk_grid(cp, 128, 16)
    e1 = abs(np.sum(bg.weights()) - 2 * np.pi**2 / (1 + cp.kappa))
    e2 = abs(np.sum(dg.weights()) - np.pi / (1 + cp.kappa))
    return CheckResult(f"quadrature masses (kappa={cp.kappa})", float(max(e1, e2)), 1e-10)


def check_forward_diagonal(cp, nmax=3):
    bg = xray.boundary_grid(cp, 32, 40)
    bb, aa = bg.mesh()
    worst = 0.0
    for n in range(nmax + 1):
        for k in range(n + 1):
            f = lambda z, n=n, k=k: basis.w_kappa(z, cp) * basis.zernike_kappa_hat(n, k, z, cp)
            sg = xray.sinogram(f, bg, cp)
            want = xray.singular_value(n, cp) * basis.psi_kappa_hat(n, k, bb, aa, cp)
            worst = max(worst, float(np.max(np.abs(sg.values - want))))
    return CheckResult(f"forward transform diagonal (kappa={cp.kappa})", worst, 1e-8)


def check_adjoint_duality(cp):
    rng = _rng(10)
    nmax = 3
    ftab = basis.CoeffTable(nmax=nmax)
    gtab = basis.CoeffTable(nmax=nmax)
    for n in range(nmax + 1):
        for k in range(n + 1):
            ftab[(n, k)] = complex(rng.normal(), rng.normal())
            gtab[(n, k)] = complex(rng.normal(), rng.normal())

    def f(z):
        return basis.zernike_kappa_series(ftab, z, cp)

    def g(beta, alpha):
        return sum(c * basis.psi_kappa_hat(n, k, beta, alpha, cp) for (n, k), c in gtab.items())

    bg = xray.boundary_grid(cp, 32, 48)
    bb, aa = bg.mesh()
    sino = xray.sinogram(lambda z: basis.w_kappa(z, cp) * f(z), bg, cp)
    lhs = xray.boundary_inner(sino, bg.with_values(g(bb, aa)))

    dg = xray.disk_grid(cp, 64, 32, measure="weighted")
    pts = dg.points()

    def g_over_mu(beta, alpha):
        return g(beta, alpha) / np.cos(alpha)

    back = xray.adjoint_sharp(g_over_mu, pts, cp, n_theta=512)
    rhs = xray.disk_inner(dg.with_values(f(pts)), dg.with_values(back))
    return CheckResult(f"adjoint duality (kappa={cp.kappa})",
                       abs(lhs - rhs) / abs(lhs), 1e-6)


def check_adjoint_kernel(cp):
    rng = _rng(11)
    z = rng.uniform(0, 0.9, 6) * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    worst = 0.0
    for n in range(3):
        for k in (-1, n + 1):
            g = lambda beta, alpha, n=n, k=k: basis.psi_over_mu(n, k, beta, alpha, cp)
            worst = max(worst, float(np.max(np.abs(xray.adjoint_sharp(g, z, cp)))))
    return CheckResult(f"adjoint kernel modes (kappa={cp.kappa})", worst, 1e-7)


def check_roundtrip(cp):
    bg = xray.boundary_grid(cp, 32, 40)
    dg = xray.disk_grid(cp, 64, 32)
    rng = _rng(12)
    tab = basis.CoeffTable(nmax=4)
    for n in range(5):
        for k in range(n + 1):
            tab[(n, k)] = complex(rng.normal(), rng.normal())

    def f(z):
        return basis.w_kappa(z, cp) * basis.zernike_kappa_series(tab, z, cp)

    sg = xray.sinogram(f, bg, cp)
    res = xray.invert(sg, 4, cp, disk_template=dg)
    truth = dg.with_values(f(dg.points()))
    err = dg.with_values(res.recon.values - truth.values).norm() / truth.norm()
    return CheckResult(f"inversion round trip (kappa={cp.kappa})", err, 1e-6)


def check_euclidean_degeneration():
    tiny = CurvatureParam(1e-12)
    zero = CurvatureParam(0.0)
    a = np.linspace(-1.4, 1.4, 101)
    e1 = np.max(np.abs(exit_time(a, tiny) - exit_time(a, zero)))
    e2 = np.max(np.abs(sig(a, tiny) - a))
    t = np.linspace(0, 1.2, 7)
    e3 = np.max(np.abs(geodesic_point(0.3, 0.5, t, tiny) - geodesic_point(0.3, 0.5, t, zero)))
    return CheckResult("euclidean degeneration at kappa=1e-12", float(max(e1, e2, e3)), 1e-8)


def check_quadrature_convergence(cp):
    f = lambda z: np.exp(z) * basis.w_kappa(z, cp)
    bp_beta, bp_alpha = 0.7, 0.3
    vals = []
    for nn in (32, 64):
        quad = xray.GeodesicQuad(n_nodes=nn)
        vals.append(xray._forward_batch(f, [bp_beta], [bp_alpha], cp, quad)[0])
    return CheckResult(f"forward quadrature two-level agreement (kappa={cp.kappa})",
                       abs(vals[0] - vals[1]), 1e-9)


# ---------------------------------------------------------------------------
# boundary operator checks
# ---------------------------------------------------------------------------

def check_operator_rules(cp, rng_seed=13):
    tpl = xray.boundary_grid(cp, 64, 48)
    bb, aa = tpl.mesh()
    nb, nf = 128, 512
    worst = 0.0
    for (p, q) in [(0, 0), (2, 3), (-3, 1), (4, 1), (-4, -2), (1, 1)]:
        ufam = basis.u_prime(p, q, bb, aa, cp)
        scale = max(float(np.max(np.abs(ufam))), 1.0)
        got_c = boundary.c_minus(
            lambda beta, alpha: basis.u_prime(p, q, beta, alpha, cp), cp, tpl, nb, nf
        )
        worst = max(worst, float(np.max(np.abs(got_c.values - boundary.c_minus_rule(p, q) * ufam))) / scale)
        got_p = boundary.p_minus(
            lambda beta, alpha: basis.v_prime(p, q, beta, alpha, cp), cp, tpl, nb, nf
        )
        worst = max(worst, float(np.max(np.abs(got_p.values - boundary.p_minus_rule(p, q) * ufam))) / scale)
    return CheckResult(f"P-/C- spectral rules (kappa={cp.kappa})", worst, 1e-6)


def check_projection(cp):
    tpl = xray.boundary_grid(cp, 48, 48)
    rng = _rng(14)
    tab = basis.CoeffTable(nmax=4)
    for n in range(5):
        for k in range(n + 1):
            tab[(n, k)] = complex(rng.normal(), rng.normal())

    def f(z):
        return basis.w_kappa(z, cp) * basis.zernike_kappa_series(tab, z, cp)

    sg = xray.sinogram(f, tpl, cp)
    res = boundary.project_to_range(sg, cp, n_beta=128, n_fiber=256)
    e_range = res.relative_change
    cok = boundary.project_to_range(
        lambda beta, alpha: basis.psi_kappa_hat(2, -1, beta, alpha, cp), cp, tpl, 128, 256
    )
    e_cok = cok.projected.norm()
    rep = boundary.moment_residuals(sg, 6, 2, cp)
    e_mom = rep.max_normalized(cp)
    return CheckResult(f"range projection and moments (kappa={cp.kappa})",
                       float(max(e_range, e_cok, e_mom)), 1e-6)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def run(kappa: float = 0.5, verbose: bool = False) -> list[CheckResult]:
    """Run the whole invariant suite at the given curvature.

    Some checks run at fixed auxiliary curvatures as well; kappa controls
    the main geometry.  Returns the list of results.
    """
    cp = CurvatureParam(kappa)
    checks = [
        check_isometry_invariance(cp),
        check_unit_speed(cp),
        check_scattering_consistency(cp),
        check_lft_identity(cp),
        check_sqrtjac(cp),
        check_sine_cosine(cp),
        check_holomorphy(cp),
        check_sig_bounds(cp),
        check_footpoint_sine(cp),
        check_fiber_jacobian(cp),
        check_cauchy_riemann(),
        check_zernike_orthogonality(cp),
        check_psi_orthogonality(cp),
        check_hilbert_eigen(cp),
        check_boundary_recursion(),
        check_quadrature_masses(cp),
        check_forward_diagonal(cp),
        check_adjoint_duality(cp),
        check_adjoint_kernel(cp),
        check_roundtrip(cp),
        check_euclidean_degeneration(),
        check_quadrature_convergence(cp),
        check_operator_rules(cp),
        check_projection(cp),
    ]
    if verbose:
        for c in checks:
            print(format_row(c))
    return checks


def format_row(c: CheckResult) -> str:
    status = "pass" if c.passed else "FAIL"
    return f"[{status}] {c.name:55s} measured {c.measured:.3e}  tol {c.tol:.1e}"
