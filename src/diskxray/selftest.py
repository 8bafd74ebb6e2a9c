"""Invariant registry: each closed-form identity of the library, in one place.

`CHECKS` holds one `Check(name, measure, tol, kappas)` per identity;
`measure(cp)` returns the worst error at that curvature, which must stay
below `tol`.  `diskxray selftest` runs every entry at its --kappa; pytest
holds every entry at each curvature of its `kappas`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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

# FULL_KAPPAS is the acceptance grid; the geometry identities add -0.2 and 0.3,
# and the two that read sig and sig' alone add |kappa| = 0.99, where forms of
# the signature in cos 2a would cancel
GEOMETRY_KAPPAS = (-0.9, -0.5, -0.2, 0.0, 0.3, 0.5, 0.9)
EDGE_KAPPAS = (-0.99, *GEOMETRY_KAPPAS, 0.99)
FULL_KAPPAS = (-0.9, -0.5, 0.0, 0.5, 0.9)


@dataclass(frozen=True)
class Check:
    """One identity: `name` may hold a `{kappa}` field for the row label."""

    name: str
    measure: Callable[[CurvatureParam], float]
    tol: float
    kappas: tuple[float, ...]


@dataclass
class CheckResult:
    name: str
    measured: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.measured < self.tol


def _disk_points(rng, n, rmax=1.0):
    return rng.uniform(0, rmax, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def _gram_deviation(grid, rows, norms):
    """max |G - diag(norms)| for the grid-quadrature Gram matrix of rows."""
    f = np.reshape(rows, (len(rows), -1))
    gram = (f * grid.weights().ravel()) @ f.conj().T
    return float(np.max(np.abs(gram - np.diag(norms))))


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def isometry_invariance(cp, n=1000):
    """|T'(z) zeta|_g at T(z) equals |zeta|_g at z, relative."""
    rng = np.random.default_rng(1)
    z1 = _disk_points(rng, n)
    th = rng.uniform(0, 2 * np.pi, n)
    z = _disk_points(rng, n)
    zeta = rng.normal(size=n) + 1j * rng.normal(size=n)
    T = isometry_from_tangent(z1, th, cp)
    lhs = np.abs(T.deriv(z) * zeta) / conformal_factor(T(z), cp)
    rhs = np.abs(zeta) / conformal_factor(z, cp)
    return float(np.max(np.abs(lhs - rhs) / rhs))


def unit_speed(cp, n=200):
    """Finite-difference speed over c(gamma) is 1, and the closed-form
    velocity has the finite-difference modulus."""
    rng = np.random.default_rng(2)
    beta = rng.uniform(0, 2 * np.pi, n)
    alpha = rng.uniform(-1.4, 1.4, n)
    t = exit_time(alpha, cp) * rng.uniform(0.05, 0.95, n)
    h = 1e-6
    fd = np.abs(geodesic_point(beta, alpha, t + h, cp) - geodesic_point(beta, alpha, t - h, cp)) / 2 / h
    speed = fd / np.abs(conformal_factor(geodesic_point(beta, alpha, t, cp), cp))
    vel = np.abs(geodesic_velocity(beta, alpha, t, cp))
    return float(max(np.max(np.abs(speed - 1)), np.max(np.abs(vel - fd))))


def scattering_consistency(cp, n=1000):
    """The scattering relation gives the geodesic's exit point and direction."""
    rng = np.random.default_rng(3)
    beta = rng.uniform(0, 2 * np.pi, n)
    alpha = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, n)
    tau = exit_time(alpha, cp)
    b2, a2 = scattering_angles(beta, alpha, cp)
    err_pos = np.max(np.abs(geodesic_point(beta, alpha, tau, cp) - np.exp(1j * b2)))
    vel = geodesic_velocity(beta, alpha, tau, cp)
    err_dir = np.max(np.abs(vel / np.abs(vel) - np.exp(1j * (b2 + np.pi + a2))))
    return float(max(err_pos, err_dir))


def lft_identity(cp, n=1000):
    """e^{2i sig(a)} (1 + kappa e^{2ia}) = e^{2ia} + kappa."""
    a = np.random.default_rng(4).uniform(-np.pi, np.pi, n)
    lhs = np.exp(2j * sig(a, cp)) * (1 + cp.kappa * np.exp(2j * a))
    return float(np.max(np.abs(lhs - (np.exp(2j * a) + cp.kappa))))


def sqrt_jacobian(cp, n=1000):
    """e^{ia}(e^{-i sig} - kappa e^{i sig}) is real, positive and equals
    sqrt((1 - kappa^2) sig')."""
    a = np.random.default_rng(5).uniform(-np.pi, np.pi, n)
    s = sig(a, cp)
    f = np.exp(1j * a) * (np.exp(-1j * s) - cp.kappa * np.exp(1j * s))
    if not np.all(f.real > 0):
        return math.inf
    diff = np.abs(f.real - np.sqrt((1 - cp.kappa**2) * sig_prime(a, cp)))
    return float(max(np.max(np.abs(f.imag)), np.max(diff)))


def sine_cosine(cp, n=1000):
    """sqrt(sig'/lam) cos a = cos sig and sqrt(sig' lam) sin a = sin sig."""
    a = np.random.default_rng(6).uniform(-np.pi, np.pi, n)
    s, sp = sig(a, cp), sig_prime(a, cp)
    e1 = np.max(np.abs(np.sqrt(sp / cp.lam) * np.cos(a) - np.cos(s)))
    e2 = np.max(np.abs(np.sqrt(sp * cp.lam) * np.sin(a) - np.sin(s)))
    return float(max(e1, e2))


def holomorphy(cp, n=1024):
    """e^{2i sig} has no negative or odd modes, mean kappa and mode-2p
    coefficients (1 - kappa^2)(-kappa)^{p-1}.  The mode-2p coefficient
    falls like |kappa|^p, so n must alias it below tol at |kappa| = 0.9."""
    a = np.arange(n) * 2 * np.pi / n
    coeffs = np.fft.fft(np.exp(2j * sig(a, cp))) / n
    m = np.fft.fftfreq(n, 1.0 / n).astype(int)
    k = cp.kappa
    worst = max(np.max(np.abs(coeffs[m < 0])), np.max(np.abs(coeffs[m % 2 == 1])), abs(coeffs[0] - k))
    for p in (1, 2, 3):
        worst = max(worst, abs(coeffs[m == 2 * p][0] - (1 - k * k) * (-k) ** (p - 1)))
    return float(worst)


def sig_bounds(cp, n=2000):
    """sig' stays within [min(lam, 1/lam), max(lam, 1/lam)]."""
    sp = sig_prime(np.linspace(-np.pi, np.pi, n), cp)
    lo, hi = min(cp.lam, 1 / cp.lam), max(cp.lam, 1 / cp.lam)
    return max(float(np.max(lo - sp)), float(np.max(sp - hi)), 0.0)


def _footpoint_samples(cp, seed, n=1000):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0, 0.99, n)
    th = rng.uniform(0, 2 * np.pi, n)
    return rho, th, footpoint_angles(rho, 0.0, th, cp)[1]


def footpoint_sine(cp):
    """sin sig(alpha_-) / sqrt(sig') = -sqrt(1-kappa^2) rho sin theta / (1 + kappa rho^2)."""
    rho, th, am = _footpoint_samples(cp, 7)
    lhs = np.sin(sig(am, cp)) / np.sqrt(sig_prime(am, cp))
    rhs = -math.sqrt(1 - cp.kappa**2) * rho * np.sin(th) / (1 + cp.kappa * rho**2)
    return float(np.max(np.abs(lhs - rhs)))


def fiber_jacobian_fd(cp):
    """The fiber-change jacobian against central differences of theta'."""
    rho, th, _ = _footpoint_samples(cp, 8)
    h = 1e-6
    fd = (fiber_change(rho, th + h, cp)[0] - fiber_change(rho, th - h, cp)[0]) / (2 * h)
    return float(np.max(np.abs(fiber_change(rho, th, cp)[1] - fd)))


def fiber_closed_forms(cp):
    """Jacobian and sin theta' through sig' at the footpoint; jacobian > 0."""
    rho, th, am = _footpoint_samples(cp, 9)
    thp, jac = fiber_change(rho, th, cp)
    if not np.all(jac > 0):
        return math.inf
    sp = sig_prime(am, cp)
    ratio = (1 - cp.kappa * rho**2) / (1 + cp.kappa * rho**2)
    err_jac = np.max(np.abs(jac - ratio / cp.lam * sp))
    err_sin = np.max(np.abs(np.sin(thp) - ratio * np.sqrt(sp / cp.lam) * np.sin(th)))
    return float(max(err_jac, err_sin))


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def cauchy_riemann(cp=None, nmax=6):
    """d/dz Z_{n,k} + d/dzbar Z_{n,k+1} = 0; Z_{n,0} holomorphic and
    Z_{n,n} antiholomorphic (independent of kappa)."""
    h = 1e-4
    rng = np.random.default_rng(10)
    pts = rng.uniform(0.1, 0.8, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))

    def wirtinger(n, k):
        fx = (basis.zernike(n, k, pts + h) - basis.zernike(n, k, pts - h)) / (2 * h)
        fy = (basis.zernike(n, k, pts + 1j * h) - basis.zernike(n, k, pts - 1j * h)) / (2 * h)
        return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)

    worst = 0.0
    for n in range(nmax + 1):
        d = [wirtinger(n, k) for k in range(n + 1)]
        worst = max(worst, float(np.max(np.abs(d[0][1]))), float(np.max(np.abs(d[n][0]))))
        for k in range(n):
            worst = max(worst, float(np.max(np.abs(d[k][0] + d[k + 1][1]))))
    return worst


def zernike_orthogonality(cp, nmax=8):
    """Weighted-disk Gram matrix of Z^kappa_{n,k}, n <= nmax: diagonal
    pi / ((1 - kappa^2)(n + 1))."""
    dg = xray.disk_grid(cp, 160, 96, measure="weighted")
    pts = dg.points()
    modes = [(n, k) for n in range(nmax + 1) for k in range(n + 1)]
    rows = [basis.zernike_kappa(n, k, pts, cp) for n, k in modes]
    norms = [math.pi / ((1 - cp.kappa**2) * (n + 1)) for n, _ in modes]
    return _gram_deviation(dg, rows, norms)


def psi_orthogonality(cp, nmax=8):
    """Boundary Gram matrix of psi^kappa_{n,k}, n <= nmax, -1 <= k <= n + 1
    (co-kernel neighbours included): diagonal 1 / (4 (1 + kappa))."""
    bg = xray.boundary_grid(cp, 64, 96)
    bb, aa = bg.mesh()
    modes = [(n, k) for n in range(nmax + 1) for k in range(-1, n + 2)]
    rows = [basis.psi_kappa(n, k, bb, aa, cp) for n, k in modes]
    return _gram_deviation(bg, rows, [1.0 / (4 * (1 + cp.kappa))] * len(modes))


def hilbert_eigen(cp, prange=6, qrange=6):
    """The fiberwise Fourier multiplier -i sign(m) maps phi'_{p,q} to
    -i sign(2q+1) phi'_{p,q}.  phi' is not band-limited in alpha; nf
    keeps its alias below tol at |kappa| = 0.9."""
    nf = 2048
    a = np.arange(nf) * 2 * np.pi / nf
    mult = -1j * np.sign(np.fft.fftfreq(nf, 1.0 / nf))
    worst = 0.0
    for p in range(-prange, prange + 1):
        for q in range(-qrange, qrange + 1):
            vals = basis.phi_prime(p, q, 0.37, a, cp)
            got = np.fft.ifft(np.fft.fft(vals) * mult)
            worst = max(worst, float(np.max(np.abs(got + 1j * np.sign(2 * q + 1) * vals))))
    return worst


def boundary_recursion(cp=None, nmax=9):
    """Z_{n,k}(1) = Z_{n-2,k-1}(1) - Z_{n-1,k-1}(1) + Z_{n-1,k}(1), exactly
    (the boundary values are integers; independent of kappa)."""
    worst = 0.0
    for n in range(2, nmax + 1):
        for k in range(1, n):
            lhs = basis.zernike_radial(n, k, 1.0)
            rhs = basis.zernike_radial(n - 2, k - 1, 1.0) - basis.zernike_radial(n - 1, k - 1, 1.0)
            worst = max(worst, abs(lhs - rhs - basis.zernike_radial(n - 1, k, 1.0)))
    return worst


# ---------------------------------------------------------------------------
# transform and boundary operators
# ---------------------------------------------------------------------------

def quadrature_masses(cp):
    """Boundary mass 2 pi^2 / (1 + kappa) and disk volume pi / (1 + kappa).
    The flat integrand needs a denser fiber rule at extreme curvature."""
    bg = xray.boundary_grid(cp, 16, 512 if abs(cp.kappa) > 0.6 else 96)
    dg = xray.disk_grid(cp, 128, 16)
    e1 = abs(np.sum(bg.weights()) - 2 * np.pi**2 / (1 + cp.kappa))
    e2 = abs(np.sum(dg.weights()) - np.pi / (1 + cp.kappa))
    return float(max(e1, e2))


def forward_diagonal(cp, nmax=3):
    """I(w Zhat_{n,k}) = sigma_n psihat_{n,k} pointwise."""
    bg = xray.boundary_grid(cp, 32, 40)
    bb, aa = bg.mesh()
    worst = 0.0
    for n in range(nmax + 1):
        for k in range(n + 1):
            f = lambda z, n=n, k=k: basis.w_kappa(z, cp) * basis.zernike_kappa_hat(n, k, z, cp)
            want = xray.singular_value(n, cp) * basis.psi_kappa_hat(n, k, bb, aa, cp)
            worst = max(worst, float(np.max(np.abs(xray.sinogram(f, bg).values - want))))
    return worst


def _random_table(rng, nmax, kpad=0):
    tab = basis.CoeffTable(nmax=nmax)
    for n in range(nmax + 1):
        for k in range(-kpad, n + 1 + kpad):
            tab.entries[(n, k)] = complex(rng.normal(), rng.normal())
    return tab


def _phantom(cp, seed, nmax=4):
    """w_kappa times a random band-nmax deformed-Zernike series."""
    tab = _random_table(np.random.default_rng(seed), nmax)
    return lambda z: basis.w_kappa(z, cp) * basis.zernike_kappa_series(tab, z, cp)


def _psi_hat_over_mu_series(table, beta, alpha, cp):
    """sum c psi_hat_{n,k} / mu over a table: the terms c 2 sqrt(1 + kappa)
    `basis.psi_over_mu`(n, k), with sig, sig', sin s and the U_n recurrence
    formed once per call instead of once per mode, and one phase
    e^{i m (beta + s)} per angular frequency m = n - 2k."""
    items = table.items()
    s = sig(alpha, cp)
    theta = np.asarray(beta, dtype=float) + s
    t = np.sin(s)
    u = [np.ones(t.shape), 2.0 * t]  # U_n(sin s) by the real recurrence
    while len(u) <= table.nmax:
        u.append(2.0 * t * u[-1] - u[-2])
    out = 0.0
    for m in sorted({n - 2 * k for (n, k), _ in items}):
        radial = sum((1, -1j, -1, 1j)[n % 4] * c * u[n] for (n, k), c in items if n - 2 * k == m)
        out = out + radial * np.exp(1j * m * theta)
    k_ = cp.kappa
    scale = (1.0 + k_) / (math.pi * math.sqrt(1.0 - k_))  # 2 sqrt(1+k) sqrt((1+k)/(1-k)) / (2 pi)
    return scale * sig_prime(alpha, cp) * out


def adjoint_duality(cp, nmax=3, kpad=0):
    """<I(w f), g> on the boundary equals <f, I*(g / mu)> on the disk, relative.
    g spans the modes n <= nmax, k = -kpad .. n + kpad; pytest also holds
    kpad = 1, whose 18 fiber integrands are too slow for the selftest."""
    rng = np.random.default_rng(11)
    ftab = _random_table(rng, nmax)
    gtab = _random_table(rng, nmax, kpad)

    def f(z):
        return basis.zernike_kappa_series(ftab, z, cp)

    bg = xray.boundary_grid(cp, 32, 48)
    bb, aa = bg.mesh()
    g = bg.with_values(sum(c * basis.psi_kappa_hat(n, k, bb, aa, cp) for (n, k), c in gtab.items()))
    lhs = xray.inner(xray.sinogram(lambda z: basis.w_kappa(z, cp) * f(z), bg), g)

    dg = xray.disk_grid(cp, 64, 32, measure="weighted")
    pts = dg.points()
    g_over_mu = lambda beta, alpha: _psi_hat_over_mu_series(gtab, beta, alpha, cp)
    back = xray.adjoint_sharp(g_over_mu, pts, cp, n_theta=512)
    rhs = xray.inner(dg.with_values(f(pts)), dg.with_values(back))
    return abs(lhs - rhs) / abs(lhs)


def adjoint_kernel(cp, nmax=4):
    """Fiber integrals of psi / mu vanish for k = -2, -1, n + 1, n + 2."""
    z = _disk_points(np.random.default_rng(12), 10, 0.9)
    worst = 0.0
    for n in range(nmax + 1):
        for k in (-2, -1, n + 1, n + 2):
            g = lambda beta, alpha, n=n, k=k: basis.psi_over_mu(n, k, beta, alpha, cp)
            worst = max(worst, float(np.max(np.abs(xray.adjoint_sharp(g, z, cp)))))
    return worst


def roundtrip(cp):
    """invert(forward(w f)) recovers a band-4 phantom, relative."""
    bg = xray.boundary_grid(cp, 32, 40)
    dg = xray.disk_grid(cp, 64, 32)
    f = _phantom(cp, 13)
    res = xray.invert(xray.sinogram(f, bg), 4, disk_template=dg)
    truth = dg.with_values(f(dg.points()))
    return dg.with_values(res.recon.values - truth.values).norm() / truth.norm()


def euclidean_degeneration(cp=None):
    """kappa = 1e-12 reproduces kappa = 0: exit time, signature, geodesics,
    the forward map and the singular values (independent of kappa)."""
    tiny, zero = CurvatureParam(1e-12), CurvatureParam(0.0)
    a = np.linspace(-1.4, 1.4, 101)
    t = np.linspace(0, 1.2, 49)
    return float(max(
        np.max(np.abs(exit_time(a, tiny) - exit_time(a, zero))),
        np.max(np.abs(sig(a, tiny) - a)),
        np.max(np.abs(geodesic_point(0.3, 0.5, t, tiny) - geodesic_point(0.3, 0.5, t, zero))),
        abs(xray.forward(np.exp, 0.2, 0.4, tiny) - xray.forward(np.exp, 0.2, 0.4, zero)),
        abs(xray.singular_value(3, tiny) - xray.singular_value(3, zero)),
    ))


def quadrature_convergence(cp):
    """Forward quadrature of e^z w at 32 and 64 nodes agrees."""
    f = lambda z: np.exp(z) * basis.w_kappa(z, cp)
    value = lambda nn: xray.forward(f, 0.7, 0.3, cp, n_nodes=nn)
    return abs(value(32) - value(64))


def operator_rules(cp):
    """Grid C- and P- realize their spectral rules on u' and v', relative."""
    tpl = xray.boundary_grid(cp, 64, 48)
    bb, aa = tpl.mesh()
    nb, nf = 128, 512
    worst = 0.0
    for (p, q) in [(0, 0), (2, 3), (-3, 1), (4, 1), (-4, -2), (1, 1)]:
        ufam = basis.u_prime(p, q, bb, aa, cp)
        scale = max(float(np.max(np.abs(ufam))), 1.0)
        got_c = boundary.c_minus(lambda b, a: basis.u_prime(p, q, b, a, cp), tpl, nb, nf)
        got_p = boundary.p_minus(lambda b, a: basis.v_prime(p, q, b, a, cp), tpl, nb, nf)
        err_c = np.max(np.abs(got_c.values - boundary.c_minus_rule(p, q) * ufam))
        err_p = np.max(np.abs(got_p.values - boundary.p_minus_rule(p, q) * ufam))
        worst = max(worst, float(max(err_c, err_p)) / scale)
    return worst


def projection(cp):
    """A sinogram is fixed by the range projection and has zero moments; a
    co-kernel mode projects to 0."""
    tpl = xray.boundary_grid(cp, 48, 48)
    sg = xray.sinogram(_phantom(cp, 14), tpl)
    e_range = boundary.project_to_range(sg).relative_change
    cok = boundary.project_to_range(lambda b, a: basis.psi_kappa_hat(2, -1, b, a, cp), tpl)
    e_mom = boundary.moment_residuals(sg, 6, 2).max_normalized
    return float(max(e_range, cok.projected.norm(), e_mom))


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

CHECKS: tuple[Check, ...] = (
    Check("isometry metric invariance (kappa={kappa})", isometry_invariance, 1e-12, GEOMETRY_KAPPAS),
    Check("geodesic unit speed (kappa={kappa})", unit_speed, 1e-8, GEOMETRY_KAPPAS),
    Check("scattering matches geodesic endpoints (kappa={kappa})", scattering_consistency, 1e-9,
          GEOMETRY_KAPPAS),
    Check("linear-fractional signature identity (kappa={kappa})", lft_identity, 1e-12, GEOMETRY_KAPPAS),
    Check("sqrt-jacobian realness (kappa={kappa})", sqrt_jacobian, 1e-12, EDGE_KAPPAS),
    Check("sine/cosine signature relations (kappa={kappa})", sine_cosine, 1e-12, GEOMETRY_KAPPAS),
    Check("signature holomorphy and mean (kappa={kappa})", holomorphy, 1e-10,
          (-0.9, -0.7, -0.2, 0.0, 0.4, 0.8, 0.9)),
    Check("signature derivative bounds (kappa={kappa})", sig_bounds, 1e-12, EDGE_KAPPAS),
    Check("footpoint sine relation (kappa={kappa})", footpoint_sine, 1e-10, GEOMETRY_KAPPAS),
    Check("fiber substitution jacobian (kappa={kappa})", fiber_jacobian_fd, 1e-8, GEOMETRY_KAPPAS),
    Check("fiber substitution closed forms (kappa={kappa})", fiber_closed_forms, 1e-9, GEOMETRY_KAPPAS),
    Check("zernike Cauchy-Riemann chain", cauchy_riemann, 1e-6, (0.0,)),
    Check("deformed Zernike orthogonality (kappa={kappa})", zernike_orthogonality, 1e-9, FULL_KAPPAS),
    Check("psi orthogonality (kappa={kappa})", psi_orthogonality, 1e-10,
          (-0.9, -0.5, -0.3, 0.0, 0.3, 0.5, 0.9)),
    Check("Hilbert eigenrelation on phi' (kappa={kappa})", hilbert_eigen, 1e-8, (-0.9, -0.6, 0.4, 0.9)),
    # exact: any difference of the integer boundary values fails
    Check("zernike boundary recursion", boundary_recursion, np.finfo(float).tiny, (0.0,)),
    Check("quadrature masses (kappa={kappa})", quadrature_masses, 1e-10, FULL_KAPPAS),
    # acceptance criterion 1 holds the Gram form of this identity, n <= 5
    Check("forward transform diagonal (kappa={kappa})", forward_diagonal, 1e-8, (-0.5, 0.5)),
    Check("adjoint duality (kappa={kappa})", adjoint_duality, 1e-6, (-0.5,)),
    Check("adjoint kernel modes (kappa={kappa})", adjoint_kernel, 1e-7, FULL_KAPPAS),
    # acceptance criterion 6 holds this identity at band 6 over FULL_KAPPAS
    Check("inversion round trip (kappa={kappa})", roundtrip, 1e-6, (0.5,)),
    Check("euclidean degeneration at kappa=1e-12", euclidean_degeneration, 1e-8, (0.0,)),
    Check("forward quadrature two-level agreement (kappa={kappa})", quadrature_convergence, 1e-9,
          (-0.5, 0.0, 0.5)),
    # acceptance criterion 4 holds this identity for |p|, |q| <= 5 at fiber size 1024
    Check("P-/C- spectral rules (kappa={kappa})", operator_rules, 1e-6, FULL_KAPPAS),
    # acceptance criterion 5 holds this identity for five band-5 sinograms
    Check("range projection and moments (kappa={kappa})", projection, 1e-6, (-0.9, 0.3, 0.9)),
)


def run(kappa: float = 0.5, verbose: bool = False) -> list[CheckResult]:
    """Run every entry of `CHECKS` at kappa, printing each row as it is
    measured when verbose."""
    cp = CurvatureParam(kappa)
    results = []
    for check in CHECKS:
        results.append(CheckResult(check.name.format(kappa=kappa), check.measure(cp), check.tol))
        if verbose:
            print(format_row(results[-1]), flush=True)
    return results


def format_row(c: CheckResult) -> str:
    status = "pass" if c.passed else "FAIL"
    return f"[{status}] {c.name:55s} measured {c.measured:.3e}  tol {c.tol:.1e}"
