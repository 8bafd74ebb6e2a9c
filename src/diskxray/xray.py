"""Forward geodesic X-ray transform, its adjoint, and the exact SVD.

The forward operator integrates a disk function along geodesics and is
sampled on an inward boundary grid (a sinogram).  The distinguished
adjoint integrates a boundary function over the fiber of footpoints above
each interior point.  In the weighted pairing

    disk side:      L^2(M, w_kappa dVol_kappa)
    boundary side:  L^2 of the inward bundle, surface measure
                    (1+kappa)^{-1} d beta d alpha

the map f -> I(w_kappa f) is diagonal over the (zernike_kappa_hat,
psi_kappa_hat) pairs with singular values

    sigma_n = 2 sqrt(pi) / (sqrt(1-kappa) sqrt(n+1)),

independent of k.  `analyze` / `synthesize` move between grids and
coefficient tables, and `invert` divides out the singular values with
hard truncation or a spectral cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import RectBivariateSpline

from . import basis
from .geometry import (
    CurvatureParam,
    FanBeamPoint,
    exit_time,
    footpoint_angles,
    geodesic_point,
    sig,
    sig_prime,
)

TWO_PI = 2.0 * math.pi
_BLOCK = 2048  # targets per pass of the grid interpolant: bounds its temporaries


class _NonFiniteValues(ValueError):
    """Sample values holding NaN or inf: bad data rather than a bad grid."""


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass
class BoundaryGrid:
    """Samples of a complex function on the inward boundary bundle.

    beta is uniform on [0, 2*pi); alpha uses Gauss-Legendre nodes on
    (-pi/2, pi/2).  The quadrature weights include the surface-measure
    factor (1+kappa)^{-1}, so `boundary_inner` integrates against the
    bundle measure directly.
    """

    kappa: float
    beta: np.ndarray
    alpha: np.ndarray
    alpha_weights: np.ndarray
    values: np.ndarray
    fn: object = None  # optional exact callable (beta, alpha) -> values

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise _NonFiniteValues("boundary values hold NaN or inf")

    @property
    def shape(self):
        return self.values.shape

    def weights(self) -> np.ndarray:
        """Full 2-d quadrature weights for the bundle surface measure."""
        wb = TWO_PI / len(self.beta)
        row = wb * self.alpha_weights / (1.0 + self.kappa)
        return np.ones(len(self.beta))[:, None] * row[None, :]

    def mesh(self):
        return np.meshgrid(self.beta, self.alpha, indexing="ij")

    def with_values(self, values, fn=None) -> "BoundaryGrid":
        values = np.asarray(values, dtype=complex)
        if values.shape != (len(self.beta), len(self.alpha)):
            raise ValueError(f"values shape {values.shape} does not match the grid")
        return replace(self, values=values, fn=fn)

    def norm(self) -> float:
        return math.sqrt(abs(boundary_inner(self, self)))

    def interpolant(self):
        """Spectral interpolant: trigonometric in beta, barycentric in the
        substituted fiber variable s = sig(alpha) after dividing out the
        sqrt(sig') weight.  Returns a callable (beta, alpha).

        The substitution matters for accuracy: sinograms and the
        u'/v'-type families are trigonometric polynomials in s once the
        sqrt(sig') factor is removed, so the interpolation error is
        limited only by the node count versus the band width, not by the
        complex singularities of the signature.  Evaluation is blocked,
        one real matrix product and one Horner sum in e^{i beta} per
        block, so its memory is bounded whatever the target count.
        """
        if self.fn is not None:
            return self.fn
        freqs, spectrum_at = _fiber_spectrum(self, CurvatureParam(self.kappa))
        n_pos = int(np.count_nonzero(freqs >= 0))  # numpy order: 0, 1, ..., then negatives

        def fn(beta_pts, alpha_pts):
            shape = np.broadcast_shapes(np.shape(beta_pts), np.shape(alpha_pts))
            bflat = np.broadcast_to(np.asarray(beta_pts, dtype=float), shape).ravel()
            aflat = np.broadcast_to(np.asarray(alpha_pts, dtype=float), shape).ravel()
            out = np.empty(bflat.shape, dtype=complex)
            for lo in range(0, len(out), _BLOCK):
                coeff = spectrum_at(aflat[lo:lo + _BLOCK])
                x = np.exp(1j * bflat[lo:lo + _BLOCK])
                # Horner from both band edges toward frequency 0, where
                # band-limited data has its mass: a sweep from one edge to
                # the other would lose about a digit
                pos, neg, x_conj = coeff[:, n_pos - 1], 0.0, x.conj()
                for m in range(n_pos - 2, -1, -1):
                    pos = pos * x + coeff[:, m]
                for m in range(n_pos, len(freqs)):
                    neg = (neg + coeff[:, m]) * x_conj
                out[lo:lo + _BLOCK] = pos + neg
            return out.reshape(shape)

        return fn


def _fiber_spectrum(grid: BoundaryGrid, cp: CurvatureParam):
    """Beta frequencies (numpy order) of the grid samples and a map from
    1-d fiber angles to the beta spectrum there: sqrt(sig') divided out
    at the nodes, barycentric in s = sig(alpha) as one real matrix
    product, sqrt(sig') restored at the targets."""
    nb = len(grid.beta)
    spec = np.fft.fft(grid.values / np.sqrt(sig_prime(grid.alpha, cp)), axis=0) / nb
    spec_ri = np.ascontiguousarray(spec.T).view(float)  # (n_alpha, 2 n_beta), re/im interleaved
    nodes = sig(grid.alpha, cp)
    diff = (4.0 / np.ptp(nodes)) * (nodes[:, None] - nodes)  # capacity scaling: no overflow
    np.fill_diagonal(diff, 1.0)
    weights = 1.0 / diff.prod(axis=1)
    if not np.isfinite(weights).all():
        raise ValueError("alpha nodes must be distinct")

    def spectrum_at(alpha):
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = weights / (sig(alpha, cp)[:, None] - nodes)
            total = rows.sum(axis=1)
        hit = np.isinf(total)  # target on a node: that node's sample, exactly
        rows[hit] = np.isinf(rows[hit])
        total[hit] = 1.0
        rows *= (np.sqrt(sig_prime(alpha, cp)) / total)[:, None]
        return (rows @ spec_ri).view(complex)

    return np.fft.fftfreq(nb, 1.0 / nb).astype(int), spectrum_at


@dataclass
class DiskGrid:
    """Samples of a complex function on a polar grid over the unit disk.

    rho uses Gauss-Legendre nodes on (0, 1), omega is uniform on
    [0, 2*pi).  The measure tag selects the radial quadrature factor:
    "vol" integrates against the curved volume form, "weighted" adds the
    w_kappa weight, "euclid" uses the flat area element.
    """

    kappa: float
    rho: np.ndarray
    rho_weights: np.ndarray
    omega: np.ndarray
    values: np.ndarray
    measure: str = "vol"

    @property
    def shape(self):
        return self.values.shape

    def weights(self) -> np.ndarray:
        r = self.rho
        if self.measure == "vol":
            radial = r / (1.0 + self.kappa * r**2) ** 2
        elif self.measure == "weighted":
            radial = r / ((1.0 - self.kappa * r**2) * (1.0 + self.kappa * r**2))
        elif self.measure == "euclid":
            radial = r
        else:
            raise ValueError(f"unknown measure tag {self.measure!r}")
        wo = TWO_PI / len(self.omega)
        return wo * (self.rho_weights * radial)[:, None] * np.ones(len(self.omega))[None, :]

    def points(self) -> np.ndarray:
        """Complex node positions rho_i e^{i omega_j}."""
        return self.rho[:, None] * np.exp(1j * self.omega[None, :])

    def with_values(self, values, measure=None) -> "DiskGrid":
        values = np.asarray(values, dtype=complex)
        if values.shape != (len(self.rho), len(self.omega)):
            raise ValueError(f"values shape {values.shape} does not match the grid")
        out = replace(self, values=values)
        if measure is not None:
            out.measure = measure
        return out

    def norm(self) -> float:
        return math.sqrt(abs(disk_inner(self, self)))


def boundary_grid(cp: CurvatureParam, n_beta: int = 128, n_alpha: int = 64) -> BoundaryGrid:
    """Empty sinogram grid for the given curvature.

    The alpha nodes are Gauss-Legendre points placed in the substituted
    fiber variable s = sig(alpha) and pulled back through the signature,
    with the jacobian folded into the weights.  At kappa = 0 these are
    plain Gauss-Legendre nodes on (-pi/2, pi/2).  The substitution keeps
    both quadrature and interpolation spectrally accurate uniformly in
    kappa: the integrands and interpolands produced by the transform
    family are trigonometric polynomials in s after the sqrt(sig')
    weight is split off.
    """
    from .geometry import sig_inverse

    beta = np.arange(n_beta) * TWO_PI / n_beta
    x, w = np.polynomial.legendre.leggauss(n_alpha)
    s = 0.5 * math.pi * x
    alpha = sig_inverse(s, cp)
    return BoundaryGrid(
        kappa=cp.kappa,
        beta=beta,
        alpha=alpha,
        alpha_weights=0.5 * math.pi * w / sig_prime(alpha, cp),
        values=np.zeros((n_beta, n_alpha), dtype=complex),
    )


def disk_grid(cp: CurvatureParam, n_rho: int = 128, n_omega: int = 256, measure: str = "vol") -> DiskGrid:
    """Empty polar grid over the unit disk for the given curvature."""
    x, w = np.polynomial.legendre.leggauss(n_rho)
    rho = 0.5 * (x + 1.0)
    omega = np.arange(n_omega) * TWO_PI / n_omega
    return DiskGrid(
        kappa=cp.kappa,
        rho=rho,
        rho_weights=0.5 * w,
        omega=omega,
        values=np.zeros((n_rho, n_omega), dtype=complex),
        measure=measure,
    )


def _check_same_boundary(g1: BoundaryGrid, g2: BoundaryGrid):
    if (
        g1.kappa != g2.kappa
        or g1.values.shape != g2.values.shape
        or not np.array_equal(g1.beta, g2.beta)
        or not np.array_equal(g1.alpha, g2.alpha)
    ):
        raise ValueError("boundary grids do not match (kappa or nodes differ)")


def boundary_inner(g1: BoundaryGrid, g2: BoundaryGrid) -> complex:
    """Hermitian inner product on the inward bundle, conjugate-linear in g2."""
    _check_same_boundary(g1, g2)
    return complex(np.sum(g1.weights() * g1.values * np.conj(g2.values)))


def disk_inner(f1: DiskGrid, f2: DiskGrid) -> complex:
    """Hermitian inner product on the disk in the grids' tagged measure."""
    if (
        f1.kappa != f2.kappa
        or f1.measure != f2.measure
        or f1.values.shape != f2.values.shape
        or not np.array_equal(f1.rho, f2.rho)
        or not np.array_equal(f1.omega, f2.omega)
    ):
        raise ValueError("disk grids do not match (kappa, measure or nodes differ)")
    return complex(np.sum(f1.weights() * f1.values * np.conj(f2.values)))


def disk_interpolator(grid: DiskGrid):
    """Bicubic interpolant of DiskGrid samples, periodic in omega.

    Secondary evaluation path for `forward` when the integrand is known
    only through samples; basis-driven workflows pass exact callables.
    """
    pad = 4
    om = np.concatenate([grid.omega[-pad:] - TWO_PI, grid.omega, grid.omega[:pad] + TWO_PI])
    vals = np.concatenate([grid.values[:, -pad:], grid.values, grid.values[:, :pad]], axis=1)
    sp_re = RectBivariateSpline(grid.rho, om, vals.real, kx=3, ky=3)
    sp_im = RectBivariateSpline(grid.rho, om, vals.imag, kx=3, ky=3)

    def fn(z):
        z = np.asarray(z, dtype=complex)
        rho = np.clip(np.abs(z), grid.rho[0], grid.rho[-1])
        om_ = np.mod(np.angle(z), TWO_PI)
        re = sp_re(rho.ravel(), om_.ravel(), grid=False)
        im = sp_im(rho.ravel(), om_.ravel(), grid=False)
        return (re + 1j * im).reshape(z.shape)

    return fn


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicQuad:
    """Quadrature plan for integrals along geodesics.

    The chord [0, tau] is split into panels of length at most
    `panel_length` (so the panel count grows with tau) with Gauss-Legendre
    nodes on each panel; `n_nodes` is the total node budget.
    """

    n_nodes: int = 64
    panel_length: float = 2.0

    def panels(self, tau_max: float) -> tuple[int, int]:
        n_panels = max(1, int(math.ceil(tau_max / self.panel_length)))
        per = max(4, self.n_nodes // n_panels)
        return n_panels, per


def _forward_batch(f, beta, alpha, cp: CurvatureParam, quad: GeodesicQuad):
    """Geodesic integrals of f over a flat batch of boundary points."""
    beta = np.asarray(beta, dtype=float).ravel()
    alpha = np.asarray(alpha, dtype=float).ravel()
    tau = np.asarray(exit_time(alpha, cp), dtype=float)
    out = np.zeros(beta.shape, dtype=complex)
    if tau.size == 0:
        return out
    n_panels, per = quad.panels(float(tau.max(initial=0.0)))
    x, w = np.polynomial.legendre.leggauss(per)
    for panel in range(n_panels):
        lo = tau * (panel / n_panels)
        hi = tau * ((panel + 1) / n_panels)
        half = 0.5 * (hi - lo)
        t = lo[:, None] + half[:, None] * (x[None, :] + 1.0)
        z = geodesic_point(beta[:, None], alpha[:, None], t, cp)
        vals = np.asarray(f(z), dtype=complex)
        bad = ~np.isfinite(vals)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(
                f"integrand returned {int(bad.sum())} non-finite value(s); "
                f"first at t={t[i, j]:.6g} (beta={beta[i]:.6g}, alpha={alpha[i]:.6g})"
            )
        out += half * (vals @ w)
    return out


def forward(f, bp: FanBeamPoint, cp: CurvatureParam, quad: GeodesicQuad | None = None) -> complex:
    """X-ray transform of f at one inward boundary point.

    f is a callable on the closed disk (vectorized over complex arrays).
    Tangential points have zero exit time and integrate to 0.
    """
    if not bp.is_inward:
        raise ValueError("forward requires an inward boundary point")
    quad = quad or GeodesicQuad()
    return complex(_forward_batch(f, [bp.beta], [bp.alpha], cp, quad)[0])


def sinogram(f, template: BoundaryGrid, cp: CurvatureParam, quad: GeodesicQuad | None = None) -> BoundaryGrid:
    """X-ray transform of f sampled on every node of the template grid.

    f may be a callable on the disk or a DiskGrid (interpolated with
    `disk_interpolator`).  Deterministic for fixed inputs; nodes are
    independent, so callers may parallelize over them freely.
    """
    if isinstance(f, DiskGrid):
        f = disk_interpolator(f)
    quad = quad or GeodesicQuad()
    bb, aa = template.mesh()
    vals = _forward_batch(f, bb, aa, cp, quad).reshape(template.shape)
    return template.with_values(vals)


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------

def adjoint_sharp(g, z, cp: CurvatureParam, n_theta: int = 512):
    """Fiber integral of g over footpoints: the distinguished adjoint.

    For each interior z integrates g(beta_-(z, theta), alpha_-(z, theta))
    over the full fiber circle with the uniform trapezoid rule (the
    integrand is smooth and periodic, so this converges spectrally).
    g is a callable on the inward bundle or a BoundaryGrid.  A grid is
    evaluated through its blocked interpolant, so beyond the footpoint
    angles and values (z.size * n_theta of each) the memory needed is
    bounded whatever the target count.
    """
    if isinstance(g, BoundaryGrid):
        g = g.interpolant()
    z = np.asarray(z, dtype=complex)
    rho = np.abs(z)
    if np.any(rho >= 1.0):
        raise ValueError("adjoint_sharp requires interior points, |z| < 1")
    omega = np.angle(z)
    theta = np.arange(n_theta) * TWO_PI / n_theta
    bm, am = footpoint_angles(rho[..., None], omega[..., None], theta, cp)
    vals = np.asarray(g(bm, am), dtype=complex)
    return vals.mean(axis=-1) * TWO_PI


# ---------------------------------------------------------------------------
# SVD: analysis, synthesis, inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SvdTriple:
    """One singular triple: index, value, and the normalized pair."""

    index: basis.BasisIndex
    sigma: float
    left: object  # psi_kappa_hat callable (beta, alpha)
    right: object  # zernike_kappa_hat callable (z)


def singular_value(n: int, cp: CurvatureParam) -> float:
    """sigma_n = 2 sqrt(pi) / (sqrt(1-kappa) sqrt(n+1)); independent of k."""
    if n < 0:
        raise ValueError("singular_value requires n >= 0")
    return 2.0 * math.sqrt(math.pi) / (math.sqrt(1.0 - cp.kappa) * math.sqrt(n + 1))


def singular_values(nmax: int, cp: CurvatureParam) -> list[SvdTriple]:
    """All singular triples with n <= nmax, lexicographic in (n, k)."""
    if nmax < 0:
        raise ValueError("singular_values requires nmax >= 0")
    triples = []
    for n in range(nmax + 1):
        s = singular_value(n, cp)
        for k in range(n + 1):
            def left(beta, alpha, n=n, k=k):
                return basis.psi_kappa_hat(n, k, beta, alpha, cp)

            def right(z, n=n, k=k):
                return basis.zernike_kappa_hat(n, k, z, cp)

            triples.append(SvdTriple(basis.BasisIndex(n, k), s, left, right))
    return triples


def analyze(g: BoundaryGrid, nmax: int, cp: CurvatureParam) -> basis.CoeffTable:
    """Coefficients of g against the normalized boundary singular functions.

    Returns the table of inner products <g, psi_hat_{n,k}> for
    0 <= k <= n <= nmax.  Rejects band limits the alpha grid cannot
    resolve (2 (nmax+1) fiber oscillations need at least that many nodes).
    """
    if nmax < 0:
        raise ValueError("analyze requires nmax >= 0")
    if 2 * (nmax + 1) > len(g.alpha):
        raise ValueError(
            f"band limit nmax={nmax} not resolvable on {len(g.alpha)} alpha nodes"
        )
    bb, aa = g.mesh()
    w = g.weights()
    table = basis.CoeffTable(nmax=nmax)
    for n in range(nmax + 1):
        for k in range(n + 1):
            psi = basis.psi_kappa_hat(n, k, bb, aa, cp)
            table[(n, k)] = complex(np.sum(w * g.values * np.conj(psi)))
    return table


def synthesize(table: basis.CoeffTable, template, cp: CurvatureParam):
    """Evaluate a coefficient table on a grid.

    On a BoundaryGrid the basis is psi_kappa_hat; on a DiskGrid it is
    zernike_kappa_hat (which requires 0 <= k <= n).  Returns a grid of
    the same kind; the BoundaryGrid result carries an exact callable.
    """
    items = table.items()
    if isinstance(template, BoundaryGrid):
        bb, aa = template.mesh()
        vals = np.zeros(template.shape, dtype=complex)
        for (n, k), c in items:
            vals += c * basis.psi_kappa_hat(n, k, bb, aa, cp)

        def fn(beta, alpha):
            out = 0.0
            for (n, k), c in items:
                out = out + c * basis.psi_kappa_hat(n, k, beta, alpha, cp)
            return out

        return template.with_values(vals, fn=fn)
    if isinstance(template, DiskGrid):
        pts = template.points()
        vals = np.zeros(template.shape, dtype=complex)
        for (n, k), c in items:
            vals += c * basis.zernike_kappa_hat(n, k, pts, cp)
        return template.with_values(vals)
    raise TypeError(f"cannot synthesize onto {type(template).__name__}")


@dataclass
class InversionResult:
    """Truncated-SVD reconstruction plus diagnostics.

    recon holds w_kappa * sum (c_{n,k}/sigma_n) Z_hat on the disk grid;
    coeffs are the disk-side coefficients c_{n,k}/sigma_n; residual is the
    data-space misfit of the fitted band relative to ||g||;
    discarded_energy sums |c|^2 over analyzed-but-rejected modes.
    """

    recon: DiskGrid
    coeffs: basis.CoeffTable
    accepted: list
    residual: float
    discarded_energy: float
    sigma_min: float
    noise_amplification_bound: float


def invert(
    g: BoundaryGrid,
    nmax: int,
    cp: CurvatureParam,
    disk_template: DiskGrid | None = None,
    sigma_cutoff: float | None = None,
) -> InversionResult:
    """Invert a sinogram by dividing out the singular values.

    Hard truncation at nmax by default; with sigma_cutoff, modes whose
    singular value falls below the cutoff are discarded as well.  An
    empty accepted set is an error.
    """
    c = analyze(g, nmax, cp)
    accepted, rejected = [], []
    f_table = basis.CoeffTable(nmax=nmax)
    discarded = 0.0
    for (n, k), val in c.items():
        s = singular_value(n, cp)
        if sigma_cutoff is not None and s < sigma_cutoff:
            rejected.append((n, k))
            discarded += abs(val) ** 2
            continue
        accepted.append((n, k))
        f_table[(n, k)] = val / s
    if not accepted:
        raise ValueError("no singular values above the cutoff; nothing to invert")

    fitted = basis.CoeffTable(nmax=nmax)
    for (n, k) in accepted:
        fitted[(n, k)] = c[(n, k)]
    misfit = g.with_values(g.values - synthesize(fitted, g, cp).values)
    gnorm = g.norm()
    residual = misfit.norm() / gnorm if gnorm > 0 else 0.0

    template = disk_template if disk_template is not None else disk_grid(cp)
    recon = synthesize(f_table, template, cp)
    recon.values *= basis.w_kappa(template.points(), cp)

    sig_min = min(singular_value(n, cp) for (n, k) in accepted)
    return InversionResult(
        recon=recon,
        coeffs=f_table,
        accepted=accepted,
        residual=residual,
        discarded_energy=discarded,
        sigma_min=sig_min,
        noise_amplification_bound=1.0 / sig_min,
    )
