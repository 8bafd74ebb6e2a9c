"""Boundary-operator calculus on the full boundary circle bundle.

Functions on the inward bundle are extended to the torus (beta, alpha in
the full circle) by evenness or oddness across the scattering relation,
transformed fiberwise (Hilbert transform as the Fourier multiplier
-i sign(m)), and restricted back.  The two compositions

    P_-  =  A_-^* H_- A_+        (on scattering-even extensions)
    C_-  =  (1/2) A_-^* H_- A_-  (on scattering-odd extensions)

act diagonally on the u'/v' families: with s(x) = sign(x),

    C_- u'_{p,q} = (-i/2) (s(2q+1) + s(2p-2q-1)) u'_{p,q}
    P_- v'_{p,q} =   -i   (s(2q+1) - s(2p-2q-1)) u'_{p,q}

and id + C_-^2 is the orthogonal projection onto the range of the X-ray
transform inside the antipodally symmetric subspace.

Grid implementation notes: all torus operations act on uniform grids via
FFTs.  The scattering relation maps fiber nodes to fiber nodes when the
fiber size is even, and shifts beta by the off-grid amount pi + 2 sig(a),
applied exactly as a phase on the beta spectrum.  Operators accept
callables or BoundaryGrids; grid inputs are interpolated spectrally
(trigonometric in beta, barycentric in the substituted fiber variable
s = sig(alpha) after removing the sqrt(sig') weight).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HALF_PI, TWO_PI, CurvatureParam, sig, wrap_pi
from .xray import BoundaryGrid, _fiber_spectrum
from . import basis


# ---------------------------------------------------------------------------
# torus grid
# ---------------------------------------------------------------------------

@dataclass
class TorusGrid:
    """Complex samples on the full boundary bundle: uniform beta x uniform
    fiber angle, fiber size even (powers of two keep the FFTs cheap)."""

    kappa: float
    values: np.ndarray  # (n_beta, n_fiber)

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("torus values must be 2-d (beta x fiber)")
        if self.values.shape[1] % 2:
            raise ValueError("fiber size must be even")

    @property
    def n_beta(self) -> int:
        return self.values.shape[0]

    @property
    def n_fiber(self) -> int:
        return self.values.shape[1]

    @property
    def beta(self) -> np.ndarray:
        return np.arange(self.n_beta) * TWO_PI / self.n_beta

    @property
    def alpha(self) -> np.ndarray:
        return np.arange(self.n_fiber) * TWO_PI / self.n_fiber


def _beta_freqs(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, 1.0 / n).astype(int)


def _as_callable(u):
    if isinstance(u, BoundaryGrid):
        return u.interpolant()
    if callable(u):
        return u
    raise TypeError("expected a callable on (beta, alpha) or a BoundaryGrid")


# ---------------------------------------------------------------------------
# extension and restriction across the scattering relation
# ---------------------------------------------------------------------------

def extend(u, parity: str, cp: CurvatureParam, n_beta: int = 256, n_fiber: int = 1024) -> TorusGrid:
    """Extend an inward-bundle function to the torus.

    parity "+" copies values across the scattering relation, "-" flips the
    sign.  At inward fiber nodes the extension reproduces u exactly;
    outward nodes evaluate u at the scattered (inward) coordinates, which
    sit off the beta grid, hence u must be callable or interpolable.
    """
    if parity not in ("+", "-"):
        raise ValueError("parity must be '+' or '-'")
    sign = 1.0 if parity == "+" else -1.0
    beta = np.arange(n_beta) * TWO_PI / n_beta
    alpha = wrap_pi(np.arange(n_fiber) * TWO_PI / n_fiber)
    inward = np.abs(alpha) <= HALF_PI + 1e-12

    if isinstance(u, BoundaryGrid) and u.fn is not None:
        u = u.fn  # exact callable beats grid interpolation
    if isinstance(u, BoundaryGrid):
        # structured path: the beta spectrum at each distinct fiber target
        # (one barycentric pass), then per-row phase shifts on it
        freqs_u, spectrum_at = _fiber_spectrum(u, cp)
        targets = np.where(inward, alpha, wrap_pi(np.pi - alpha))
        if np.any(np.abs(targets) > HALF_PI + 1e-9):
            raise ValueError("scattered fiber node left the inward range")
        coeff = spectrum_at(np.clip(targets, -HALF_PI, HALF_PI))  # (n_fiber, nb_u)
        shift = np.where(inward, 0.0, np.pi + 2.0 * sig(alpha, cp))
        coeff = coeff * np.exp(1j * np.outer(shift, freqs_u))
        coeff[~inward] *= sign
        # place source beta modes into the torus-size spectrum
        spec_t = np.zeros((n_beta, n_fiber), dtype=complex)
        keep = np.abs(freqs_u) <= n_beta // 2 - 1
        spec_t[freqs_u[keep] % n_beta, :] = coeff.T[keep]
        vals = np.fft.ifft(spec_t * n_beta, axis=0)
        return TorusGrid(kappa=cp.kappa, values=vals)

    fn = _as_callable(u)
    vals = np.empty((n_beta, n_fiber), dtype=complex)
    bb = beta[:, None]
    a_in = alpha[inward]
    vals[:, inward] = fn(bb, a_in[None, :])
    a_out = alpha[~inward]
    shift = np.pi + 2.0 * sig(a_out, cp)
    vals[:, ~inward] = sign * fn(bb + shift[None, :], wrap_pi(np.pi - a_out)[None, :])
    return TorusGrid(kappa=cp.kappa, values=vals)


def scattering_pullback(tg: TorusGrid, cp: CurvatureParam) -> TorusGrid:
    """Pullback of torus samples under the scattering relation.

    (S^* V)(beta, alpha) = V(beta + pi + 2 sig(alpha), pi - alpha); the
    fiber part permutes grid nodes, the beta shift is a spectral phase.
    """
    nf = tg.n_fiber
    alpha = tg.alpha
    spec = np.fft.fft(tg.values, axis=0)  # (n_beta, n_fiber)
    freqs = _beta_freqs(tg.n_beta)
    flip = (nf // 2 - np.arange(nf)) % nf  # index of pi - alpha_j
    shift = np.pi + 2.0 * sig(alpha, cp)
    out_spec = spec[:, flip] * np.exp(1j * np.outer(freqs, shift))
    return TorusGrid(kappa=tg.kappa, values=np.fft.ifft(out_spec, axis=0))


def hilbert(tg: TorusGrid, part: str = "full") -> TorusGrid:
    """Fiberwise Hilbert transform: multiplier -i sign(m), sign(0) = 0.

    part "even"/"odd" first restricts to the even/odd fiber Fourier
    modes (the full transform is the sum of the two restrictions).
    """
    if part not in ("full", "even", "odd"):
        raise ValueError("part must be 'full', 'even' or 'odd'")
    m = _beta_freqs(tg.n_fiber)
    mult = -1j * np.sign(m)
    if part == "even":
        mult = np.where(m % 2 == 0, mult, 0.0)
    elif part == "odd":
        mult = np.where(m % 2 == 0, 0.0, mult)
    spec = np.fft.fft(tg.values, axis=1)
    return TorusGrid(kappa=tg.kappa, values=np.fft.ifft(spec * mult[None, :], axis=1))


def _eval_torus(tg: TorusGrid, beta_shift, alpha_targets, n_beta_out: int) -> np.ndarray:
    """Evaluate torus samples at (uniform output beta + per-column shift,
    arbitrary fiber angle per column) through the 2-d Fourier series."""
    spec = np.fft.fft2(tg.values) / (tg.n_beta * tg.n_fiber)
    pf = _beta_freqs(tg.n_beta)
    mf = _beta_freqs(tg.n_fiber)
    alpha_targets = np.asarray(alpha_targets, dtype=float)
    beta_shift = np.broadcast_to(np.asarray(beta_shift, dtype=float), alpha_targets.shape)
    fiber_phase = np.exp(1j * np.outer(mf, alpha_targets))  # (n_fiber, G)
    cols = spec @ fiber_phase  # (n_beta_in, G)
    cols = cols * np.exp(1j * np.outer(pf, beta_shift).reshape(len(pf), -1))
    out_spec = np.zeros((n_beta_out, cols.shape[1]), dtype=complex)
    keep = np.abs(pf) <= n_beta_out // 2 - 1
    out_spec[pf[keep] % n_beta_out, :] = cols[keep]
    return np.fft.ifft(out_spec * n_beta_out, axis=0)


def restrict_star(tg: TorusGrid, parity: str, cp: CurvatureParam, template: BoundaryGrid) -> BoundaryGrid:
    """Restriction A_+/-^*: V(x) +/- V(S(x)) sampled on the inward template."""
    if parity not in ("+", "-"):
        raise ValueError("parity must be '+' or '-'")
    sign = 1.0 if parity == "+" else -1.0
    nb = len(template.beta)
    direct = _eval_torus(tg, np.zeros_like(template.alpha), template.alpha, nb)
    shift = np.pi + 2.0 * sig(template.alpha, cp)
    scattered = _eval_torus(tg, shift, np.pi - template.alpha, nb)
    return template.with_values(direct + sign * scattered)


def _restrict_plain(tg: TorusGrid, template: BoundaryGrid) -> BoundaryGrid:
    """Plain restriction of torus samples to the inward template nodes."""
    vals = _eval_torus(tg, np.zeros_like(template.alpha), template.alpha, len(template.beta))
    return template.with_values(vals)


# ---------------------------------------------------------------------------
# the operators P-, C- (and their even-mode counterparts)
# ---------------------------------------------------------------------------

def _torus_shape(n_beta, n_fiber):
    return (n_beta or 256, n_fiber or 1024)


def c_minus_torus(tg: TorusGrid, cp: CurvatureParam) -> TorusGrid:
    """Torus-level C-: (1/2)(id - S^*) H_- V.

    If V is the odd extension of u, the result is the odd extension of
    C- u, so applications chain without leaving the torus.
    """
    w = hilbert(tg, "odd")
    return TorusGrid(kappa=tg.kappa, values=0.5 * (w.values - scattering_pullback(w, cp).values))


def p_minus_torus(tg: TorusGrid, cp: CurvatureParam) -> TorusGrid:
    """Torus-level P-: (id - S^*) H_- V for V the even extension of the input."""
    w = hilbert(tg, "odd")
    return TorusGrid(kappa=tg.kappa, values=w.values - scattering_pullback(w, cp).values)


def p_minus(w, cp: CurvatureParam, template: BoundaryGrid, n_beta: int | None = None,
            n_fiber: int | None = None) -> BoundaryGrid:
    """P- w = A_-^* H_- A_+ w on the template grid."""
    nb, nf = _torus_shape(n_beta, n_fiber)
    return _restrict_plain(p_minus_torus(extend(w, "+", cp, nb, nf), cp), template)


def c_minus(u, cp: CurvatureParam, template: BoundaryGrid, n_beta: int | None = None,
            n_fiber: int | None = None) -> BoundaryGrid:
    """C- u = (1/2) A_-^* H_- A_- u on the template grid."""
    nb, nf = _torus_shape(n_beta, n_fiber)
    return _restrict_plain(c_minus_torus(extend(u, "-", cp, nb, nf), cp), template)


def p_plus(w, cp: CurvatureParam, template: BoundaryGrid, n_beta: int | None = None,
           n_fiber: int | None = None) -> BoundaryGrid:
    """Even-mode counterpart A_-^* H_+ A_+; kept for symmetry checks."""
    nb, nf = _torus_shape(n_beta, n_fiber)
    tg = extend(w, "+", cp, nb, nf)
    h = hilbert(tg, "even")
    out = TorusGrid(kappa=tg.kappa, values=h.values - scattering_pullback(h, cp).values)
    return _restrict_plain(out, template)


def c_plus(u, cp: CurvatureParam, template: BoundaryGrid, n_beta: int | None = None,
           n_fiber: int | None = None) -> BoundaryGrid:
    """Even-mode counterpart (1/2) A_-^* H_+ A_-; kept for symmetry checks."""
    nb, nf = _torus_shape(n_beta, n_fiber)
    tg = extend(u, "-", cp, nb, nf)
    h = hilbert(tg, "even")
    return _restrict_plain(
        TorusGrid(kappa=tg.kappa, values=0.5 * (h.values - scattering_pullback(h, cp).values)),
        template,
    )


def c_minus_rule(p: int, q: int) -> complex:
    """Eigenvalue of C- on u'_{p,q}: (-i/2)(sign(2q+1) + sign(2p-2q-1))."""
    return -0.5j * (np.sign(2 * q + 1) + np.sign(2 * p - 2 * q - 1))


def p_minus_rule(p: int, q: int) -> complex:
    """Multiplier of P- sending v'_{p,q} to that multiple of u'_{p,q}."""
    return -1j * (np.sign(2 * q + 1) - np.sign(2 * p - 2 * q - 1))


def projection_rule(p: int, q: int) -> float:
    """Multiplier of id + C-^2 on u'_{p,q}: 1 on the range, 0 on the co-kernel."""
    return float((1.0 + c_minus_rule(p, q) ** 2).real)


# ---------------------------------------------------------------------------
# antipodal symmetrization and range projection
# ---------------------------------------------------------------------------

def sa_pullback(u: BoundaryGrid, cp: CurvatureParam) -> BoundaryGrid:
    """Pullback under the antipodal scattering relation, exact on the grid.

    alpha -> -alpha reverses the (symmetric) Gauss-Legendre nodes and the
    beta shift pi + 2 sig(alpha) is applied on the beta spectrum.
    """
    if not np.allclose(u.alpha + u.alpha[::-1], 0.0, atol=1e-12):
        raise ValueError("alpha nodes must be symmetric about 0")
    spec = np.fft.fft(u.values, axis=0)
    freqs = _beta_freqs(len(u.beta))
    # output column g reads the flipped column (alpha -> -alpha) shifted in
    # beta by pi + 2 sig(alpha_g)
    shift = np.pi + 2.0 * sig(u.alpha, cp)
    out = np.fft.ifft(spec[:, ::-1] * np.exp(1j * np.outer(freqs, shift)), axis=0)
    return u.with_values(out)


def symmetrize(u: BoundaryGrid, cp: CurvatureParam) -> tuple[BoundaryGrid, float]:
    """Split off the antipodally even part; returns (even part, odd norm)."""
    pulled = sa_pullback(u, cp)
    even = u.with_values(0.5 * (u.values + pulled.values))
    odd = u.with_values(0.5 * (u.values - pulled.values))
    return even, odd.norm()


@dataclass
class SymmetryClass:
    """Measured symmetry classification of a boundary function.

    sigma1 is the extension parity whose torus extension is smoother
    (judged by fiber spectral tails), sigma2 the antipodal parity.
    """

    sigma1: str
    sigma2: str
    sa_even_residual: float
    sa_odd_residual: float
    tail_plus: float
    tail_minus: float


def classify(u: BoundaryGrid, cp: CurvatureParam, n_beta: int = 128, n_fiber: int = 256) -> SymmetryClass:
    """Classify u by antipodal parity and by which extension is smooth."""
    norm = u.norm() or 1.0
    pulled = sa_pullback(u, cp)
    even_res = 0.5 * u.with_values(u.values - pulled.values).norm() / norm
    odd_res = 0.5 * u.with_values(u.values + pulled.values).norm() / norm
    tails = {}
    for parity in ("+", "-"):
        tg = extend(u, parity, cp, n_beta, n_fiber)
        spec = np.abs(np.fft.fft(tg.values, axis=1)) / n_fiber
        m = np.abs(_beta_freqs(n_fiber))
        tail = spec[:, m > n_fiber // 4].sum()
        total = spec.sum() or 1.0
        tails[parity] = float(tail / total)
    sigma1 = "+" if tails["+"] <= tails["-"] else "-"
    sigma2 = "+" if even_res <= odd_res else "-"
    return SymmetryClass(sigma1, sigma2, float(even_res), float(odd_res),
                         tails["+"], tails["-"])


@dataclass
class ProjectionResult:
    projected: BoundaryGrid
    relative_change: float
    removed_odd_norm: float


def project_to_range(u, cp: CurvatureParam, template: BoundaryGrid | None = None,
                     n_beta: int | None = None, n_fiber: int | None = None) -> ProjectionResult:
    """Orthogonal projection id + C-^2 onto the range of the X-ray transform.

    Antipodally odd content is removed first and its norm reported.  The
    composition C-(C- u) happens entirely on the torus extension, so no
    intermediate re-interpolation is involved.
    """
    if isinstance(u, BoundaryGrid) and template is None:
        template = u
    if template is None:
        raise ValueError("a template BoundaryGrid is required for callable input")
    nb, nf = _torus_shape(n_beta, n_fiber)
    if isinstance(u, BoundaryGrid):
        u_even, removed = symmetrize(u, cp)
    else:
        bb, aa = template.mesh()
        grid = template.with_values(u(bb, aa), fn=u)
        u_even, removed = symmetrize(grid, cp)
    tg = extend(u_even, "-", cp, nb, nf)
    cc = c_minus_torus(c_minus_torus(tg, cp), cp)
    correction = _restrict_plain(cc, template)
    projected = template.with_values(u_even.values + correction.values)
    norm = u_even.norm()
    rel = correction.norm() / norm if norm > 0 else 0.0
    return ProjectionResult(projected=projected, relative_change=rel, removed_odd_norm=removed)


# ---------------------------------------------------------------------------
# moment conditions
# ---------------------------------------------------------------------------

@dataclass
class MomentReport:
    """Inner products of a sinogram candidate against the co-kernel family."""

    rows: list  # (n, k, |<u, psi_{n,k}>|)
    u_norm: float
    threshold: float
    in_range: bool

    def max_normalized(self, cp: CurvatureParam) -> float:
        psi_norm = math.sqrt(1.0 / (4.0 * (1.0 + cp.kappa)))
        if self.u_norm == 0.0:
            return 0.0
        return max((r[2] for r in self.rows), default=0.0) / (self.u_norm * psi_norm)


def moment_residuals(u: BoundaryGrid, nmax: int, kpad: int, cp: CurvatureParam,
                     threshold: float = 1e-6) -> MomentReport:
    """Moments of u against psi_{n,k} for k outside [0, n].

    Scans k in [-kpad, n + kpad] excluding [0, n] for each n <= nmax; all
    these inner products vanish exactly when u is an X-ray transform.
    The range verdict compares the normalized moments against threshold.
    """
    if kpad < 1:
        raise ValueError("kpad must be >= 1")
    bb, aa = u.mesh()
    w = u.weights()
    rows = []
    for n in range(nmax + 1):
        for k in range(-kpad, n + kpad + 1):
            if 0 <= k <= n:
                continue
            psi = basis.psi_kappa(n, k, bb, aa, cp)
            val = abs(complex(np.sum(w * u.values * np.conj(psi))))
            rows.append((n, k, val))
    report = MomentReport(rows=rows, u_norm=u.norm(), threshold=threshold, in_range=False)
    report.in_range = report.max_normalized(cp) < threshold
    return report
