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
transform inside the antipodally symmetric subspace.  `project_to_range`
computes that projection without the torus: the range is the closed span
of psi_{n,k}, 0 <= k <= n, orthogonal to the co-kernel, so on a grid it
is the orthogonal projector onto the range modes the grid resolves (see
`xray._FiberPlan`).  The torus chain A_-^* C_-^2 A_- stays as its slow
oracle.

Grid implementation notes: all torus operations act on uniform grids via
FFTs.  The scattering relation maps fiber nodes to fiber nodes when the
fiber size is even, and shifts beta by the off-grid amount pi + 2 sig(a),
applied exactly as a phase on the beta spectrum.  Every torus step
commutes with shifts in beta, so each acts on one beta spectrum, forming
only the frequencies its input and output carry.  Operators accept
callables or BoundaryGrids; grid inputs are interpolated spectrally
(trigonometric in beta, barycentric in the substituted fiber variable
s = sig(alpha) after removing the sqrt(sig') weight).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .geometry import HALF_PI, TWO_PI, CurvatureParam, sig, wrap_pi
from .xray import BoundaryGrid, _beta_freqs, _check_kappa, _check_same_boundary, _fiber_plan


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


# ---------------------------------------------------------------------------
# the beta spectrum of torus functions
# ---------------------------------------------------------------------------
#
# Extension, the fiberwise Hilbert transform, the scattering pullback and
# restriction all commute with translations in beta, so each acts on every
# beta frequency separately.  The private helpers below work on a beta
# spectrum: one row per beta frequency in `freqs`, one column per uniform
# fiber node.  A chain of them needs no FFT over beta between steps and
# never forms rows that neither its input nor its output carries.  The
# public TorusGrid operators are the same helpers between one FFT over beta
# and one inverse FFT.

def _fiber_nodes(n_fiber: int):
    """Uniform fiber angles wrapped to [-pi, pi), and which are inward."""
    alpha = wrap_pi(np.arange(n_fiber) * TWO_PI / n_fiber)
    return alpha, np.abs(alpha) <= HALF_PI + 1e-12


def _scattering_phase(freqs, n_fiber: int, cp: CurvatureParam) -> np.ndarray:
    """The beta shift pi + 2 sig(alpha) of the scattering relation as a
    phase, one row per beta frequency, one column per uniform fiber node."""
    alpha = np.arange(n_fiber) * TWO_PI / n_fiber
    return np.exp(1j * np.outer(freqs, np.pi + 2.0 * sig(alpha, cp)))


def _pullback_spectrum(spec: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Scattering pullback on the beta spectrum: fiber node alpha_j reads
    node pi - alpha_j, shifted in beta by the phase."""
    nf = spec.shape[1]
    flip = (nf // 2 - np.arange(nf)) % nf  # index of pi - alpha_j
    return spec[:, flip] * phase


def _hilbert_fiber(values: np.ndarray, part: str) -> np.ndarray:
    """Fiberwise Hilbert multiplier -i sign(m) along axis 1 (the fiber),
    restricted to the even or odd fiber modes unless part is "full"."""
    if part not in ("full", "even", "odd"):
        raise ValueError("part must be 'full', 'even' or 'odd'")
    m = _beta_freqs(values.shape[1])
    mult = -1j * np.sign(m)
    if part == "even":
        mult = np.where(m % 2 == 0, mult, 0.0)
    elif part == "odd":
        mult = np.where(m % 2 == 0, 0.0, mult)
    return np.fft.ifft(np.fft.fft(values, axis=1) * mult[None, :], axis=1)


def _minus_spectrum(spec: np.ndarray, phase: np.ndarray, scale: float) -> np.ndarray:
    """scale (id - S^*) H_- V on the beta spectrum, H_- the Hilbert
    transform on the odd fiber modes: C- has scale 1/2, P- scale 1."""
    w = _hilbert_fiber(spec, "odd")
    return scale * (w - _pullback_spectrum(w, phase))


def _on_beta_spectrum(tg: TorusGrid, cp: CurvatureParam, step) -> TorusGrid:
    """Apply step(spectrum, scattering phase) to torus samples between one
    FFT over beta and its inverse."""
    spec = np.fft.fft(tg.values, axis=0)
    out = step(spec, _scattering_phase(_beta_freqs(tg.n_beta), tg.n_fiber, cp))
    return TorusGrid(kappa=tg.kappa, values=np.fft.ifft(out, axis=0))


def _eval_spectrum(freqs, spec, alpha_targets, n_beta_out: int, beta_shift=None) -> np.ndarray:
    """Evaluate a beta spectrum (Fourier coefficients, the FFT over beta
    divided by n_beta) at the uniform output beta grid plus an optional
    per-column shift, at one fiber angle per column, through the fiber
    Fourier series.  Frequencies above the output's band are dropped."""
    keep = np.abs(freqs) <= n_beta_out // 2 - 1
    freqs, spec = freqs[keep], spec[keep]
    nf = spec.shape[1]
    fiber_phase = np.exp(1j * np.outer(_beta_freqs(nf), alpha_targets))  # (n_fiber, G)
    cols = (np.fft.fft(spec, axis=1) / nf) @ fiber_phase
    if beta_shift is not None:
        cols *= np.exp(1j * np.outer(freqs, beta_shift))
    out_spec = np.zeros((n_beta_out, cols.shape[1]), dtype=complex)
    out_spec[freqs % n_beta_out] = cols
    return np.fft.ifft(out_spec, axis=0, norm="forward")


def _beta_spectrum(tg: TorusGrid):
    """Beta frequencies and beta Fourier coefficients of torus samples."""
    return _beta_freqs(tg.n_beta), np.fft.fft(tg.values, axis=0) / tg.n_beta


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
    n_beta, n_fiber = _torus_shape(n_beta, n_fiber)

    alpha, inward = _fiber_nodes(n_fiber)
    if isinstance(u, BoundaryGrid):
        # structured path: one barycentric pass gives u's beta spectrum at
        # every fiber target, outward nodes take the scattering phase and
        # the parity sign, and one inverse FFT over beta follows; only the
        # frequencies the torus carries below its Nyquist row are formed
        targets = np.where(inward, alpha, wrap_pi(np.pi - alpha))
        if np.any(np.abs(targets) > HALF_PI + 1e-9):
            raise ValueError("scattered fiber node left the inward range")
        plan = _fiber_plan(u, cp)
        freqs = plan.freqs[np.abs(plan.freqs) <= n_beta // 2 - 1]
        rows = plan.rows_at(np.clip(targets, -HALF_PI, HALF_PI))
        spec = (rows @ plan.nodal(u.values)).view(complex).T[freqs % len(u.beta)]
        spec[:, ~inward] *= sign * _scattering_phase(freqs, n_fiber, cp)[:, ~inward]
        spec_t = np.zeros((n_beta, n_fiber), dtype=complex)
        spec_t[freqs % n_beta] = spec
        return TorusGrid(kappa=cp.kappa, values=np.fft.ifft(spec_t, axis=0, norm="forward"))

    if not callable(u):
        raise TypeError("expected a callable on (beta, alpha) or a BoundaryGrid")
    vals = np.empty((n_beta, n_fiber), dtype=complex)
    bb = (np.arange(n_beta) * TWO_PI / n_beta)[:, None]
    a_in = alpha[inward]
    vals[:, inward] = u(bb, a_in[None, :])
    a_out = alpha[~inward]
    shift = np.pi + 2.0 * sig(a_out, cp)
    vals[:, ~inward] = sign * u(bb + shift[None, :], wrap_pi(np.pi - a_out)[None, :])
    return TorusGrid(kappa=cp.kappa, values=vals)


def scattering_pullback(tg: TorusGrid, cp: CurvatureParam) -> TorusGrid:
    """Pullback of torus samples under the scattering relation.

    (S^* V)(beta, alpha) = V(beta + pi + 2 sig(alpha), pi - alpha); the
    fiber part permutes grid nodes, the beta shift is a spectral phase.
    """
    return _on_beta_spectrum(tg, cp, _pullback_spectrum)


def hilbert(tg: TorusGrid, part: str = "full") -> TorusGrid:
    """Fiberwise Hilbert transform: multiplier -i sign(m), sign(0) = 0.

    part "even"/"odd" first restricts to the even/odd fiber Fourier
    modes (the full transform is the sum of the two restrictions).
    """
    return TorusGrid(kappa=tg.kappa, values=_hilbert_fiber(tg.values, part))


def restrict_star(tg: TorusGrid, parity: str, cp: CurvatureParam, template: BoundaryGrid) -> BoundaryGrid:
    """Restriction A_+/-^*: V(x) +/- V(S(x)) sampled on the inward template."""
    if parity not in ("+", "-"):
        raise ValueError("parity must be '+' or '-'")
    sign = 1.0 if parity == "+" else -1.0
    nb = len(template.beta)
    freqs, spec = _beta_spectrum(tg)
    direct = _eval_spectrum(freqs, spec, template.alpha, nb)
    shift = np.pi + 2.0 * _fiber_plan(template, cp).s
    scattered = _eval_spectrum(freqs, spec, np.pi - template.alpha, nb, shift)
    return template.with_values(direct + sign * scattered)


def _restrict_plain(tg: TorusGrid, template: BoundaryGrid) -> BoundaryGrid:
    """Plain restriction of torus samples to the inward template nodes."""
    freqs, spec = _beta_spectrum(tg)
    return template.with_values(_eval_spectrum(freqs, spec, template.alpha, len(template.beta)))


# ---------------------------------------------------------------------------
# the operators P- and C-
# ---------------------------------------------------------------------------

def _torus_shape(n_beta, n_fiber):
    """Torus size (n_beta, n_fiber), 256 x 1024 where None.  The
    scattering relation maps fiber nodes to fiber nodes only for an even
    fiber size, so an odd one is rejected rather than mis-projected."""
    nb = 256 if n_beta is None else n_beta
    nf = 1024 if n_fiber is None else n_fiber
    if nb < 2 or nf < 2 or nf % 2:
        raise ValueError(f"torus size needs n_beta >= 2 and an even n_fiber >= 2, got {nb} x {nf}")
    return nb, nf


_c_minus_spectrum = partial(_minus_spectrum, scale=0.5)
_p_minus_spectrum = partial(_minus_spectrum, scale=1.0)


def c_minus_torus(tg: TorusGrid, cp: CurvatureParam) -> TorusGrid:
    """Torus-level C-: (1/2)(id - S^*) H_- V.

    If V is the odd extension of u, the result is the odd extension of
    C- u, so applications chain without leaving the torus.
    """
    return _on_beta_spectrum(tg, cp, _c_minus_spectrum)


def p_minus_torus(tg: TorusGrid, cp: CurvatureParam) -> TorusGrid:
    """Torus-level P-: (id - S^*) H_- V for V the even extension of the input."""
    return _on_beta_spectrum(tg, cp, _p_minus_spectrum)


def p_minus(w, cp: CurvatureParam, template: BoundaryGrid, n_beta: int | None = None,
            n_fiber: int | None = None) -> BoundaryGrid:
    """P- w = A_-^* H_- A_+ w on the template grid."""
    return _restrict_plain(p_minus_torus(extend(w, "+", cp, n_beta, n_fiber), cp), template)


def c_minus(u, cp: CurvatureParam, template: BoundaryGrid, n_beta: int | None = None,
            n_fiber: int | None = None) -> BoundaryGrid:
    """C- u = (1/2) A_-^* H_- A_- u on the template grid."""
    return _restrict_plain(c_minus_torus(extend(u, "-", cp, n_beta, n_fiber), cp), template)


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
    plan = _fiber_plan(u, cp)
    spec = np.fft.fft(u.values, axis=0)
    # output column g reads the flipped column (alpha -> -alpha) shifted in
    # beta by pi + 2 sig(alpha_g)
    shift = np.pi + 2.0 * plan.s
    out = np.fft.ifft(spec[:, ::-1] * np.exp(1j * np.outer(plan.freqs, shift)), axis=0)
    return u.with_values(out)


def symmetrize(u: BoundaryGrid, cp: CurvatureParam) -> tuple[BoundaryGrid, float]:
    """Split off the antipodally even part; returns (even part, odd norm)."""
    pulled = sa_pullback(u, cp)
    even = u.with_values(0.5 * (u.values + pulled.values))
    odd = u.with_values(0.5 * (u.values - pulled.values))
    return even, odd.norm()


@dataclass
class ProjectionResult:
    """The projected grid, ||P u - u|| / ||u|| for the antipodally even
    part u, the norm of the odd part removed first, the band N of range
    modes n <= N projected onto and that band's Gram deviation."""

    projected: BoundaryGrid
    relative_change: float
    removed_odd_norm: float
    band: int
    gram_deviation: float


def project_to_range(u, cp: CurvatureParam, template: BoundaryGrid | None = None) -> ProjectionResult:
    """Orthogonal projection onto the range of the X-ray transform.

    Antipodally odd content is removed first and its norm reported.  The
    range is the closed span of psi_hat_{n,k}, 0 <= k <= n, and is
    orthogonal to the co-kernel (k outside [0, n]), so on the grid the
    projection is onto the span of the range modes n <= N of the largest
    band N < n_beta/2 whose discrete Gram deviation stays within
    `xray.GRAM_TOL`: per beta frequency an orthonormal basis Q of that
    frequency's range modes, applied as Q Q^H to one FFT over beta.  It is
    exact on the band (idempotent and self-adjoint in the grid's inner
    product) at every kappa in (-1, 1).  It equals id + C-^2, whose torus
    composition A_-^* C-^2 A_- (`extend`, `c_minus_torus`,
    `_restrict_plain`) is its slow oracle.
    """
    if isinstance(u, BoundaryGrid) and template is None:
        template = u
    if template is None:
        raise ValueError("a template BoundaryGrid is required for callable input")
    _check_kappa(template, cp)
    if isinstance(u, BoundaryGrid):
        _check_same_boundary(u, template)
    else:
        u = template.with_values(u(*template.mesh()))
    u_even, removed = symmetrize(u, cp)
    plan = _fiber_plan(u_even, cp)
    if plan.band < 0:
        raise ValueError(
            f"no band of range modes is resolvable on {len(u.alpha)} alpha nodes "
            f"(Gram deviation {plan.gram_deviation(0):.1e} at n = 0)")
    projected = template.with_values(plan.project(u_even.values))
    norm = u_even.norm()
    rel = u_even.with_values(projected.values - u_even.values).norm() / norm if norm > 0 else 0.0
    return ProjectionResult(projected=projected, relative_change=rel, removed_odd_norm=removed,
                            band=plan.band, gram_deviation=plan.gram_deviation(plan.band))


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
    The beta frequencies n - 2k reach nmax + 2 kpad in size, which must
    stay below n_beta/2, or a moment would be read from an aliased bin.
    """
    _check_kappa(u, cp)
    if kpad < 1:
        raise ValueError("kpad must be >= 1")
    if 2 * (nmax + 2 * kpad) >= len(u.beta):
        raise ValueError(
            f"moments up to nmax={nmax}, kpad={kpad} not resolvable on {len(u.beta)} beta nodes"
        )
    modes = [(n, k) for n in range(nmax + 1)
             for k in (*range(-kpad, 0), *range(n + 1, n + kpad + 1))]
    n, k = np.array(modes).T
    # psi = psi_hat / (2 sqrt(1 + kappa))
    inner = _fiber_plan(u, cp).inner(u.values, n, k) / (2.0 * math.sqrt(1.0 + cp.kappa))
    rows = [(n, k, val) for (n, k), val in zip(modes, np.abs(inner).tolist())]
    report = MomentReport(rows=rows, u_norm=u.norm(), threshold=threshold, in_range=False)
    report.in_range = report.max_normalized(cp) < threshold
    return report
