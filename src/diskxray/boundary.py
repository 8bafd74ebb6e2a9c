"""Boundary-operator calculus on the boundary circle bundle.

The range characterisation is stated through two compositions on the
torus (beta, alpha in the full circle):

    P_-  =  A_-^* H_- A_+
    C_-  =  (1/2) A_-^* H_- A_-

A_+ and A_- extend an inward-bundle function to the torus, evenly or
oddly across the scattering relation S; H_- is the fiberwise Hilbert
transform (the Fourier multiplier -i sign(m)) on the odd fiber modes;
A_-^* V = V - V o S restricted to the inward bundle.  Both act
diagonally on the u'/v' families: with s(x) = sign(x),

    C_- u'_{p,q} = (-i/2) (s(2q+1) + s(2p-2q-1)) u'_{p,q}
    P_- v'_{p,q} =   -i   (s(2q+1) - s(2p-2q-1)) u'_{p,q}

and id + C_-^2 is the orthogonal projection onto the range of the X-ray
transform inside the antipodally symmetric subspace.  `project_to_range`
computes that projection without the torus: the range is the closed span
of psi_{n,k}, 0 <= k <= n, orthogonal to the co-kernel, so on a grid it
is the orthogonal projector onto the range modes the grid resolves (see
`xray._FiberPlan`).  The torus chain stays as its slow oracle, and
`c_minus` and `p_minus` are the chain's only entry points.  Each
operator reads kappa from its grid or template, never from a cp.

Torus implementation: every step commutes with shifts in beta, so each
operator runs on one beta spectrum, one row per beta frequency and one
column per uniform fiber node: the extension spectrum, the odd-mode
Hilbert multiplier, id - S^* and the evaluation at the template nodes.
The scattering relation maps fiber node alpha to pi - alpha when the
fiber size is even, and shifts beta by the off-grid amount
pi + 2 sig(alpha), applied exactly as a phase on the spectrum and formed
once per call (`sa_pullback` forms its shift the same way).  Both inputs
are read at each fiber node or its scattered fiber angle on the beta
grid, and the outward columns then take the phase: a grid input through
its fiber plan (trigonometric in beta, barycentric in s = sig(alpha)
after removing the sqrt(sig') weight), a callable sampled on the n_beta
beta nodes and transformed by one FFT over beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HALF_PI, TWO_PI, CurvatureParam, sig, wrap_pi
from .xray import BoundaryGrid, _beta_freqs, _check_kappa, _check_same, _fiber_plan


# ---------------------------------------------------------------------------
# the torus chain on one beta spectrum
# ---------------------------------------------------------------------------
#
# Extension, the fiberwise Hilbert transform, the scattering pullback and
# restriction all commute with translations in beta, so each acts on every
# beta frequency separately.  The helpers below work on a beta spectrum:
# one row per beta frequency in `freqs` (the FFT over beta divided by
# n_beta), one column per uniform fiber node.  The chain needs no FFT over
# beta between its steps and never forms rows its input does not carry.

def _scattering_phase(freqs, s) -> np.ndarray:
    """The beta shift pi + 2 sig(alpha) of the scattering relation as a
    phase, one row per beta frequency, one column per fiber angle of
    signature s = sig(alpha)."""
    return np.exp(1j * np.outer(freqs, np.pi + 2.0 * s))


def _pullback_spectrum(spec: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Scattering pullback S^* on the beta spectrum: fiber node alpha_j
    reads node pi - alpha_j, shifted in beta by the phase."""
    nf = spec.shape[1]
    flip = (nf // 2 - np.arange(nf)) % nf  # index of pi - alpha_j
    return spec[:, flip] * phase


def _hilbert_fiber(values: np.ndarray) -> np.ndarray:
    """Fiberwise Hilbert multiplier -i sign(m) on the odd fiber modes m
    along axis 1; the even modes go to 0."""
    m = _beta_freqs(values.shape[1])
    mult = np.where(m % 2 == 0, 0.0, -1j * np.sign(m))
    return np.fft.ifft(np.fft.fft(values, axis=1) * mult[None, :], axis=1)


def _minus_spectrum(spec: np.ndarray, phase: np.ndarray, scale: float) -> np.ndarray:
    """scale (id - S^*) H_- V on the beta spectrum, H_- the Hilbert
    transform on the odd fiber modes: C- has scale 1/2, P- scale 1."""
    w = _hilbert_fiber(spec)
    return scale * (w - _pullback_spectrum(w, phase))


def _eval_spectrum(freqs, spec, alpha_targets, n_beta_out: int) -> np.ndarray:
    """Evaluate a beta spectrum at the uniform output beta grid, at one
    fiber angle per column, through the fiber Fourier series.
    Frequencies the output cannot resolve, 2|f| >= n_beta_out, are
    dropped."""
    keep = 2 * np.abs(freqs) < n_beta_out
    freqs, spec = freqs[keep], spec[keep]
    nf = spec.shape[1]
    fiber_phase = np.exp(1j * np.outer(_beta_freqs(nf), alpha_targets))  # (n_fiber, G)
    out_spec = np.zeros((n_beta_out, len(alpha_targets)), dtype=complex)
    out_spec[freqs % n_beta_out] = (np.fft.fft(spec, axis=1) / nf) @ fiber_phase
    return np.fft.ifft(out_spec, axis=0, norm="forward")


# ---------------------------------------------------------------------------
# extension across the scattering relation
# ---------------------------------------------------------------------------

def _extension_spectrum(u, sign: float, cp: CurvatureParam, n_beta: int, n_fiber: int):
    """Extension of an inward-bundle function u to the n_beta x n_fiber
    torus, even (A_+, sign 1) or odd (A_-, sign -1) across the scattering
    relation.  Returns (freqs, spec, phase): the beta frequencies, the
    beta Fourier coefficients at the uniform fiber nodes and the
    scattering phase on those rows.

    Inward nodes carry u itself; an outward node carries sign times u at
    the scattered inward coordinates, which sit off the beta grid.  Both
    inputs are read at one fiber target per node, the node itself or its
    scattered fiber angle, on the beta grid: a grid u through its fiber
    plan, one barycentric pass giving its beta spectrum at every target
    (only the frequencies below the torus's Nyquist row are formed), a
    callable sampled on the n_beta beta nodes and transformed by one FFT
    over beta.  The outward columns then take the beta shift exactly, as
    the scattering phase, and the sign.
    """
    alpha = np.arange(n_fiber) * TWO_PI / n_fiber
    wrapped = wrap_pi(alpha)
    inward = np.abs(wrapped) <= HALF_PI + 1e-12
    # pi - alpha of an outward node is inward; the clip takes off rounding
    targets = np.clip(np.where(inward, wrapped, wrap_pi(np.pi - wrapped)), -HALF_PI, HALF_PI)
    if isinstance(u, BoundaryGrid):
        plan = _fiber_plan(u)
        freqs = plan.freqs[2 * np.abs(plan.freqs) < n_beta]
        spec = (plan.rows_at(targets) @ plan.nodal(u.values)).view(complex).T[freqs % u.shape[0]]
    elif callable(u):
        beta = np.arange(n_beta) * TWO_PI / n_beta
        vals = np.broadcast_to(u(beta[:, None], targets[None, :]), (n_beta, n_fiber))
        freqs, spec = _beta_freqs(n_beta), np.fft.fft(vals, axis=0) / n_beta
    else:
        raise TypeError("expected a callable on (beta, alpha) or a BoundaryGrid")
    phase = _scattering_phase(freqs, sig(alpha, cp))
    spec[:, ~inward] *= sign * phase[:, ~inward]
    return freqs, spec, phase


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


def _minus(u, sign: float, scale: float, template: BoundaryGrid, n_beta, n_fiber) -> BoundaryGrid:
    """scale (id - S^*) H_- of the sign extension of u, at the template
    nodes and the template's kappa; a grid u of another kappa is rejected."""
    if isinstance(u, BoundaryGrid):
        _check_kappa(u, template)
    cp = CurvatureParam(template.kappa)
    freqs, spec, phase = _extension_spectrum(u, sign, cp, *_torus_shape(n_beta, n_fiber))
    out = _minus_spectrum(spec, phase, scale)
    return template.with_values(_eval_spectrum(freqs, out, template.alpha, template.shape[0]))


def p_minus(w, template: BoundaryGrid, n_beta: int | None = None,
            n_fiber: int | None = None) -> BoundaryGrid:
    """P- w = A_-^* H_- A_+ w on the template grid."""
    return _minus(w, 1.0, 1.0, template, n_beta, n_fiber)


def c_minus(u, template: BoundaryGrid, n_beta: int | None = None,
            n_fiber: int | None = None) -> BoundaryGrid:
    """C- u = (1/2) A_-^* H_- A_- u on the template grid."""
    return _minus(u, -1.0, 0.5, template, n_beta, n_fiber)


def c_minus_rule(p: int, q: int) -> complex:
    """Eigenvalue of C- on u'_{p,q}: (-i/2)(sign(2q+1) + sign(2p-2q-1))."""
    return -0.5j * (np.sign(2 * q + 1) + np.sign(2 * p - 2 * q - 1))


def p_minus_rule(p: int, q: int) -> complex:
    """Multiplier of P- sending v'_{p,q} to that multiple of u'_{p,q}."""
    return -1j * (np.sign(2 * q + 1) - np.sign(2 * p - 2 * q - 1))


def projection_rule(p: int, q: int) -> float:
    """Multiplier of id + C-^2 on u'_{p,q}: 1 on the range, 0 on the co-kernel.

    Kept, though only tests call it: it is the paper's range projector, mode by mode."""
    return float((1.0 + c_minus_rule(p, q) ** 2).real)


# ---------------------------------------------------------------------------
# antipodal symmetrization and range projection
# ---------------------------------------------------------------------------

def sa_pullback(u: BoundaryGrid) -> BoundaryGrid:
    """Pullback under the antipodal scattering relation, exact on the grid.

    alpha -> -alpha reverses the grid's mirror-antisymmetric alpha nodes
    and the beta shift pi + 2 sig(alpha) is applied on the beta spectrum.
    """
    plan = _fiber_plan(u)
    spec = np.fft.fft(u.values, axis=0)
    # output column g reads the flipped column (alpha -> -alpha) shifted in
    # beta by pi + 2 sig(alpha_g)
    return u.with_values(np.fft.ifft(spec[:, ::-1] * _scattering_phase(plan.freqs, plan.s), axis=0))


def symmetrize(u: BoundaryGrid) -> tuple[BoundaryGrid, float]:
    """Split off the antipodally even part; returns (even part, odd norm)."""
    pulled = sa_pullback(u)
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


def project_to_range(u, template: BoundaryGrid | None = None) -> ProjectionResult:
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
    composition (the C- step applied twice to one extension spectrum) is
    its slow oracle.  A grid u is its own template; a template of other
    nodes or another kappa is rejected.
    """
    if not isinstance(u, BoundaryGrid):
        if template is None:
            raise ValueError("a template BoundaryGrid is required for callable input")
        u = template.with_values(u(*template.mesh()))
    elif template is not None:
        _check_same(u, template)
    u_even, removed = symmetrize(u)
    plan = _fiber_plan(u_even)
    if plan.band < 0:
        raise ValueError(
            f"no band of range modes is resolvable on {u.shape[1]} alpha nodes "
            f"(Gram deviation {plan.gram_deviation(0):.1e} at n = 0)")
    projected = u.with_values(plan.project(u_even.values))
    norm = u_even.norm()
    rel = u_even.with_values(projected.values - u_even.values).norm() / norm if norm > 0 else 0.0
    return ProjectionResult(projected=projected, relative_change=rel, removed_odd_norm=removed,
                            band=plan.band, gram_deviation=plan.gram_deviation(plan.band))


# ---------------------------------------------------------------------------
# moment conditions
# ---------------------------------------------------------------------------

_MOMENT_THRESHOLD = 1e-6  # a sinogram whose normalized moments all lie below it is in range


@dataclass
class MomentReport:
    """Inner products of a sinogram candidate against the co-kernel family."""

    rows: list  # (n, k, |<u, psi_{n,k}>|)
    u_norm: float
    threshold: float
    in_range: bool  # max_normalized < threshold
    max_normalized: float  # max |<u, psi>| / (||u|| ||psi||), 0 for u = 0


def _resolves_moments(nmax: int, kpad: int, n_beta: int) -> bool:
    """Whether n_beta beta nodes resolve the moment frequencies |n - 2k| <= nmax + 2 kpad."""
    return 2 * (nmax + 2 * kpad) < n_beta


def moment_residuals(u: BoundaryGrid, nmax: int, kpad: int) -> MomentReport:
    """Moments of u against psi_{n,k} for k outside [0, n].

    Scans k in [-kpad, n + kpad] excluding [0, n] for each n <= nmax; all
    these inner products vanish exactly when u is an X-ray transform.
    The range verdict compares the normalized moments against
    `_MOMENT_THRESHOLD`.
    The beta frequencies n - 2k reach nmax + 2 kpad in size, which must
    stay below n_beta/2, or a moment would be read from an aliased bin.
    """
    if nmax < 0:
        raise ValueError("moment_residuals requires nmax >= 0")
    if kpad < 1:
        raise ValueError("kpad must be >= 1")
    if not _resolves_moments(nmax, kpad, u.shape[0]):
        raise ValueError(
            f"moments up to nmax={nmax}, kpad={kpad} not resolvable on {u.shape[0]} beta nodes"
        )
    modes = [(n, k) for n in range(nmax + 1)
             for k in (*range(-kpad, 0), *range(n + 1, n + kpad + 1))]
    n, k = np.array(modes).T
    # psi = psi_hat / (2 sqrt(1 + kappa))
    inner = _fiber_plan(u).inner(u.values, n, k) / (2.0 * math.sqrt(1.0 + u.kappa))
    rows = [(n, k, val) for (n, k), val in zip(modes, np.abs(inner).tolist())]
    u_norm = u.norm()
    psi_norm = math.sqrt(1.0 / (4.0 * (1.0 + u.kappa)))
    worst = 0.0 if u_norm == 0.0 else max((r[2] for r in rows), default=0.0) / (u_norm * psi_norm)
    return MomentReport(rows=rows, u_norm=u_norm, threshold=_MOMENT_THRESHOLD,
                        in_range=worst < _MOMENT_THRESHOLD, max_normalized=worst)
