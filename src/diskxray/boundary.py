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
computes that projection without the chain: the range is the closed span
of psi_{n,k}, 0 <= k <= n, orthogonal to the co-kernel, so on a grid it
is the orthogonal projector onto the range modes the grid resolves (see
`xray._FiberPlan`), applied with the S_A split on one spectrum of the
grid.  The chain stays as its slow oracle, and `c_minus` and `p_minus`
are the chain's only entry points.  Each operator reads kappa from its
grid or template, never from a cp.

The chain runs on a torus of n_beta uniform beta nodes and a fiber
circle of n_fiber nodes uniform in s = sig(alpha).  Every u'/v' mode is
sqrt(sig') times odd powers of e^{is}, so on that circle it is
band-limited, and the chain works on u / sqrt(sig'): the Hilbert
transform on the odd alpha modes is the same multiplier on the odd
s-modes.  The circle's first half is inward, and node n_fiber - 1 - k is
the flip pi - t_k of node k, so the scattering relation maps nodes to
nodes and shifts beta by pi + 2 sig(alpha), applied exactly as a phase
on the beta spectrum and formed once per call (`project_to_range` forms
its shift the same way).  Every step commutes with shifts in beta, so
each operator runs on one beta spectrum: the input read at the inward
nodes (a grid through its fiber plan's spectrum and barycentric rows, a
callable sampled on the n_beta beta nodes and transformed by one FFT
over beta), the outward half filled by the flip, the odd-mode Hilbert
multiplier, id - S^* as the same flip, and the s-Fourier series at the
template's nodes, brought back to grid values by the template plan's
`from_spectrum`.  `project_to_range` applies the same flip to the grid's
own spectrum and takes its even part there.  The P-/C- rules hold for
|p|, |q| <= 5 to 5.3e-14 at every |kappa| <= 0.9 on 128 x 128; on a
torus uniform in alpha, where u' is not band-limited, they erred by
3.9e-2 at kappa = 0.9 on 128 x 1024.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .geometry import HALF_PI, TWO_PI, CurvatureParam, sig_inverse, sig_prime
from .xray import BoundaryGrid, _beta_freqs, _check_kappa, _check_same, _fiber_plan


# ---------------------------------------------------------------------------
# the chain on the (beta, s) torus, one beta spectrum
# ---------------------------------------------------------------------------
#
# The helpers below work on a beta spectrum of u / sqrt(sig'): one row per
# beta frequency in `freqs` (the FFT over beta divided by n_beta), one
# column per node of the fiber circle.  The chain needs no FFT over beta
# between its steps and never forms rows its input does not carry.

def _circle(n_fiber: int) -> np.ndarray:
    """The n_fiber fiber nodes t_k = -pi/2 + (k + 1/2) 2 pi / n_fiber,
    uniform in s; the first half is inward, and t_{n_fiber-1-k} = pi - t_k."""
    return -HALF_PI + (np.arange(n_fiber) + 0.5) * TWO_PI / n_fiber


def _scattering_phase(freqs, s) -> np.ndarray:
    """The beta shift pi + 2 sig(alpha) of the scattering relation as a
    phase, one row per beta frequency, one column per fiber angle of
    signature s = sig(alpha)."""
    return np.exp(1j * np.outer(freqs, np.pi + 2.0 * s))


def _pullback_spectrum(spec: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Scattering pullback S^* on the beta spectrum: node t_k reads its
    flip pi - t_k, shifted in beta by the phase at t_k."""
    return spec[:, ::-1] * phase


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


def _eval_spectrum(freqs, spec, template: BoundaryGrid) -> np.ndarray:
    """Evaluate a beta spectrum at the template nodes: the s-Fourier
    series at s = sig(alpha), a spectrum of the template's plan, which
    `from_spectrum` takes to grid values.  Frequencies the template
    cannot resolve, 2|f| >= n_beta, are dropped."""
    n_beta, nf = template.shape[0], spec.shape[1]
    keep = 2 * np.abs(freqs) < n_beta
    plan = _fiber_plan(template)
    # the FFT counts node k at 2 pi k / nf: shift the targets by node 0
    fiber_phase = np.exp(1j * np.outer(_beta_freqs(nf), plan.s - _circle(nf)[0]))
    out_spec = np.zeros(template.shape, dtype=complex)
    out_spec[freqs[keep] % n_beta] = (np.fft.fft(spec[keep], axis=1) / nf) @ fiber_phase
    return plan.from_spectrum(out_spec)


# ---------------------------------------------------------------------------
# extension across the scattering relation
# ---------------------------------------------------------------------------

def _extension_spectrum(u, sign: float, template: BoundaryGrid, n_beta: int, n_fiber: int):
    """Extension of an inward-bundle function u to the n_beta x n_fiber
    (beta, s) torus at the template's kappa, even (A_+, sign 1) or odd
    (A_-, sign -1) across the scattering relation; a grid u of another
    kappa is rejected.  Returns (freqs, spec, phase): the beta
    frequencies, the beta Fourier coefficients of u / sqrt(sig') at the
    circle's nodes and the scattering phase on those rows.

    u is read only at the inward nodes alpha_j = sig^{-1}(t_j) on the beta
    grid: a grid u through its fiber plan, one barycentric pass giving its
    beta spectrum at every node (only the frequencies below the torus's
    Nyquist row are formed), a callable sampled on the n_beta beta nodes
    and transformed by one FFT over beta.  Outward node n_fiber - 1 - j
    then carries sign times node j, shifted in beta by the scattering
    phase at the outward node.
    """
    cp = CurvatureParam(template.kappa)
    t = _circle(n_fiber)
    alpha = sig_inverse(t[:n_fiber // 2], cp)
    if isinstance(u, BoundaryGrid):
        _check_kappa(u, template)
        plan = _fiber_plan(u)
        freqs = plan.freqs[2 * np.abs(plan.freqs) < n_beta]
        spec = (plan.rows_at(alpha) @ plan.nodal(u.values)).view(complex).T[freqs % u.shape[0]]
    elif callable(u):
        beta = np.arange(n_beta) * TWO_PI / n_beta
        vals = np.broadcast_to(u(beta[:, None], alpha[None, :]), (n_beta, len(alpha)))
        freqs, spec = _beta_freqs(n_beta), np.fft.fft(vals, axis=0) / n_beta
    else:
        raise TypeError("expected a callable on (beta, alpha) or a BoundaryGrid")
    spec = spec / np.sqrt(sig_prime(alpha, cp))
    phase = _scattering_phase(freqs, t)
    return freqs, np.concatenate((spec, sign * spec[:, ::-1] * phase[:, len(alpha):]), axis=1), phase


# ---------------------------------------------------------------------------
# the operators P- and C-
# ---------------------------------------------------------------------------

def _torus_shape(n_beta, n_fiber):
    """Torus size (n_beta, n_fiber), 256 x 1024 where None; a size is an
    integer (numpy integers count, 64.0 is rejected).  The scattering
    relation pairs the inward and outward halves of the fiber circle only
    for an even fiber size, so an odd one is rejected rather than
    mis-projected."""
    nb = 256 if n_beta is None else operator.index(n_beta)
    nf = 1024 if n_fiber is None else operator.index(n_fiber)
    if nb < 2 or nf < 2 or nf % 2:
        raise ValueError(f"torus size needs n_beta >= 2 and an even n_fiber >= 2, got {nb} x {nf}")
    return nb, nf


def _minus(u, sign: float, scale: float, template: BoundaryGrid, n_beta, n_fiber) -> BoundaryGrid:
    """scale (id - S^*) H_- of the sign extension of u, at the template
    nodes and the template's kappa."""
    freqs, spec, phase = _extension_spectrum(u, sign, template, *_torus_shape(n_beta, n_fiber))
    return template.with_values(_eval_spectrum(freqs, _minus_spectrum(spec, phase, scale), template))


def p_minus(w, template: BoundaryGrid, n_beta: int | None = None,
            n_fiber: int | None = None) -> BoundaryGrid:
    """P- w = A_-^* H_- A_+ w on the template grid (a grid w: see `c_minus`)."""
    return _minus(w, 1.0, 1.0, template, n_beta, n_fiber)


def c_minus(u, template: BoundaryGrid, n_beta: int | None = None,
            n_fiber: int | None = None) -> BoundaryGrid:
    """C- u = (1/2) A_-^* H_- A_- u on the template grid.

    A grid u is read at the circle's inward nodes through its barycentric
    rows in s.  Once n_fiber > 2 / (1 + x_0), x_0 the grid's first
    Gauss-Legendre node, the circle's outermost nodes lie past the grid's
    outermost s node and the rows extrapolate there: from 1628 fiber
    nodes on 48 alpha nodes, from 2878 on 64.  Grid input stops
    improving before that, at about 1024 fiber nodes: for a band-limited
    psi_hat mix on a 64 x 48 grid at kappa = 0.4 (256 beta nodes), C- of
    the grid differs from C- of the callable it samples by 1.0e-10
    relative at 512 fiber nodes, 4.5e-12 at 1024 and 1.4e-11 at 2048,
    worst at the template's edge alpha columns.
    """
    return _minus(u, -1.0, 0.5, template, n_beta, n_fiber)


def c_minus_rule(p: int, q: int) -> complex:
    """Eigenvalue of C- on u'_{p,q}: (-i/2)(sign(2q+1) + sign(2p-2q-1)),
    for integers p and q."""
    p, q = operator.index(p), operator.index(q)
    return -0.5j * (np.sign(2 * q + 1) + np.sign(2 * p - 2 * q - 1))


def p_minus_rule(p: int, q: int) -> complex:
    """Multiplier of P- sending v'_{p,q} to that multiple of u'_{p,q}."""
    p, q = operator.index(p), operator.index(q)
    return -1j * (np.sign(2 * q + 1) - np.sign(2 * p - 2 * q - 1))


# ---------------------------------------------------------------------------
# antipodal pullback and range projection
# ---------------------------------------------------------------------------

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
    `xray.GRAM_TOL`.  Everything runs on one spectrum of the fiber plan:
    the even part is half the spectrum plus its S_A pullback, the plan
    projects it in every beta bin at once (its range basis: two real QRs,
    one per degree parity), the norms are Parseval sums of the spectrum,
    and one `from_spectrum` gives the projected values.  It is exact on
    the band (idempotent and self-adjoint in the grid's inner product)
    at every kappa in (-1, 1).  It equals id + C-^2, whose torus
    composition (the C- step applied twice to one extension spectrum) is
    its slow oracle.  A grid u is its own template; a template of other
    nodes or another kappa is rejected, and so is a u that is neither a
    callable nor a BoundaryGrid.
    """
    if callable(u):
        if template is None:
            raise ValueError("a template BoundaryGrid is required for callable input")
        _fiber_plan(template)  # rejects a template of another kind before it is sampled
        u = template.with_values(np.broadcast_to(u(*template.mesh()), template.shape))
    elif template is not None:
        _check_same(u, template)
    plan = _fiber_plan(u)
    if plan.band < 0:
        raise ValueError(
            f"no band of range modes is resolvable on {u.shape[1]} alpha nodes "
            f"(Gram deviation {plan.gram_deviation(0):.1e} at n = 0)")
    spec = plan.spectrum(u.values)
    even = 0.5 * (spec + _pullback_spectrum(spec, _scattering_phase(plan.freqs, plan.s)))
    projected = plan.project(even)
    norm = plan.norm(even)
    rel = plan.norm(projected - even) / norm if norm > 0 else 0.0
    return ProjectionResult(projected=u.with_values(plan.from_spectrum(projected)), relative_change=rel,
                            removed_odd_norm=plan.norm(spec - even), band=plan.band,
                            gram_deviation=plan.gram_deviation(plan.band))


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
    nmax and kpad are integers; u must be a BoundaryGrid.
    """
    nmax, kpad = operator.index(nmax), operator.index(kpad)
    if nmax < 0:
        raise ValueError("moment_residuals requires nmax >= 0")
    if kpad < 1:
        raise ValueError("kpad must be >= 1")
    plan = _fiber_plan(u)
    if not _resolves_moments(nmax, kpad, u.shape[0]):
        raise ValueError(
            f"moments up to nmax={nmax}, kpad={kpad} not resolvable on {u.shape[0]} beta nodes"
        )
    modes = [(n, k) for n in range(nmax + 1)
             for k in (*range(-kpad, 0), *range(n + 1, n + kpad + 1))]
    n, k = np.array(modes).T
    moments = np.abs(plan.inner(u.values, n, k))  # against psi_hat, of unit norm
    psi_moments = moments / (2.0 * math.sqrt(1.0 + u.kappa))  # psi = psi_hat / (2 sqrt(1 + kappa))
    rows = [(n, k, val) for (n, k), val in zip(modes, psi_moments.tolist())]
    u_norm = u.norm()
    worst = 0.0 if u_norm == 0.0 else float(moments.max()) / u_norm
    return MomentReport(rows=rows, u_norm=u_norm, threshold=_MOMENT_THRESHOLD,
                        in_range=worst < _MOMENT_THRESHOLD, max_normalized=worst)
