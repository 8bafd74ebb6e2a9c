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

independent of k.  The forward map takes its integrand as a callable on
the disk.  `analyze` / `synthesize` move between grids and coefficient
tables, and `invert` divides out the singular values with hard
truncation or a spectral cutoff.  A grid carries its kappa: a function
that takes one reads kappa from it and takes no CurvatureParam.  Both
grid kinds share one core (`_Grid`: construction checks, `with_values`,
`norm`) and one inner product, `inner`.  Every boundary-grid path works
in one space, the beta spectrum of u / sqrt(sig') on the Gauss-Legendre
rule in s = sig(alpha) (`_FiberPlan`): there psi_hat's fiber is a phase
of its beta bin times a kappa-free real profile of its degree, so every
bin's range modes share one real basis per degree parity, and kappa
enters only through sqrt(sig') and one scalar.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import basis
from .basis import _NonFiniteValues
from .geometry import (
    CurvatureParam,
    exit_time,
    footpoint_angles,
    geodesic_point,
    sig,
    sig_inverse,
    sig_prime,
)

TWO_PI = 2.0 * math.pi
_BLOCK = 2048  # targets per pass of the grid interpolant: bounds its temporaries
_MEASURES = ("vol", "weighted")  # DiskGrid measure tags
_PANEL_LENGTH = 2.0  # longest geodesic quadrature panel


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass
class _Grid:
    """Samples of a complex function on a 2-d grid at curvature kappa.

    A grid is its curvature and its values: its nodes follow from kappa
    and values.shape, and its non-uniform axis takes a Gauss-Legendre
    rule (`_rule`) formed when the grid is made, never first inside a
    file writer or reader.  A kappa outside (-1, 1), values that are not
    2-d, an empty axis and NaN or inf values are rejected there.
    """

    kappa: float
    values: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.values)
        if len(shape) != 2 or 0 in shape:
            raise ValueError(f"{self._KIND} values must be 2-d {self._AXES} with a node on each axis, "
                             f"got shape {shape}")
        if not np.isfinite(self.values).all():
            raise _NonFiniteValues(f"{self._KIND} values hold NaN or inf")
        CurvatureParam(self.kappa)  # rejects a kappa outside (-1, 1)
        self._rule()

    @property
    def shape(self):
        return np.shape(self.values)

    def with_values(self, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != self.shape:
            raise ValueError(f"values shape {values.shape} does not match the grid")
        return replace(self, values=values)

    def norm(self) -> float:
        return math.sqrt(abs(inner(self, self)))


@dataclass
class BoundaryGrid(_Grid):
    """Samples of a complex function on the inward boundary bundle.

    values.shape = (n_beta, n_alpha), and beta is uniform on [0, 2*pi).
    The alpha nodes are Gauss-Legendre points placed in the substituted
    fiber variable s = sig(alpha) and pulled back through the signature,
    with the jacobian folded into the weights; at kappa = 0 they are plain
    Gauss-Legendre nodes on (-pi/2, pi/2).  The substitution keeps both
    quadrature and interpolation spectrally accurate uniformly in kappa:
    the integrands and interpolands produced by the transform family are
    trigonometric polynomials in s after the sqrt(sig') weight is split
    off.  `weights` adds the surface-measure factor (1+kappa)^{-1}, so
    `inner` integrates against the bundle measure directly.

    The nodes are read-only properties.  The alpha nodes and weights are
    formed once per (kappa, n_alpha) and shared, so every grid path may
    rely on them: distinct and mirror-antisymmetric, alpha = -alpha[::-1].
    """

    _KIND, _AXES = "boundary", "(n_beta, n_alpha)"

    def _rule(self):
        return _alpha_nodes(self.kappa, self.shape[1])

    @property
    def beta(self) -> np.ndarray:
        return np.arange(self.shape[0]) * TWO_PI / self.shape[0]

    @property
    def alpha(self) -> np.ndarray:
        return self._rule()[0]

    @property
    def alpha_weights(self) -> np.ndarray:
        return self._rule()[1]

    def weights(self) -> np.ndarray:
        """Full 2-d quadrature weights for the bundle surface measure."""
        n_beta = self.shape[0]
        row = TWO_PI / n_beta * self.alpha_weights / (1.0 + self.kappa)
        return np.ones(n_beta)[:, None] * row[None, :]

    def mesh(self):
        return np.meshgrid(self.beta, self.alpha, indexing="ij")

    def interpolant(self):
        """Spectral interpolant: trigonometric in beta, barycentric in the
        substituted fiber variable s = sig(alpha) after dividing out the
        sqrt(sig') weight.  Returns a callable (beta, alpha).

        Kept as the grid adjoint's per-target oracle; benchmarks/tracing.py patches it.

        The substitution matters for accuracy: sinograms and the
        u'/v'-type families are trigonometric polynomials in s once the
        sqrt(sig') factor is removed, so the interpolation error is
        limited only by the node count versus the band width, not by the
        complex singularities of the signature.  Evaluation is blocked,
        one real matrix product and one Horner sum in e^{i beta} per
        block, so its memory is bounded whatever the target count.  The
        rows and the spectrum come from the grid's `_FiberPlan`.
        """
        plan = _fiber_plan(self)
        spec_ri, freqs = plan.nodal(self.values), plan.freqs
        n_pos = int(np.count_nonzero(freqs >= 0))  # numpy order: 0, 1, ..., then negatives

        def fn(beta_pts, alpha_pts):
            shape = np.broadcast_shapes(np.shape(beta_pts), np.shape(alpha_pts))
            bflat = np.broadcast_to(np.asarray(beta_pts, dtype=float), shape).ravel()
            aflat = np.broadcast_to(np.asarray(alpha_pts, dtype=float), shape).ravel()
            out = np.empty(bflat.shape, dtype=complex)
            for lo in range(0, len(out), _BLOCK):
                coeff = (plan.rows_at(aflat[lo:lo + _BLOCK]) @ spec_ri).view(complex)
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


def _beta_freqs(n: int) -> np.ndarray:
    """Integer frequencies of an n-point uniform grid, in numpy FFT order."""
    return np.fft.fftfreq(n, 1.0 / n).astype(int)


@dataclass
class DiskGrid(_Grid):
    """Samples of a complex function on a polar grid over the unit disk.

    values.shape = (n_rho, n_omega): rho holds Gauss-Legendre nodes on
    (0, 1), omega is uniform on [0, 2*pi); both are read-only properties.
    The measure tag, a field after kappa and values, selects the radial
    quadrature factor: "vol" integrates against the curved volume form
    (the flat area element at kappa = 0), "weighted" adds the w_kappa
    weight.
    """

    measure: str = "vol"
    _KIND, _AXES = "disk", "(n_rho, n_omega)"

    def __post_init__(self):
        if self.measure not in _MEASURES:
            raise ValueError(f"unknown measure tag {self.measure!r}; expected one of {_MEASURES}")
        super().__post_init__()

    def _rule(self):
        return _gauss_legendre(self.shape[0])

    @property
    def rho(self) -> np.ndarray:
        return 0.5 * (self._rule()[0] + 1.0)

    @property
    def rho_weights(self) -> np.ndarray:
        return 0.5 * self._rule()[1]

    @property
    def omega(self) -> np.ndarray:
        return np.arange(self.shape[1]) * TWO_PI / self.shape[1]

    def weights(self) -> np.ndarray:
        r = self.rho
        if self.measure == "vol":
            radial = r / (1.0 + self.kappa * r**2) ** 2
        else:
            radial = r / ((1.0 - self.kappa * r**2) * (1.0 + self.kappa * r**2))
        wo = TWO_PI / self.shape[1]
        return wo * (self.rho_weights * radial)[:, None] * np.ones(self.shape[1])[None, :]

    def points(self) -> np.ndarray:
        """Complex node positions rho_i e^{i omega_j}."""
        return self.rho[:, None] * np.exp(1j * self.omega[None, :])


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n
    (`leggauss` solves an eigenproblem) and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=64)
def _alpha_nodes(kappa: float, n_alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """The alpha nodes and weights of every n_alpha-node `BoundaryGrid` at
    kappa (see there), shared read-only; rejects a kappa outside (-1, 1)."""
    cp = CurvatureParam(kappa)
    x, w = _gauss_legendre(n_alpha)
    alpha = sig_inverse(0.5 * math.pi * x, cp)
    weights = 0.5 * math.pi * w / sig_prime(alpha, cp)
    alpha.setflags(write=False)
    weights.setflags(write=False)
    return alpha, weights


def boundary_grid(cp: CurvatureParam, n_beta: int = 128, n_alpha: int = 64) -> BoundaryGrid:
    """Empty sinogram grid for the given curvature (nodes: see `BoundaryGrid`)."""
    return BoundaryGrid(kappa=cp.kappa, values=np.zeros((n_beta, n_alpha), dtype=complex))


def disk_grid(cp: CurvatureParam, n_rho: int = 128, n_omega: int = 256, measure: str = "vol") -> DiskGrid:
    """Empty polar grid over the unit disk for the given curvature."""
    return DiskGrid(kappa=cp.kappa, values=np.zeros((n_rho, n_omega), dtype=complex), measure=measure)


def _check_kappa(grid, other):
    """Reject a grid built for another curvature than other (a grid or a
    CurvatureParam): read in the wrong geometry it gives a plausible number."""
    if grid.kappa != other.kappa:
        raise ValueError(f"grid kappa={grid.kappa} does not match {type(other).__name__} kappa={other.kappa}")


def _check_same(g1: _Grid, g2: _Grid):
    """Reject two grids that do not sample one space: another kind, kappa,
    shape or measure would pair values on different nodes or weights."""
    if type(g1) is not type(g2):
        raise ValueError(f"cannot pair a {type(g1).__name__} with a {type(g2).__name__}")
    _check_kappa(g1, g2)
    if g1.shape != g2.shape:
        raise ValueError(f"grids do not match: their nodes differ (shapes {g1.shape} and {g2.shape})")
    if getattr(g1, "measure", None) != getattr(g2, "measure", None):
        raise ValueError(f"disk grids do not match: their measures differ ({g1.measure} and {g2.measure})")


def inner(g1: _Grid, g2: _Grid) -> complex:
    """Hermitian inner product of two grids of one kind, kappa, shape and
    measure, conjugate-linear in g2: on the inward bundle against its
    surface measure, on the disk in the grids' tagged measure."""
    _check_same(g1, g2)
    return complex(np.sum(g1.weights() * g1.values * np.conj(g2.values)))


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------

def forward(f, beta, alpha, cp: CurvatureParam, n_nodes: int = 64):
    """X-ray transform of f at the inward boundary points (beta, alpha),
    by geodesic quadrature.

    f is a callable on the closed disk (vectorized over complex arrays).
    beta and alpha broadcast; the result has their broadcast shape, and
    scalar angles give a complex scalar.  An outward alpha is rejected
    and a tangential one integrates to 0.  Each chord [0, tau] is cut
    into P equal panels, P the fewest that keep the geometry's longest
    chord, the diameter exit_time(0), within `_PANEL_LENGTH`, with
    n_nodes // P (at least 4) Gauss-Legendre nodes on each; n_nodes must
    be an integer >= 1.  Every point takes that one rule and sums its own
    nodes alone, so its value does not depend on the batch it comes in,
    bit for bit.
    """
    n_nodes = operator.index(n_nodes)  # 64.5 would reach leggauss as a float
    if n_nodes < 1:
        raise ValueError(f"forward needs n_nodes >= 1, got {n_nodes}")
    beta, alpha = np.broadcast_arrays(np.asarray(beta, dtype=float),
                                      np.asarray(alpha, dtype=float))
    shape = beta.shape
    beta, alpha = beta.ravel(), alpha.ravel()
    tau = exit_time(alpha, cp)
    out = np.zeros(beta.shape, dtype=complex)
    if tau.size == 0:
        return out.reshape(shape)
    n_panels = max(1, math.ceil(float(exit_time(0.0, cp)) / _PANEL_LENGTH))
    per = max(4, n_nodes // n_panels)
    x, w = _gauss_legendre(per)
    for panel in range(n_panels):
        lo = tau * (panel / n_panels)
        hi = tau * ((panel + 1) / n_panels)
        half = 0.5 * (hi - lo)
        t = lo[:, None] + half[:, None] * (x[None, :] + 1.0)
        z = geodesic_point(beta[:, None], alpha[:, None], t, cp)
        vals = np.broadcast_to(np.asarray(f(z), dtype=complex), z.shape)
        bad = ~np.isfinite(vals)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(
                f"integrand returned {int(bad.sum())} non-finite value(s); "
                f"first at t={t[i, j]:.6g} (beta={beta[i]:.6g}, alpha={alpha[i]:.6g})"
            )
        out += half * (vals * w).sum(axis=1)  # row by row: a matmul's order follows the batch
    return out.reshape(shape)[()]


def sinogram(f, template: BoundaryGrid, n_nodes: int = 64) -> BoundaryGrid:
    """X-ray transform of f on the template grid, at its kappa: `forward`
    on `template.mesh()`, with `n_nodes` quadrature nodes along each chord.

    f is a callable on the disk (vectorized over complex arrays).  A
    coefficient table c needs no quadrature: by the SVD, the transform of
    w_kappa * sum c_{n,k} zernike_kappa_hat(n, k) is
    `synthesize` of the table c_{n,k} * singular_value(n) on the
    template, exact at every node, and f = 1 maps to the chord length
    `exit_time(alpha)` (the CLI's `forward` takes these two routes).
    Passed here as callables, e.g.
    z -> w_kappa(z) * basis.zernike_kappa_series(table, z, cp), they are
    integrated instead, which makes this the independent check of both
    routes.  Deterministic for fixed inputs.
    """
    if not callable(f):
        raise TypeError(
            f"sinogram needs a callable on the disk, not a {type(f).__name__}; "
            "a coefficient table maps exactly to synthesize(c_nk * singular_value(n)) "
            "on the template, or integrate it as the callable "
            "w_kappa * basis.zernike_kappa_series"
        )
    return template.with_values(forward(f, *template.mesh(), CurvatureParam(template.kappa), n_nodes))


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------

def adjoint_sharp(g, z, cp: CurvatureParam, n_theta: int = 512):
    """Fiber integral of g over footpoints: the distinguished adjoint.

    For each interior z integrates g(beta_-(z, theta), alpha_-(z, theta))
    over the full fiber circle with the n_theta-point trapezoid rule
    theta_j = 2 pi j / n_theta (the integrand is smooth and periodic, so
    this converges spectrally).  g is a callable on the inward bundle or
    a BoundaryGrid.

    A grid is summed through its beta spectrum, once per O(2) class of
    points rather than once per point.  The metric is radial, so the
    footpoint map commutes with rotations:

        alpha_-(rho e^{i omega}, theta) = alpha_-(rho, theta - omega),
        beta_-(rho e^{i omega}, theta) = beta_-(rho, theta - omega) + omega.

    Two points of one radius whose angles differ by a multiple of
    2 pi / n_theta therefore have the same fiber nodes, re-indexed: each
    point keeps its own n_theta nodes, and the sum over them is the same
    sum.  Per class of radius rho and offset delta from the theta nodes
    the fiber sum S_f = sum_j u_f(alpha_j) e^{i f beta_j} of each beta
    frequency f is formed once, and a point rho e^{i omega} of the class
    gets (2 pi / n_theta) sum_f S_f e^{i f (omega - delta)}.

    It commutes with the reflection z -> conj(z) as well: alpha_- and the
    fiber change are odd in theta - omega, so the footpoints of (rho,
    -delta) are those of (rho, delta) with (beta, alpha) -> (-beta,
    -alpha).  Every grid's alpha nodes are mirror-antisymmetric, so the
    barycentric rows at -alpha are those at alpha reversed, and classes
    are keyed on (rho, |delta|): the fiber is folded once at +|delta| and
    the fold of -|delta| is its conjugate with the alpha axis reversed.  A
    class with delta = 0 is its own mirror image, and its nodes
    0 .. n_theta/2 carry the sum.  Radii and offsets are grouped to a few
    rounding units.

    None of this depends on the values: the class folds are a plan of the
    geometry (`_AdjointPlan`, on the grid's shared `_FiberPlan`), built
    once per (kappa, n_beta, n_alpha, points, n_theta), memoised on the
    bytes of the points, never on identity or values, for the last four
    geometries.  A call with new values on a known geometry is one beta
    FFT, a few contractions over the kept folds and one sum per point.  A
    class keeps one fold of top x n_alpha (top = n_beta // 2 + 1), its
    mirror image is formed per call, and a class
    that is its own mirror image keeps half its alpha columns.  The plan
    keeps its folds when they fit in 8 MB (_PLAN_BYTES; 3.2 MB for the
    CLI-default 128x256 points on a 96x64 grid); past that it keeps only
    each point's class and mirror bit, and each call folds the fibers
    again, block by block.  Fiber nodes and points go through in fixed
    blocks, so the memory held and used is bounded whatever the point
    count.
    """
    n_theta = operator.index(n_theta)  # a float would space the nodes 2 pi / n_theta apart
    if n_theta < 1:
        raise ValueError(f"adjoint_sharp needs n_theta >= 1, got {n_theta}")
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError("adjoint_sharp requires finite points")
    rho = np.abs(z)
    if np.any(rho >= 1.0):
        raise ValueError("adjoint_sharp requires interior points, |z| < 1")
    if isinstance(g, BoundaryGrid):
        _check_kappa(g, cp)
        out = _adjoint_plan(g, z, n_theta).apply(g.values)
        return out.reshape(z.shape)[()]  # a scalar for a 0-d z, as below
    theta = np.arange(n_theta) * TWO_PI / n_theta
    bm, am = footpoint_angles(rho[..., None], np.angle(z)[..., None], theta, cp)
    vals = np.broadcast_to(np.asarray(g(bm, am), dtype=complex), bm.shape)
    return vals.mean(axis=-1) * TWO_PI


# grouping of radii (<= 1) and of angle offsets (<= pi): on polar grids
# the points of one class spread by up to 2 eps in radius, 7 eps in offset
_CLASS_TOL = 32 * np.finfo(float).eps


def _classes(key):
    """Labels 0, 1, ... of 1-d keys grouped in sorted order: a class
    starts where consecutive keys differ by more than _CLASS_TOL, and
    again every _CLASS_TOL past its first key, so no class spans more."""
    order = np.argsort(key, kind="stable")
    k = key[order]
    new = np.ones(len(k), dtype=bool)
    new[1:] = np.diff(k) > _CLASS_TOL
    first = k[np.maximum.accumulate(np.where(new, np.arange(len(k)), 0))]
    cell = np.floor((k - first) / _CLASS_TOL)
    new[1:] |= cell[1:] != cell[:-1]
    labels = np.empty(len(k), dtype=np.intp)
    labels[order] = np.cumsum(new) - 1
    return labels


def _powers(x, top):
    """x**m for m = 0 .. top - 1, one row per m, one column per entry of
    the 1-d x, by doubling: rows k .. 2k - 1 are rows 0 .. k - 1 times
    x**k."""
    p = np.empty((top, len(x)), dtype=complex)
    p[0] = 1.0
    k = 1
    while k < top:
        m = min(k, top - k)
        np.multiply(p[:m], p[k - 1] * x, out=p[k:k + m])
        k += m
    return p


# the largest fold storage an adjoint plan keeps: the CLI-default 128x256
# points on the 96x64 grid need 3.2 MB; past it the folds stream per call
_PLAN_BYTES = 8 * 2**20
# fiber nodes per block of a fold build: a streamed build runs on every
# call and wants few blocks; a kept build runs once, and its smaller
# temporaries leave less free heap resident beside the folds it keeps
_FOLD_NODES, _KEPT_FOLD_NODES = 512, 128
_SUM_POINTS = 256  # points per block of the output sum: bounds its gathered sums


class _AdjointPlan:
    """What grid-input `adjoint_sharp` needs of one geometry (a fiber
    plan, points, n_theta), never of values: the grid's `_FiberPlan`
    (barycentric rows, nodal spectrum), each point's class, mirror bit
    (delta < 0) and phase e^{i(omega -+ key)}, and the canonical fold at
    +key of every O(2) class (see there).  The classes rest on the
    mirror-antisymmetric alpha nodes that every grid has.

    With x = e^{i beta} the beta spectrum is two-sided,
    u = sum_m u_m x^m + conj(sum_m conj(u_-m) x^m) over 0 <= m < top, so
    only the powers x^m are needed.  A block of fiber nodes of a few
    classes gives their barycentric rows R (nodes x n_alpha) and powers
    X (top x nodes); the real matrix product of the re and im planes of X
    with R folds each class's nodes into F (top x n_alpha).  Contracted
    with the two halves of a nodal spectrum, F gives that class's S_m and
    conj(S_-m) (mirror 0), and its mirror image contracts conj(F) with the
    alpha axis reversed, never stored (mirror 1); a point reads the sums
    of its class and mirror bit.  A class that is its own mirror image
    folds nodes 0 .. n_theta/2 (weight 1/2 on theta = 0 and pi, which pair
    with themselves) and keeps the first ceil(n_alpha/2) columns of
    G = F + conj(F) reversed: G[m, n_alpha-1-a] = conj(G[m, a]); both of
    its contractions add into mirror 0, which all its points read.

    One generator yields the folds, a block of fiber nodes at a time.
    They are kept, read-only, when they fit in _PLAN_BYTES; past that each
    apply streams the generator again, so the memory held and used stays
    bounded whatever the point count.
    """

    def __init__(self, fiber: _FiberPlan, z: np.ndarray, n_theta: int):
        self.fiber = fiber
        self._top = fiber.n_beta // 2 + 1  # 1 + the largest |beta frequency|
        self._theta = np.arange(n_theta) * TWO_PI / n_theta
        rho, omega = np.abs(z), np.angle(z)

        step = TWO_PI / n_theta
        delta = omega - np.round(omega / step) * step  # offset from the nearest theta node
        delta[delta > 0.5 * step - _CLASS_TOL] -= step  # a half-step tie joins -step / 2
        delta[np.abs(delta) <= _CLASS_TOL] = 0.0  # on a node: exactly its own mirror image
        key = np.abs(delta)
        radius_class, phase_class = _classes(rho), _classes(key)
        _, first, cls = np.unique(radius_class * (phase_class.max(initial=-1) + 1) + phase_class,
                                  return_index=True, return_inverse=True)
        self._rho, self._key = rho[first], key[first]  # each class is folded at +key
        self._members = (np.flatnonzero(self._key != 0.0), np.flatnonzero(self._key == 0.0))  # full, half

        # each point reads the sums of its class's fold (mirror 0) or of that
        # fold's mirror image (mirror 1); an own-image class has delta 0
        self._cls, self._mirror = cls, (delta < 0).astype(np.intp)
        self._turn = np.exp(1j * (omega - np.where(self._mirror, -1.0, 1.0) * self._key[cls]))

        widths = (len(fiber.root), (len(fiber.root) + 1) // 2)
        size = sum(len(m) * w for m, w in zip(self._members, widths)) * self._top * 16
        self._folds = None  # stream them on every apply
        if size <= _PLAN_BYTES:
            kept = [np.empty((len(m), self._top, w), dtype=complex) for m, w in zip(self._members, widths)]
            for own, cs, fold in self._fold_blocks(_KEPT_FOLD_NODES):
                kept[own][np.searchsorted(self._members[own], cs)] = fold
            self._folds = tuple((own, m, f) for own, (m, f) in enumerate(zip(self._members, kept)) if len(m))
        for arr in (self._theta, self._rho, self._key, *self._members, self._cls, self._mirror,
                    self._turn, *(f for _, _, f in self._folds or ())):
            arr.setflags(write=False)

    def _fold_blocks(self, block_nodes: int):
        """(own, classes, folds): the folds of a block of classes, full
        (own 0) or the stored half of G (own 1), at most block_nodes fiber
        nodes at a time."""
        n_theta, top = len(self._theta), self._top
        half = np.arange(n_theta // 2 + 1)
        half_weights = np.where((half == 0) | (2 * half == n_theta), 0.5, 1.0)
        n_alpha = len(self.fiber.root)
        for own, members in enumerate(self._members):
            n_nodes = len(half_weights) if own else n_theta
            per = max(1, block_nodes // n_nodes)  # classes per block
            span = min(n_nodes, block_nodes)  # fiber nodes per block
            for c0 in range(0, len(members), per):
                cs = members[c0:c0 + per]
                fold = np.zeros((len(cs), top, n_alpha), dtype=complex)
                for j0 in range(0, n_nodes, span):
                    nodes = self._theta[j0:min(j0 + span, n_nodes)]
                    bm, am = footpoint_angles(self._rho[cs, None], self._key[cs, None], nodes, self.fiber.cp)
                    nc, nj = am.shape
                    rows = self.fiber.rows_at(am.ravel()).reshape(nc, nj, -1)
                    if own:
                        rows *= half_weights[j0:j0 + nj, None]
                    x = _powers(np.exp(1j * bm.ravel()), top)
                    planes = np.stack((x.real, x.imag)).reshape(2 * top, nc, nj).transpose(1, 0, 2)
                    folded = np.matmul(planes, rows)  # (class, re/im and m, alpha node)
                    del rows, x, planes  # before the next block allocates its own
                    fold.real += folded[:, :top]
                    fold.imag += folded[:, top:]
                if own:
                    w = (n_alpha + 1) // 2
                    fold = fold[:, :, :w] + fold[:, :, ::-1][:, :, :w].conj()
                yield own, cs, fold

    def apply(self, values: np.ndarray) -> np.ndarray:
        """`adjoint_sharp` of grid values (n_beta x n_alpha) at the plan's
        points, flat: one beta FFT, one contraction per block of folds and
        one blocked sum over the points."""
        n_alpha, freqs = values.shape[1], self.fiber.freqs
        spec = self.fiber.spectrum(values)
        up = freqs >= 0
        halves = np.zeros((2, self._top, n_alpha), dtype=complex)
        halves[0, freqs[up]] = spec[up]
        halves[1, -freqs[~up]] = spec[~up].conj()
        mirror = halves[:, :, ::-1].conj()  # conj(F) reversed against halves = conj(F against mirror)

        # sums[mirror, pos/neg, class, m]; an own-image class adds both into mirror 0
        sums = np.zeros((2, 2, len(self._rho), self._top), dtype=complex)
        for own, cs, fold in self._folds if self._folds is not None else self._fold_blocks(_FOLD_NODES):
            direct = np.einsum("cma,sma->scm", fold, halves[:, :, :fold.shape[2]])
            # a half of G contracts its conjugate mirror image past the stored columns
            width = n_alpha // 2 if own else n_alpha
            flipped = np.einsum("cma,sma->scm", fold[:, :, :width], mirror[:, :, :width]).conj()
            if own:
                sums[0][:, cs] = direct + flipped
            else:
                sums[0][:, cs], sums[1][:, cs] = direct, flipped

        out = np.empty(len(self._cls), dtype=complex)
        for lo in range(0, len(out), _SUM_POINTS):
            p = slice(lo, lo + _SUM_POINTS)
            y = _powers(self._turn[p], self._top)
            pos, neg = np.einsum("psm,mp->sp", sums[self._mirror[p], :, self._cls[p]], y)
            out[p] = pos + neg.conj()
        return out * (TWO_PI / len(self._theta))


@lru_cache(maxsize=4)
def _cached_adjoint_plan(kappa: float, shape: tuple, z: bytes, n_theta: int) -> _AdjointPlan:
    return _AdjointPlan(_cached_plan(kappa, *shape), np.frombuffer(z, dtype=complex), n_theta)


def _adjoint_plan(g: BoundaryGrid, z: np.ndarray, n_theta: int) -> _AdjointPlan:
    """The adjoint plan of g's geometry at the points z, built once per
    (kappa, n_beta, n_alpha, points, n_theta) on the grid's shared fiber
    plan: the points are keyed on bytes, so a caller's array changed in
    place is a new key."""
    return _cached_adjoint_plan(g.kappa, g.shape, np.asarray(z, dtype=complex).tobytes(), n_theta)


# ---------------------------------------------------------------------------
# SVD: analysis, synthesis, inversion
# ---------------------------------------------------------------------------

def singular_value(n: int, cp: CurvatureParam) -> float:
    """sigma_n = 2 sqrt(pi) / (sqrt(1-kappa) sqrt(n+1)); independent of k."""
    if n < 0:
        raise ValueError("singular_value requires n >= 0")
    return 2.0 * math.sqrt(math.pi) / (math.sqrt(1.0 - cp.kappa) * math.sqrt(n + 1))


# largest max |G - I| the discrete Gram matrix of a band of range modes
# may show: 1.3e-7 at nmax 31 on 64 alpha nodes would pass as cross-talk
GRAM_TOL = 1e-9


class _FiberPlan:
    """What every grid path needs of one boundary geometry (kappa, n_beta,
    n_alpha), never of values: the one home of its "beta-Fourier x
    barycentric-in-s" fiber.  Every grid path works in one space, the
    beta spectrum of u / sqrt(sig') on the Gauss-Legendre rule in
    s = sig(alpha): `spectrum` takes grid values there and `from_spectrum`
    brings them back.  The plan holds s and sqrt(sig') at the grid's
    alpha nodes (`s`, `root`), the Gauss-Legendre weights of the rule in
    s (`w`), the beta frequencies (`freqs`), barycentric rows in s
    (`rows_at`) and the alpha-major spectrum (`nodal`).

    psi_hat(n, k) is e^{i f beta} sqrt(sig') / c times its fiber
    (`fibers`), a phase of its beta bin f = n - 2k times a real profile
    of its degree alone (`profiles`):

        e^{i f s} (-i)^(n mod 2) p_n(s),   p_n = cos((n+1)s), n even,
                                           p_n = sin((n+1)s), n odd,

    with the one scalar c = pi / sqrt(1+kappa).  In the spectrum the
    grid's inner product is pi^2 / (1+kappa) sum_f sum_j w_j u_f conj(v_f)
    (`norm`).  On the uniform beta grid modes in different bins are
    orthogonal; within a bin the phase cancels, so the Gram entry of
    degrees n, n' of one parity is sum_j w_j p_n p_n', the same in every
    bin and free of kappa.  Built on first use, so paths that only
    interpolate never pay for them: the Gram deviation max |G - I| of
    each band n <= N (`gram[N]`, N < n_beta/2 and at most n_alpha), the
    largest band within GRAM_TOL (`band`), and the range basis of that
    band (`_range_basis`), from which `project` applies the exact
    orthogonal projector onto the resolved range in every bin at once.
    """

    def __init__(self, kappa: float, n_beta: int, n_alpha: int):
        self.cp = CurvatureParam(kappa)
        self.n_beta = n_beta
        alpha, _ = _alpha_nodes(kappa, n_alpha)
        self.w = _gauss_legendre(n_alpha)[1]
        self.s, self.root = sig(alpha, self.cp), np.sqrt(sig_prime(alpha, self.cp))
        self.freqs = _beta_freqs(n_beta)
        self._scale = math.pi / math.sqrt(1.0 + kappa)
        for arr in (self.s, self.root, self.freqs):
            arr.setflags(write=False)

    @cached_property
    def _bary(self) -> np.ndarray:
        """Barycentric weights of the Gauss-Legendre nodes s = pi x / 2,
        the closed form (-1)^j sqrt((1 - x_j^2) w_j), built on the first
        `rows_at`."""
        weights = np.sqrt((1.0 - _gauss_legendre(len(self.w))[0] ** 2) * self.w)
        weights[1::2] *= -1.0
        weights.setflags(write=False)
        return weights

    def rows_at(self, alpha) -> np.ndarray:
        """Barycentric rows in s at the 1-d fiber angles alpha with
        sqrt(sig') restored: for samples u at the nodes, rows_at(a) @
        (u / sqrt(sig')) is u at a."""
        rows = np.subtract.outer(sig(alpha, self.cp), self.s)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(self._bary, rows, out=rows)  # in place: a fresh array costs page faults
            total = rows.sum(axis=1)
        hit = np.isinf(total)  # target on a node: that node's sample, exactly
        rows[hit] = np.isinf(rows[hit])
        total[hit] = 1.0
        rows *= (np.sqrt(sig_prime(alpha, self.cp)) / total)[:, None]
        return rows

    def spectrum(self, values: np.ndarray) -> np.ndarray:
        """FFT over beta / n_beta of values / sqrt(sig'), n_beta x n_alpha."""
        return np.fft.fft(values / self.root, axis=0) / self.n_beta

    def from_spectrum(self, spec: np.ndarray) -> np.ndarray:
        """Grid values of a spectrum: the inverse of `spectrum`."""
        return self.root * np.fft.ifft(spec, axis=0, norm="forward")

    def norm(self, spec: np.ndarray) -> float:
        """The grid norm of a spectrum's values, by Parseval."""
        return self._scale * float(np.linalg.norm(spec * np.sqrt(self.w)))

    def nodal(self, values: np.ndarray) -> np.ndarray:
        """`spectrum` alpha-major, re/im interleaved: rows_at(a) @ nodal(v),
        viewed as complex, is the spectrum at a in one real product."""
        return np.ascontiguousarray(self.spectrum(values).T).view(float)

    @cached_property
    def gram(self) -> np.ndarray:
        top = min((self.n_beta - 1) // 2, len(self.s))  # the largest candidate band
        n = np.arange(top + 1)
        profiles = self.profiles(n)
        gram = (profiles * self.w) @ profiles.T
        # degrees n >= n' of one parity share a bin: their entry counts from band n on
        shared = ((n[:, None] - n) % 2 == 0) & (n[:, None] >= n)
        dev = np.maximum.accumulate(np.where(shared, np.abs(gram - np.eye(top + 1)), 0.0).max(axis=1))
        dev.setflags(write=False)
        return dev

    @cached_property
    def band(self) -> int:
        return int(np.count_nonzero(self.gram <= GRAM_TOL)) - 1

    @cached_property
    def _range_basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(q, mask, phase) of the band, built on the first projection.
        q holds, per degree parity, an orthonormal basis of the
        sqrt(w)-scaled profiles of the band's degrees in descending order
        (one real QR each), so the range modes n = |f|, |f| + 2, ... of
        bin f span a column prefix of its parity's block.  mask[f, j]
        selects those columns (none for a bin past the band), and
        phase[f] is the bin phase e^{i f s}; both have a row per bin in
        numpy FFT order."""
        blocks = [np.arange(self.band - (self.band - parity) % 2, -1, -2) for parity in (0, 1)]
        q = np.hstack([np.linalg.qr((self.profiles(d) * np.sqrt(self.w)).T)[0] for d in blocks])
        degrees, f = np.concatenate(blocks), self.freqs[:, None]
        mask = ((degrees - f) % 2 == 0) & (degrees >= np.abs(f))
        phase = np.exp(1j * f * self.s)
        for arr in (q, mask, phase):
            arr.setflags(write=False)
        return q, mask, phase

    def gram_deviation(self, nmax: int) -> float:
        """max |G - I| over the range modes n <= nmax; inf past the
        candidate bands."""
        return float(self.gram[nmax]) if nmax < len(self.gram) else math.inf

    def profiles(self, n: np.ndarray) -> np.ndarray:
        """The real profiles p_n at the nodes s, one row per degree."""
        arg = np.outer(n + 1, self.s)
        return np.where((n % 2 == 0)[:, None], np.cos(arg), np.sin(arg))

    def fibers(self, n, k) -> np.ndarray:
        """The kappa-free fibers of psi_hat(n, k) at the nodes s, one row
        per mode."""
        n, k = np.asarray(n, dtype=int), np.asarray(k, dtype=int)
        return np.exp(1j * np.outer(n - 2 * k, self.s)) * np.where(n % 2, -1j, 1.0)[:, None] * self.profiles(n)

    def inner(self, values: np.ndarray, n, k) -> np.ndarray:
        """<g, psi_hat(n, k)> for grid values g, one per mode."""
        rows = (np.asarray(n) - 2 * np.asarray(k)) % self.n_beta
        return (self.spectrum(values)[rows] * self.fibers(n, k).conj()) @ (self.w * self._scale)

    def synthesize(self, n, k, coeffs) -> np.ndarray:
        """Grid values of sum c psi_hat(n, k): each mode into its beta bin
        of one spectrum."""
        spec = np.zeros((self.n_beta, len(self.w)), dtype=complex)
        rows = (np.asarray(n) - 2 * np.asarray(k)) % self.n_beta
        np.add.at(spec, rows, np.asarray(coeffs)[:, None] * self.fibers(n, k) / self._scale)
        return self.from_spectrum(spec)

    def project(self, spec: np.ndarray) -> np.ndarray:
        """Orthogonal projection of a spectrum onto the range modes of the
        band: in every bin at once, its phase taken off, the masked
        q q^T of its parity applied and the phase put back."""
        q, mask, phase = self._range_basis
        sqrt_w = np.sqrt(self.w)
        return ((spec * phase.conj() * sqrt_w) @ q * mask) @ q.T * (phase / sqrt_w)


@lru_cache(maxsize=16)
def _cached_plan(kappa: float, n_beta: int, n_alpha: int) -> _FiberPlan:
    return _FiberPlan(kappa, n_beta, n_alpha)


def _fiber_plan(g: BoundaryGrid) -> _FiberPlan:
    """The fiber plan of g's geometry, built once per (kappa, n_beta,
    n_alpha) and shared by every grid path; `plan.cp` is g's curvature."""
    return _cached_plan(g.kappa, *g.shape)


def analyze(g: BoundaryGrid, nmax: int) -> basis.CoeffTable:
    """Coefficients of g against the normalized boundary singular functions.

    Returns the table of inner products <g, psi_hat_{n,k}> for
    0 <= k <= n <= nmax.  Rejects band limits the grid cannot resolve:
    the beta frequencies n - 2k in [-nmax, nmax] need nmax < n_beta/2, or
    a mode would be read from an aliased FFT bin, and the modes must be
    orthonormal on the alpha nodes to within GRAM_TOL, or each
    coefficient would carry cross-talk from its neighbours.
    """
    if nmax < 0:
        raise ValueError("analyze requires nmax >= 0")
    if 2 * nmax >= g.shape[0]:
        raise ValueError(
            f"band limit nmax={nmax} not resolvable on {g.shape[0]} beta nodes"
        )
    plan = _fiber_plan(g)
    dev = plan.gram_deviation(nmax)
    if not dev <= GRAM_TOL:
        raise ValueError(
            f"band limit nmax={nmax} not resolvable on {g.shape[1]} alpha nodes: "
            f"Gram deviation {dev:.1e} exceeds {GRAM_TOL:.0e}"
        )
    modes = [(n, k) for n in range(nmax + 1) for k in range(n + 1)]
    inner = plan.inner(g.values, *np.array(modes).T)
    return basis.CoeffTable(nmax=nmax, entries=dict(zip(modes, inner.tolist())))


def synthesize(table: basis.CoeffTable, template):
    """Evaluate a coefficient table on a grid, at the grid's kappa.

    On a BoundaryGrid the basis is psi_kappa_hat: each mode adds c times
    its fiber factor into beta bin (n - 2k) % n_beta, and one inverse FFT
    over beta gives the samples.  On a DiskGrid it is zernike_kappa_hat
    (which requires 0 <= k <= n).  The radial map keeps the angle, so
    Z_hat_{n,k}(rho e^{i omega}) = Z_hat_{n,k}(rho) e^{i m omega} with
    m = n - 2k: the per-order radial sums R_m of the modes are taken at
    the real radii (the recurrence behind every Zernike evaluation), and
    the samples are the direct product R (n_rho x #m) @ e^{i m omega}
    (#m x n_omega), exact for any omega nodes.
    `basis.zernike_kappa_series` at the grid's points is the point-wise
    oracle.  Returns a grid of the same kind.
    """
    items = table.items()
    if isinstance(template, BoundaryGrid):
        n, k = np.array([nk for nk, _ in items], dtype=int).reshape(-1, 2).T
        coeffs = np.array([c for _, c in items], dtype=complex)
        return template.with_values(_fiber_plan(template).synthesize(n, k, coeffs))
    if isinstance(template, DiskGrid):
        ms, radial = basis._radial_sums(items, template.rho, template.kappa)
        return template.with_values(radial.T @ np.exp(1j * np.outer(ms, template.omega)))
    raise TypeError(f"cannot synthesize onto {type(template).__name__}")


@dataclass
class InversionResult:
    """Truncated-SVD reconstruction plus diagnostics.

    recon holds w_kappa * sum (c_{n,k}/sigma_n) Z_hat on the disk grid;
    coeffs are the disk-side coefficients c_{n,k}/sigma_n; residual is the
    data-space misfit of the fitted band relative to ||g||;
    discarded_energy sums |c|^2 over analyzed-but-rejected modes;
    gram_deviation is max |G - I| of the analyzed band on the grid.
    """

    recon: DiskGrid
    coeffs: basis.CoeffTable
    accepted: list
    residual: float
    discarded_energy: float
    sigma_min: float
    noise_amplification_bound: float
    gram_deviation: float


def invert(
    g: BoundaryGrid,
    nmax: int,
    disk_template: DiskGrid | None = None,
    sigma_cutoff: float | None = None,
) -> InversionResult:
    """Invert a sinogram by dividing out the singular values.

    Hard truncation at nmax by default; with sigma_cutoff, modes whose
    singular value falls below the cutoff are discarded as well.  An
    empty accepted set is an error.  The disk template (by default
    `disk_grid` at g's kappa) must share g's kappa.
    """
    plan = _fiber_plan(g)
    template = disk_template if disk_template is not None else disk_grid(plan.cp)
    _check_kappa(g, template)
    c = analyze(g, nmax)
    accepted = []
    f_table = basis.CoeffTable(nmax=nmax)
    discarded = 0.0
    for (n, k), val in c.items():
        s = singular_value(n, plan.cp)
        if sigma_cutoff is not None and s < sigma_cutoff:
            discarded += abs(val) ** 2
            continue
        accepted.append((n, k))
        f_table[(n, k)] = val / s
    if not accepted:
        raise ValueError("no singular values above the cutoff; nothing to invert")

    n, k = np.array(accepted).T
    misfit = g.with_values(g.values - plan.synthesize(n, k, [c[nk] for nk in accepted]))
    gnorm = g.norm()
    residual = misfit.norm() / gnorm if gnorm > 0 else 0.0

    recon = synthesize(f_table, template)
    recon.values *= basis.w_kappa(template.rho, plan.cp)[:, None]

    sig_min = min(singular_value(n, plan.cp) for (n, k) in accepted)
    return InversionResult(
        recon=recon,
        coeffs=f_table,
        accepted=accepted,
        residual=residual,
        discarded_energy=discarded,
        sigma_min=sig_min,
        noise_amplification_bound=1.0 / sig_min,
        gram_deviation=plan.gram_deviation(nmax),
    )
