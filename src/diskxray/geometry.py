"""Geometry of the constant-curvature disk models.

The closed unit disk carries the conformal metric c(z)^{-2} |dz|^2 with
c(z) = 1 + kappa |z|^2, of Gauss curvature 4*kappa, for a fixed parameter
kappa in (-1, 1).  Negative kappa gives a hyperbolic-type disk, positive
kappa a spherical cap, kappa = 0 the Euclidean disk.

Boundary phase space uses fan-beam coordinates (beta, alpha): the base
point is e^{i beta} on the unit circle and alpha is the angle of the
tangent vector measured from the inward normal, so |alpha| <= pi/2 means
the vector points into the disk.  A boundary point is the angle pair
itself: (beta, alpha), like every interior point, direction and
arclength here (`isometry_from_tangent` included), is given as scalars
or numpy arrays that broadcast.  `exit_time` and `geodesic_point` wrap
alpha and reject an outward one.

All operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

# slack used when validating angles/times against closed ranges
ANGLE_TOL = 1e-9


def wrap_two_pi(x):
    """Reduce angles to [0, 2*pi)."""
    return np.mod(x, TWO_PI)


def wrap_pi(x):
    """Reduce angles to [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + np.pi, TWO_PI) - np.pi


@dataclass(frozen=True)
class CurvatureParam:
    """Curvature parameter kappa in (-1, 1) and derived constants.

    lam = (1 - kappa) / (1 + kappa) controls the spread of scattered
    geodesics.
    """

    kappa: float
    lam: float = field(init=False)

    def __post_init__(self):
        k = float(self.kappa)
        if not -1.0 < k < 1.0:
            raise ValueError(f"kappa must lie strictly in (-1, 1), got {k!r}")
        object.__setattr__(self, "kappa", k)
        object.__setattr__(self, "lam", (1.0 - k) / (1.0 + k))


@dataclass(frozen=True)
class MoebiusMap:
    """Disk-model isometry z -> (a z + b) / (-kappa conj(b) z + conj(a)).

    The pair (a, b) is normalized so that |a|^2 + kappa |b|^2 = 1.  a and
    b may be arrays of one shape, a family of maps applied elementwise.
    """

    a: complex
    b: complex
    kappa: float

    def __post_init__(self):
        dev = np.abs(np.abs(self.a) ** 2 + self.kappa * np.abs(self.b) ** 2 - 1.0)
        if not np.all(dev <= 1e-9):
            raise ValueError(
                f"isometry normalization violated: ||a|^2 + kappa |b|^2 - 1| = {np.max(dev)!r}"
            )

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return (self.a * z + self.b) / (-self.kappa * np.conj(self.b) * z + np.conj(self.a))

    def deriv(self, z):
        """Complex derivative T'(z)."""
        z = np.asarray(z, dtype=complex)
        return 1.0 / (-self.kappa * np.conj(self.b) * z + np.conj(self.a)) ** 2


def conformal_factor(z, cp: CurvatureParam):
    """Conformal factor c(z) = 1 + kappa |z|^2 of the metric c^{-2} |dz|^2."""
    z = np.asarray(z, dtype=complex)
    return 1.0 + cp.kappa * (z.real**2 + z.imag**2)


def isometry_from_tangent(z1, theta, cp: CurvatureParam) -> MoebiusMap:
    """Unique model isometry taking (0, 1) to the unit tangent vector at z1.

    The returned map T satisfies T(0) = z1 and T'(0) = c(z1) e^{i theta},
    i.e. it moves the base point 0 with horizontal unit direction onto the
    unit tangent vector at z1 with direction angle theta.  Arrays z1 and
    theta broadcast to one map per point.
    """
    z1 = np.asarray(z1, dtype=complex)
    if np.any(np.abs(z1) > 1.0 + ANGLE_TOL):
        raise ValueError(
            f"base point must lie in the closed unit disk, got |z1| = {np.max(np.abs(z1))}"
        )
    scale = 1.0 / np.sqrt(1.0 + cp.kappa * np.abs(z1) ** 2)
    half = np.exp(0.5j * np.asarray(theta, dtype=float))
    return MoebiusMap(a=scale * half, b=scale * z1 / half, kappa=cp.kappa)


def _profile(t, cp: CurvatureParam):
    """Radius along the horizontal unit-speed geodesic through the origin."""
    t = np.asarray(t, dtype=float)
    k = cp.kappa
    if k == 0.0:
        return t + 0.0
    r = math.sqrt(abs(k))
    if k > 0.0:
        return np.tan(r * t) / r
    return np.tanh(r * t) / r


def exit_time(alpha, cp: CurvatureParam):
    """First exit time of the geodesic entering with fan-beam angle alpha.

    Tangential directions alpha = +-pi/2 give zero; alpha outside the
    closed inward range is rejected.
    """
    a = wrap_pi(alpha)
    if np.any(np.abs(a) > HALF_PI + ANGLE_TOL):
        raise ValueError("exit_time requires an inward direction, |alpha| <= pi/2")
    x = 2.0 * np.maximum(np.cos(a), 0.0) / (1.0 - cp.kappa)
    k = cp.kappa
    if k == 0.0:
        tau = x
    elif k > 0.0:
        r = math.sqrt(k)
        tau = np.arctan(r * x) / r
    else:
        r = math.sqrt(-k)
        tau = np.arctanh(r * x) / r
    return tau


def geodesic_point(beta, alpha, t, cp: CurvatureParam):
    """Point gamma(t) on the unit-speed geodesic entering at (beta, alpha).

    gamma(0) = e^{i beta}; gamma(exit_time) lies on the boundary again.
    Arguments broadcast; t must stay within [0, exit_time(alpha)].
    """
    beta = np.asarray(beta, dtype=float)
    a = wrap_pi(alpha)
    t = np.asarray(t, dtype=float)
    tau = exit_time(a, cp)
    tol = ANGLE_TOL * (1.0 + np.max(tau, initial=0.0))
    bad = (t < -tol) | (t > tau + tol)
    if np.any(bad):
        worst = np.max(np.where(bad, np.abs(t - np.clip(t, 0.0, tau)), 0.0))
        raise ValueError(
            f"arclength t outside [0, exit_time] by up to {worst:.3e}"
        )
    w = np.exp(1j * a) * _profile(np.clip(t, 0.0, tau), cp)
    return np.exp(1j * beta) * (1.0 - w) / (1.0 + cp.kappa * w)


def geodesic_velocity(beta, alpha, t, cp: CurvatureParam):
    """Velocity dgamma/dt of the geodesic of `geodesic_point`.

    Its modulus equals the conformal factor at gamma(t) (unit g-speed),
    and its argument is the direction angle of the tangent vector.
    """
    beta = np.asarray(beta, dtype=float)
    a = wrap_pi(alpha)
    z = _profile(np.asarray(t, dtype=float), cp)
    k = cp.kappa
    ph = np.exp(1j * a)
    return -np.exp(1j * beta) * ph * (1.0 + k) * (1.0 + k * z**2) / (1.0 + k * ph * z) ** 2


def _sig(a, lam):
    """Continuous branch of arctan(lam tan a), for lam > 0 broadcasting with a.

    atan2(lam sin a, cos a) is that branch modulo 2 pi, and the multiple of
    2 pi added in place keeps it within pi of a (the branch stays within
    pi/2).  No term is subtracted from another, so small results keep their
    relative accuracy at every lam; where lam = 1 the result is a, bit for bit.
    """
    s = np.asarray(np.arctan2(lam * np.sin(a), np.cos(a)))
    turns = np.asarray(a - s)  # one array, then in place: no further full-size temporaries
    turns /= TWO_PI
    np.rint(turns, out=turns)
    turns *= TWO_PI
    s += turns
    np.copyto(s, a, where=lam == 1.0)
    return s[()]


def _sig_prime(a, lam):
    """Derivative of `_sig`, lam / (cos^2 a + lam^2 sin^2 a): a sum of terms of
    one sign, exactly 1 where lam = 1."""
    sp = np.asarray(lam / (np.square(np.cos(a)) + np.square(lam) * np.square(np.sin(a))))
    np.copyto(sp, 1.0, where=lam == 1.0)
    return sp[()]


def sig(alpha, cp: CurvatureParam):
    """Scattering signature: continuous branch of arctan(lam * tan(alpha)).

    Odd, strictly increasing, with sig(0) = 0 and sig(alpha + pi) =
    sig(alpha) + pi; accurate relative to the result, small ones included,
    at every kappa, and the identity at kappa = 0.
    """
    return _sig(np.asarray(alpha, dtype=float), cp.lam)


def sig_prime(alpha, cp: CurvatureParam):
    """Derivative of the scattering signature, lam / (cos^2 a + lam^2 sin^2 a),
    which equals (1 - k^2) / (1 + k^2 + 2k cos 2a)."""
    return _sig_prime(np.asarray(alpha, dtype=float), cp.lam)


def sig_inverse(alpha, cp: CurvatureParam):
    """Inverse of the scattering signature: sig at opposite curvature, the
    continuous branch of arctan(tan(alpha) / lam), as accurate as sig."""
    return sig(alpha, CurvatureParam(-cp.kappa))


def scattering_angles(beta, alpha, cp: CurvatureParam):
    """Scattering relation on angles: (beta, alpha) -> exit point and direction.

    Valid on the whole boundary circle bundle (it is an involution there);
    returns (beta', alpha') with beta' in [0, 2*pi), alpha' in [-pi, pi).
    """
    beta = np.asarray(beta, dtype=float)
    a = np.asarray(alpha, dtype=float)
    return wrap_two_pi(beta + np.pi + 2.0 * sig(a, cp)), wrap_pi(np.pi - a)


def antipodal_scattering_angles(beta, alpha, cp: CurvatureParam):
    """Scattering relation composed with the fiberwise antipodal map.

    Kept, though only tests call it: it is the paper's S_A (`sa_pullback` applies it on grids)."""
    return scattering_angles(beta, alpha, cp)[0], wrap_pi(-np.asarray(alpha, dtype=float))


def fiber_change(rho, theta, cp: CurvatureParam):
    """Fiber angle substitution theta -> theta' and its jacobian.

    theta' is the scattering signature at curvature kappa rho^2: the
    continuous branch of arctan(lam_rho tan theta) with lam_rho =
    (1 - kappa rho^2) / (1 + kappa rho^2), and the jacobian d theta'/d theta
    is its strictly positive derivative.
    """
    rho = np.asarray(rho, dtype=float)
    # 1 -+ kappa rho^2 as sums of terms of one sign: no cancellation as kappa rho^2 -> +-1
    flat, r2 = (1.0 - rho) * (1.0 + rho), rho * rho
    lam = flat + (1.0 - cp.kappa) * r2
    lam /= flat + (1.0 + cp.kappa) * r2
    th = np.asarray(theta, dtype=float)
    return _sig(th, lam), _sig_prime(th, lam)


def footpoint_angles(rho, omega, theta, cp: CurvatureParam):
    """Fan-beam coordinates of the geodesic through the interior point.

    Given (rho e^{i omega}, theta) in the interior circle bundle, returns
    (beta_-, alpha_-): the entry point and entry angle of the unique
    geodesic through that point with direction theta.  Closed form; the
    returned alpha_- lies in [-pi/2, pi/2].
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho >= 1.0) or np.any(rho < 0.0):
        raise ValueError("footpoint requires an interior radius 0 <= rho < 1")
    om = np.asarray(omega, dtype=float)
    th = np.asarray(theta, dtype=float) - om
    k = cp.kappa
    s = -(1.0 + k) * rho * np.sin(th) / (1.0 + k * rho**2)
    alpha_m = np.arcsin(np.clip(s, -1.0, 1.0))
    thp, _ = fiber_change(rho, th, cp)
    beta_m = thp - np.pi - sig(alpha_m, cp) + om
    return wrap_two_pi(beta_m), alpha_m
