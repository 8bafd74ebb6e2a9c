"""Special-function families on the disk and on the inward boundary bundle.

Disk side: complex Zernike polynomials Z_{n,k} (convention Z_{n,0} = z^n,
boundary values (-1)^k e^{i(n-2k) omega}) and their curvature-deformed
versions Z^kappa_{n,k}, which are the right singular functions of the
X-ray transform in the weighted disk space.

Boundary side: the pure phases e_{p,l}, the sqrt(sig')-weighted family
phi'_{p,q} and its symmetrized combinations u'_{p,q}, v'_{p,q}, and the
functions psi^kappa_{n,k} which are the left singular functions (and, for
k outside [0, n], span the co-kernel / moment conditions).

Index conventions: the boundary family uses (p, q) in Z^2; the singular
pairs use (n, k) with n >= 0, related by (p, q) = (n - 2k, n - k).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .geometry import CurvatureParam, sig, sig_prime

_FOUR_PI = 4.0 * math.pi
_SERIES_BLOCK = 8192  # points per pass of zernike_kappa_series: bounds its temporaries


class _NonFiniteValues(ValueError):
    """Sample values or coefficients holding NaN or inf: bad data rather
    than a bad grid or index."""


# ---------------------------------------------------------------------------
# index bookkeeping
# ---------------------------------------------------------------------------

def nk_to_pq(n: int, k: int) -> tuple[int, int]:
    """Re-index a singular pair (n, k) as a boundary pair (p, q) = (n-2k, n-k).

    Kept, though only tests and demo 02 call it: it is the paper's index map."""
    return n - 2 * k, n - k


def pq_to_nk(p: int, q: int) -> tuple[int, int]:
    """Inverse of `nk_to_pq`: (n, k) = (2q - p, q - p).

    Kept, though only tests and demo 02 call it: it is the paper's index map."""
    return 2 * q - p, q - p


@dataclass
class CoeffTable:
    """Complex coefficients indexed by integers (n, k), band-limited at
    an integer nmax >= 0 (numpy integers count and are stored as ints;
    2.5 is rejected, not truncated).

    Iteration over `items()` is deterministic (lexicographic in (n, k)).
    """

    nmax: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        self.nmax = operator.index(self.nmax)
        if self.nmax < 0:
            raise ValueError(f"band limit nmax must be >= 0, got {self.nmax}")
        self.entries = {self._key(nk, value): value for nk, value in self.entries.items()}

    def _key(self, nk, value) -> tuple[int, int]:
        """(n, k) as ints, once the index and the value pass their checks."""
        n, k = map(operator.index, nk)
        if n < 0 or n > self.nmax:
            raise ValueError(f"index ({n},{k}) outside band limit nmax={self.nmax}")
        if not cmath.isfinite(complex(value)):
            raise _NonFiniteValues(f"coefficient ({n},{k}) is {value}, not finite")
        return n, k

    def __getitem__(self, nk):
        return self.entries.get(tuple(nk), 0.0 + 0.0j)

    def __setitem__(self, nk, value):
        self.entries[self._key(nk, value)] = complex(value)

    def items(self):
        return [(nk, self.entries[nk]) for nk in sorted(self.entries)]


# ---------------------------------------------------------------------------
# Chebyshev-type family W_n
# ---------------------------------------------------------------------------

def _cheb_u(n: int, t) -> np.ndarray:
    """Chebyshev polynomial of the second kind U_n(t), by the real
    recurrence U_{n+1} = 2t U_n - U_{n-1}; the paper's W_n is i^n U_n."""
    t = np.asarray(t, dtype=float)
    u_prev, u = np.ones(t.shape), 2.0 * t
    if n == 0:
        return u_prev
    for _ in range(n - 1):
        u_prev, u = u, 2.0 * t * u - u_prev
    return u


# ---------------------------------------------------------------------------
# Zernike polynomials, plain and curvature-deformed
# ---------------------------------------------------------------------------

def _radial_sums(items, z, kappa: float, normalized: bool = True):
    """Per-order radial sums of a deformed-Zernike series at the points z.

    Each point is mapped once to w = (1-kappa) z / (1-kappa|z|^2); a point
    whose image lies outside the closed unit disk by more than 1e-6 is
    rejected and the rest are clamped onto it.  For each angular order m
    = n - 2k among the entries ((n, k), c) of `items` the sum of

        c (-1)^k s_n R^{|m|}_n(|w|),   s_n = sqrt((n+1)(1-kappa^2)/pi)

    is formed (s_n = 1 when not `normalized`) and multiplied by the kappa
    weight sqrt((1-kappa)/(1+kappa)) (1+kappa|z|^2)/(1-kappa|z|^2), so that
    R_{n,k} = (-1)^k R^{|m|}_n.  R^a_n, the classical radial polynomial
    with R^a_n(1) = 1, runs the three-term recurrence in n at fixed a
    (Kintner):

        R^a_a = rho^a,  R^a_{a+2} = ((a+2) rho^2 - (a+1)) rho^a,
        K1 R^a_n = (K2 rho^2 + K3) R^a_{n-2} + K4 R^a_{n-4},

    K1 = (n+a)(n-a)(n-2)/2, K2 = 2n(n-1)(n-2), K3 = -a^2(n-1) - n(n-1)(n-2),
    K4 = -n(n+a-2)(n-a-2)/2.  It costs O(n) per mode and does not cancel
    the way the binomial sum of `zernike_radial` does in floating point;
    its integer factors keep R^a_n(1) = 1 exact.  Orders m and -m share
    one recurrence.

    Returns (ms, sums): the sorted orders and a (len(ms), z.size) complex
    array of their sums at the flattened points.  Raises like `zernike` on
    an entry with k outside [0, n].
    """
    by_a, orders = {}, set()  # by_a: |m| -> degree n -> [(m, folded coefficient)]
    for (n, k), c in items:
        if not 0 <= k <= n:
            raise ValueError(f"zernike requires 0 <= k <= n, got (n,k)=({n},{k})")
        m = n - 2 * k
        scale = math.sqrt((n + 1) * (1.0 - kappa**2) / math.pi) if normalized else 1.0
        by_a.setdefault(abs(m), {}).setdefault(n, []).append((m, (-1) ** k * scale * c))
        orders.add(m)
    ms = sorted(orders)
    row = {m: j for j, m in enumerate(ms)}
    z = np.asarray(z, dtype=complex).reshape(-1)
    r2 = z.real**2 + z.imag**2
    rho = np.abs((1.0 - kappa) / (1.0 - kappa * r2) * z)
    if np.any(rho > 1.0 + 1e-6):
        raise ValueError("zernike is defined on the closed unit disk")
    rho = np.minimum(rho, 1.0)
    rho2 = rho * rho
    sums = np.zeros((len(ms), z.size), dtype=complex)
    for a, degrees in by_a.items():
        r_prev, r = None, rho**a
        for n in range(a, max(degrees) + 1, 2):
            if n == a + 2:
                r_prev, r = r, ((a + 2) * rho2 - (a + 1)) * r
            elif n > a + 2:
                k1 = (n + a) * (n - a) * (n - 2) // 2
                k2 = 2 * n * (n - 1) * (n - 2)
                k3 = -a * a * (n - 1) - n * (n - 1) * (n - 2)
                k4 = -n * (n + a - 2) * (n - a - 2) // 2
                r_prev, r = r, ((k2 * rho2 + k3) * r + k4 * r_prev) / k1
            for m, c in degrees.get(n, ()):
                sums[row[m]] += c * r
    sums *= math.sqrt((1.0 - kappa) / (1.0 + kappa)) * (1.0 + kappa * r2) / (1.0 - kappa * r2)
    return ms, sums


def _one_mode(n: int, k: int, z, kappa: float, normalized: bool):
    """One deformed-Zernike mode at the points z: its radial sum times
    e^{i(n-2k) arg z}, in z's shape."""
    z = np.asarray(z, dtype=complex)
    _, sums = _radial_sums([((n, k), 1.0)], z, kappa, normalized)
    return sums[0].reshape(z.shape) * np.exp(1j * (n - 2 * k) * np.angle(z))


def zernike_radial(n: int, k: int, rho):
    """Radial profile R_{n,k} evaluated at rho in [0, 1] (scalar or
    array): the integer-coefficient polynomial

        R_{n,k}(rho) = sum_l (-1)^(k+l) C(n-l, l) C(n-2l, k-l) rho^(n-2l)

    over 0 <= l <= min(k, n-k), the e^{-i(n-2k) theta} component of
    W_n(rho sin theta), evaluated by the recurrence of `_radial_sums`
    rather than by this cancelling sum."""
    rho = np.asarray(rho, dtype=float)
    _, sums = _radial_sums([((n, k), 1.0)], rho, 0.0, normalized=False)
    return sums[0].real.reshape(rho.shape)[()]


def zernike(n: int, k: int, z):
    """Zernike polynomial Z_{n,k}(z) = R_{n,k}(|z|) e^{i(n-2k) arg z}.

    Convention: Z_{n,0}(z) = z^n, Z_{n,k}(e^{i omega}) = (-1)^k
    e^{i(n-2k) omega}, and Z_{n,n-k} = (-1)^n conj(Z_{n,k}).
    """
    return _one_mode(n, k, z, 0.0, normalized=False)


def w_kappa(z, cp: CurvatureParam):
    """Disk weight (1 + kappa |z|^2) / (1 - kappa |z|^2)."""
    z = np.asarray(z, dtype=complex)
    r2 = z.real**2 + z.imag**2
    return (1.0 + cp.kappa * r2) / (1.0 - cp.kappa * r2)


def zernike_kappa(n: int, k: int, z, cp: CurvatureParam):
    """Deformed Zernike function: Z_{n,k} composed with the radial map
    rho -> (1-kappa) rho / (1-kappa rho^2) and multiplied by the weight
    sqrt((1-kappa)/(1+kappa)) (1+kappa|z|^2)/(1-kappa|z|^2)."""
    return _one_mode(n, k, z, cp.kappa, normalized=False)


def zernike_kappa_hat(n: int, k: int, z, cp: CurvatureParam):
    """Deformed Zernike normalized to unit norm in the weighted disk space:
    `zernike_kappa` times sqrt((n+1)(1-kappa^2)/pi)."""
    return _one_mode(n, k, z, cp.kappa, normalized=True)


def zernike_kappa_series(table: CoeffTable, z, cp: CurvatureParam):
    """Sum of c_{n,k} zernike_kappa_hat(n, k, z) over a coefficient table.

    The radial map keeps the angle, so the sum is sum_m S_m(z) e^{i m arg z}
    over the orders m = n - 2k, with S_m the per-order radial sums of
    `_radial_sums` (one recurrence in n per |m|, the kappa weight applied
    once).  The angular sum is Horner's rule in e^{i arg z} and its
    conjugate.  Points go through in fixed blocks, so the temporaries stay
    a few MB whatever the point count.  Raises like `zernike` on an entry
    with k outside [0, n] and on a point whose image w lies outside the
    closed unit disk.
    """
    items = table.items()
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.size, dtype=complex)
    flat = z.reshape(-1)
    for lo in range(0, flat.size or 1, _SERIES_BLOCK):  # an empty z still has its entries checked
        zb = flat[lo:lo + _SERIES_BLOCK]
        ms, sums = _radial_sums(items, zb, cp.kappa)
        by_m = dict(zip(ms, sums))
        u = np.exp(1j * np.angle(zb))
        u_conj = u.conj()
        pos = np.zeros(zb.size, dtype=complex)
        neg = np.zeros(zb.size, dtype=complex)
        for m in range(max(map(abs, ms), default=0), 0, -1):
            pos = (pos + by_m.get(m, 0.0)) * u
            neg = (neg + by_m.get(-m, 0.0)) * u_conj
        out[lo:lo + _SERIES_BLOCK] = pos + neg + by_m.get(0, 0.0)
    return out.reshape(z.shape)


# ---------------------------------------------------------------------------
# boundary families
# ---------------------------------------------------------------------------

def e_pl(p: int, l: int, beta, alpha, cp: CurvatureParam):
    """Pure phase e^{i(p beta + l sig(alpha))} on the boundary bundle; p
    and l are integers, as in every boundary family below."""
    beta = np.asarray(beta, dtype=float)
    return np.exp(1j * (operator.index(p) * beta + operator.index(l) * sig(alpha, cp)))


def phi_prime(p: int, q: int, beta, alpha, cp: CurvatureParam):
    """sqrt(sig') e_{p, 2q+1}: eigenfunction of the fiberwise Hilbert
    transform with eigenvalue -i sign(2q+1); `e_pl` reads p and 2q+1 as
    integers."""
    return np.sqrt(sig_prime(alpha, cp)) * e_pl(p, 2 * q + 1, beta, alpha, cp)


def u_prime(p: int, q: int, beta, alpha, cp: CurvatureParam):
    """Symmetric combination phi'_{p,q} + (-1)^p phi'_{p,p-q-1}.

    Even under the antipodal scattering pullback; redundancy
    u'_{p,q} = (-1)^p u'_{p,p-q-1}.
    """
    p, q = operator.index(p), operator.index(q)
    return phi_prime(p, q, beta, alpha, cp) + (-1) ** p * phi_prime(p, p - q - 1, beta, alpha, cp)


def v_prime(p: int, q: int, beta, alpha, cp: CurvatureParam):
    """Antisymmetric combination phi'_{p,q} - (-1)^p phi'_{p,p-q-1}.

    Odd under the antipodal scattering pullback; redundancy
    v'_{p,q} = -(-1)^p v'_{p,p-q-1}.
    """
    p, q = operator.index(p), operator.index(q)
    return phi_prime(p, q, beta, alpha, cp) - (-1) ** p * phi_prime(p, p - q - 1, beta, alpha, cp)


def psi_kappa(n: int, k: int, beta, alpha, cp: CurvatureParam):
    """Boundary singular function psi^kappa_{n,k}.

    ((-1)^n / 4 pi) sqrt(sig'(alpha)) e^{i(n-2k)(beta + sig(alpha))}
    (e^{i(n+1) sig(alpha)} + (-1)^n e^{-i(n+1) sig(alpha)}); equals
    ((-1)^n / 4 pi) u'_{n-2k, n-k}.  n and k are integers (numpy
    integers count; 2.5 is rejected, not evaluated).
    """
    n, k = operator.index(n), operator.index(k)
    if n < 0:
        raise ValueError("psi_kappa requires n >= 0")
    beta = np.asarray(beta, dtype=float)
    s = sig(alpha, cp)
    g = np.exp(1j * (n + 1) * s) + (-1) ** n * np.exp(-1j * (n + 1) * s)
    return (-1) ** n / _FOUR_PI * np.sqrt(sig_prime(alpha, cp)) * np.exp(1j * (n - 2 * k) * (beta + s)) * g


def psi_kappa_hat(n: int, k: int, beta, alpha, cp: CurvatureParam):
    """psi^kappa_{n,k} normalized to unit norm on the inward boundary."""
    return 2.0 * math.sqrt(1.0 + cp.kappa) * psi_kappa(n, k, beta, alpha, cp)


def psi_over_mu(n: int, k: int, beta, alpha, cp: CurvatureParam):
    """psi^kappa_{n,k} divided by mu = cos(alpha), in cancellation-free form.

    Uses sqrt(sig')/cos(alpha) = sqrt((1+kappa)/(1-kappa)) sqrt(sig')/cos(sig)
    and g_n(s)/(2 cos s) = W_n(sin s) to avoid the tangential 0/0; the
    result is smooth across alpha = +-pi/2.  n and k are integers, as in
    `psi_kappa`.
    """
    n, k = operator.index(n), operator.index(k)
    if n < 0:
        raise ValueError("psi_over_mu requires n >= 0")
    beta = np.asarray(beta, dtype=float)
    s = sig(alpha, cp)
    # the real amplitude sqrt((1+kappa)/(1-kappa)) sig' U_n(sin s) / (2 pi),
    # times (-1)^n i^n = (-i)^n, leaves one complex product with the phase
    amp = (math.sqrt((1.0 + cp.kappa) / (1.0 - cp.kappa)) / (2.0 * math.pi)) * sig_prime(alpha, cp)
    amp *= _cheb_u(n, np.sin(s))
    return ((1, -1j, -1, 1j)[n % 4] * amp) * np.exp(1j * (n - 2 * k) * (beta + s))

