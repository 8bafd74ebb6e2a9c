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
from functools import lru_cache

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
    recurrence U_{n+1} = 2t U_n - U_{n-1}."""
    t = np.asarray(t, dtype=float)
    u_prev, u = np.ones(t.shape), 2.0 * t
    if n == 0:
        return u_prev
    for _ in range(n - 1):
        u_prev, u = u, 2.0 * t * u - u_prev
    return u


def cheb_w(n: int, t):
    """W_n(t): degree-n polynomial with W_0 = 1, W_1 = 2it and
    W_{n+1} = 2it W_n + W_{n-1}; equals i^n times the Chebyshev
    polynomial of the second kind U_n(t).  Computed that way: the real
    recurrence, then one exact product with i^n.  The values equal the
    complex recurrence's; only the sign of the zero part may differ.

    Kept, though only tests call it: it is the paper's W_n, the
    polynomial that Z_{n,k} and psi_{n,k} are built from."""
    if n < 0:
        raise ValueError("cheb_w requires n >= 0")
    return (1 + 0j, 1j, -1 + 0j, -1j)[n % 4] * _cheb_u(n, t)


# ---------------------------------------------------------------------------
# Zernike polynomials, plain and curvature-deformed
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def zernike_radial_coeffs(n: int, k: int) -> np.ndarray:
    """Ascending power coefficients of the radial profile R_{n,k}.

    Obtained by expanding W_n(rho sin theta) into harmonics and
    extracting the e^{-i(n-2k) theta} component; the result is the
    integer-coefficient polynomial

        R_{n,k}(rho) = sum_l (-1)^(k+l) C(n-l, l) C(n-2l, k-l) rho^(n-2l)

    over 0 <= l <= min(k, n-k).
    """
    if not 0 <= k <= n:
        raise ValueError(f"zernike radial profile needs 0 <= k <= n, got (n,k)=({n},{k})")
    coeffs = [0] * (n + 1)
    for l in range(min(k, n - k) + 1):
        coeffs[n - 2 * l] = (-1) ** (k + l) * math.comb(n - l, l) * math.comb(n - 2 * l, k - l)
    return np.asarray(coeffs, dtype=float)


def zernike_radial(n: int, k: int, rho):
    """Radial profile R_{n,k} evaluated at rho (scalar or array)."""
    rho = np.asarray(rho, dtype=float)
    return np.polynomial.polynomial.polyval(rho, zernike_radial_coeffs(n, k))


def zernike(n: int, k: int, z):
    """Zernike polynomial Z_{n,k}(z) = R_{n,k}(|z|) e^{i(n-2k) arg z}.

    Convention: Z_{n,0}(z) = z^n, Z_{n,k}(e^{i omega}) = (-1)^k
    e^{i(n-2k) omega}, and Z_{n,n-k} = (-1)^n conj(Z_{n,k}).
    """
    if not 0 <= k <= n:
        raise ValueError(f"zernike requires 0 <= k <= n, got (n,k)=({n},{k})")
    z = np.asarray(z, dtype=complex)
    rho = np.abs(z)
    if np.any(rho > 1.0 + 1e-6):
        raise ValueError("zernike is defined on the closed unit disk")
    omega = np.angle(z)
    return zernike_radial(n, k, np.minimum(rho, 1.0)) * np.exp(1j * (n - 2 * k) * omega)


def w_kappa(z, cp: CurvatureParam):
    """Disk weight (1 + kappa |z|^2) / (1 - kappa |z|^2)."""
    z = np.asarray(z, dtype=complex)
    r2 = z.real**2 + z.imag**2
    return (1.0 + cp.kappa * r2) / (1.0 - cp.kappa * r2)


def zernike_kappa(n: int, k: int, z, cp: CurvatureParam):
    """Deformed Zernike function: Z_{n,k} composed with the radial map
    rho -> (1-kappa) rho / (1-kappa rho^2) and multiplied by the weight
    sqrt((1-kappa)/(1+kappa)) (1+kappa|z|^2)/(1-kappa|z|^2)."""
    z = np.asarray(z, dtype=complex)
    k_ = cp.kappa
    r2 = z.real**2 + z.imag**2
    scale = (1.0 - k_) / (1.0 - k_ * r2)
    weight = math.sqrt((1.0 - k_) / (1.0 + k_)) * (1.0 + k_ * r2) / (1.0 - k_ * r2)
    return weight * zernike(n, k, scale * z)


def zernike_kappa_hat(n: int, k: int, z, cp: CurvatureParam):
    """Deformed Zernike normalized to unit norm in the weighted disk space."""
    scale = math.sqrt((n + 1) * (1.0 - cp.kappa**2) / math.pi)
    return scale * zernike_kappa(n, k, z, cp)


def zernike_kappa_series(table: CoeffTable, z, cp: CurvatureParam):
    """Sum of c_{n,k} zernike_kappa_hat(n, k, z) over a coefficient table.

    Each point is mapped once to w = (1-kappa) z / (1-kappa|z|^2), and
    one sweep of the complex three-term recurrence

        V_{n,k} = w V_{n-1,k} + conj(w) V_{n-1,k-1} - V_{n-2,k-1},  V_{0,0} = 1,

    with Z_{n,k}(w) = (-1)^k V_{n,k}, makes every mode up to the table's
    top degree.  Each degree is added into the sum as soon as it is made
    and only two degrees are kept; the kappa weight is applied once at
    the end.  Points go through in fixed blocks, so the temporaries stay
    a few MB whatever the point count.  Raises like `zernike` on an
    entry with k outside [0, n] and on a point whose image w lies
    outside the closed unit disk.
    """
    k_ = cp.kappa
    items = table.items()
    top = max((n for (n, _), _ in items), default=-1)
    # (-1)^k and the unit-norm scale folded into the coefficients
    coef = np.zeros((top + 1, top + 1), dtype=complex)
    for (n, k), c in items:
        if not 0 <= k <= n:
            raise ValueError(f"zernike requires 0 <= k <= n, got (n,k)=({n},{k})")
        coef[n, k] = (-1) ** k * math.sqrt((n + 1) * (1.0 - k_**2) / math.pi) * c
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.size, dtype=complex)
    if not items:
        return out.reshape(z.shape)
    flat = z.reshape(-1)
    for lo in range(0, flat.size, _SERIES_BLOCK):
        zb = flat[lo:lo + _SERIES_BLOCK]
        r2 = zb.real**2 + zb.imag**2
        w = (1.0 - k_) / (1.0 - k_ * r2) * zb
        rho = np.abs(w)
        if np.any(rho > 1.0 + 1e-6):
            raise ValueError("zernike is defined on the closed unit disk")
        w /= np.maximum(rho, 1.0)
        w_conj = w.conj()
        prev2, prev = np.zeros((0, w.size), dtype=complex), np.ones((1, w.size), dtype=complex)
        acc = coef[0, 0] * prev[0]
        for n in range(1, top + 1):
            cur = np.empty((n + 1, w.size), dtype=complex)
            np.multiply(prev, w, out=cur[:n])
            np.multiply(prev[n - 1], w_conj, out=cur[n])
            cur[1:n] += prev[:n - 1] * w_conj
            cur[1:n] -= prev2
            acc += coef[n, :n + 1] @ cur
            prev2, prev = prev, cur
        weight = math.sqrt((1.0 - k_) / (1.0 + k_)) * (1.0 + k_ * r2) / (1.0 - k_ * r2)
        out[lo:lo + _SERIES_BLOCK] = weight * acc
    return out.reshape(z.shape)


# ---------------------------------------------------------------------------
# boundary families
# ---------------------------------------------------------------------------

def e_pl(p: int, l: int, beta, alpha, cp: CurvatureParam):
    """Pure phase e^{i(p beta + l sig(alpha))} on the boundary bundle."""
    beta = np.asarray(beta, dtype=float)
    return np.exp(1j * (p * beta + l * sig(alpha, cp)))


def phi_prime(p: int, q: int, beta, alpha, cp: CurvatureParam):
    """sqrt(sig') e_{p, 2q+1}: eigenfunction of the fiberwise Hilbert
    transform with eigenvalue -i sign(2q+1)."""
    return np.sqrt(sig_prime(alpha, cp)) * e_pl(p, 2 * q + 1, beta, alpha, cp)


def u_prime(p: int, q: int, beta, alpha, cp: CurvatureParam):
    """Symmetric combination phi'_{p,q} + (-1)^p phi'_{p,p-q-1}.

    Even under the antipodal scattering pullback; redundancy
    u'_{p,q} = (-1)^p u'_{p,p-q-1}.
    """
    return phi_prime(p, q, beta, alpha, cp) + (-1) ** p * phi_prime(p, p - q - 1, beta, alpha, cp)


def v_prime(p: int, q: int, beta, alpha, cp: CurvatureParam):
    """Antisymmetric combination phi'_{p,q} - (-1)^p phi'_{p,p-q-1}.

    Odd under the antipodal scattering pullback; redundancy
    v'_{p,q} = -(-1)^p v'_{p,p-q-1}.
    """
    return phi_prime(p, q, beta, alpha, cp) - (-1) ** p * phi_prime(p, p - q - 1, beta, alpha, cp)


def psi_kappa(n: int, k: int, beta, alpha, cp: CurvatureParam):
    """Boundary singular function psi^kappa_{n,k}.

    ((-1)^n / 4 pi) sqrt(sig'(alpha)) e^{i(n-2k)(beta + sig(alpha))}
    (e^{i(n+1) sig(alpha)} + (-1)^n e^{-i(n+1) sig(alpha)}); equals
    ((-1)^n / 4 pi) u'_{n-2k, n-k}.
    """
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
    result is smooth across alpha = +-pi/2.
    """
    if n < 0:
        raise ValueError("psi_over_mu requires n >= 0")
    beta = np.asarray(beta, dtype=float)
    s = sig(alpha, cp)
    # the real amplitude sqrt((1+kappa)/(1-kappa)) sig' U_n(sin s) / (2 pi),
    # times (-1)^n i^n = (-i)^n, leaves one complex product with the phase
    amp = (math.sqrt((1.0 + cp.kappa) / (1.0 - cp.kappa)) / (2.0 * math.pi)) * sig_prime(alpha, cp)
    amp *= _cheb_u(n, np.sin(s))
    return ((1, -1j, -1, 1j)[n % 4] * amp) * np.exp(1j * (n - 2 * k) * (beta + s))


def norms(n: int, k: int, cp: CurvatureParam) -> tuple[float, float]:
    """Squared norms of (psi^kappa_{n,k}, Z^kappa_{n,k}) in their spaces.

    psi in L^2 of the inward boundary with the bundle surface measure:
    1 / (4 (1+kappa)); Z^kappa in the weighted disk space:
    pi / ((1-kappa^2) (n+1)).  Both are independent of k.

    Kept, though only tests call it: it states the paper's closed-form
    norms in one place (the selftest's Gram checks write them inline)."""
    if n < 0:
        raise ValueError("norms requires n >= 0")
    psi_norm_sq = 1.0 / (4.0 * (1.0 + cp.kappa))
    zk_norm_sq = math.pi / ((1.0 - cp.kappa**2) * (n + 1))
    return psi_norm_sq, zk_norm_sq
