"""Shared fixtures: `hold`, the one way a test asserts a selftest registry
entry, `alpha_torus_minus`, the slow oracle of the P-/C- chain,
`zernike_60`, the extended-precision oracle of the deformed Zernike modes,
and the antipodal scattering map S_A, on angles
(`antipodal_scattering_angles`) and as a pullback on grids
(`sa_pullback`)."""

import functools
import math

import numpy as np
import pytest

from diskxray import boundary, selftest, xray
from diskxray.geometry import CurvatureParam, scattering_angles, sig, wrap_pi


@functools.lru_cache(maxsize=None)
def _measured(measure, kappa):
    return measure(CurvatureParam(kappa))


@pytest.fixture(scope="session")
def hold():
    """hold(measure, *kappas): assert that the registry entry of `measure`
    passes at each kappa, which must lie on the entry's grid, and return
    the worst measured error.  Each (entry, kappa) is measured once per
    session however many tests name it."""

    def check(measure, *kappas):
        entry = next(c for c in selftest.CHECKS if c.measure is measure)
        worst = 0.0
        for kappa in kappas:
            label = entry.name.format(kappa=kappa)
            assert kappa in entry.kappas, f"{label}: kappa is not on the entry's grid {entry.kappas}"
            got = _measured(measure, kappa)
            assert got < entry.tol, f"{label}: measured {got:.3e} >= tol {entry.tol:.1e}"
            worst = max(worst, got)
        return worst

    return check


def _alpha_torus_minus(u, sign, scale, template, n_beta, n_fiber):
    """scale (id - S^*) H_- of the sign extension of u at the template
    nodes, on a torus of n_beta x n_fiber nodes uniform in beta and alpha.

    It shares no step with `boundary`: a grid u is read through its
    per-target interpolant (the fiber plan's barycentric rows in s are
    the one piece it shares with the chain's grid branch), an outward
    node alpha reads u at pi - alpha with the beta shift
    pi + 2 sig(alpha) as a phase on the beta spectrum, the Hilbert
    multiplier acts on the alpha modes, and the result is summed as an
    alpha-Fourier series at the template nodes.  The u'/v' modes are not
    band-limited in alpha, so it needs far more fiber nodes than the
    s-circle as |kappa| -> 1."""
    cp = CurvatureParam(template.kappa)
    fn = u.interpolant() if isinstance(u, xray.BoundaryGrid) else u
    alpha = np.arange(n_fiber) * 2 * np.pi / n_fiber
    wrapped = wrap_pi(alpha)
    inward = np.abs(wrapped) <= np.pi / 2 + 1e-12
    targets = np.clip(np.where(inward, wrapped, wrap_pi(np.pi - wrapped)), -np.pi / 2, np.pi / 2)
    beta = np.arange(n_beta) * 2 * np.pi / n_beta
    freqs = np.fft.fftfreq(n_beta, 1.0 / n_beta).astype(int)
    spec = np.fft.fft(np.broadcast_to(fn(beta[:, None], targets[None, :]), (n_beta, n_fiber)),
                      axis=0) / n_beta
    phase = np.exp(1j * np.outer(freqs, np.pi + 2.0 * sig(alpha, cp)))
    spec[:, ~inward] *= sign * phase[:, ~inward]
    m = np.fft.fftfreq(n_fiber, 1.0 / n_fiber).astype(int)
    w = np.fft.ifft(np.fft.fft(spec, axis=1) * np.where(m % 2 == 0, 0.0, -1j * np.sign(m)), axis=1)
    flip = (n_fiber // 2 - np.arange(n_fiber)) % n_fiber  # node pi - alpha
    out = scale * (w - w[:, flip] * phase)
    nb = template.shape[0]
    keep = 2 * np.abs(freqs) < nb
    out_spec = np.zeros((nb, template.shape[1]), complex)
    out_spec[freqs[keep] % nb] = (np.fft.fft(out[keep], axis=1) / n_fiber) @ np.exp(
        1j * np.outer(m, template.alpha))
    return np.fft.ifft(out_spec, axis=0, norm="forward")


@pytest.fixture(scope="session")
def alpha_torus_minus():
    """alpha_torus_minus(u, sign, scale, template, n_beta, n_fiber): the
    P- (sign 1, scale 1) or C- (sign -1, scale 1/2) chain on a torus
    uniform in alpha, as template values."""
    return _alpha_torus_minus


def _zernike_60(n, k, z, kappa, normalized=True):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        kap, z = mp.mpf(kappa), mp.mpc(z)
        r2 = z.real**2 + z.imag**2
        rho = (1 - kap) * abs(z) / (1 - kap * r2)
        radial = sum((-1) ** (k + l) * math.comb(n - l, l) * math.comb(n - 2 * l, k - l) * rho ** (n - 2 * l)
                     for l in range(min(k, n - k) + 1))
        weight = mp.sqrt((1 - kap) / (1 + kap)) * (1 + kap * r2) / (1 - kap * r2)
        scale = mp.sqrt((n + 1) * (1 - kap**2) / mp.pi) if normalized else 1
        return complex(scale * weight * radial * mp.expj((n - 2 * k) * mp.arg(z)))


@pytest.fixture(scope="session")
def zernike_60():
    """zernike_60(n, k, z, kappa, normalized=True): zernike_kappa_hat (or,
    not normalized, zernike_kappa) at one point, from the binomial sum

        R_{n,k}(rho) = sum_l (-1)^(k+l) C(n-l, l) C(n-2l, k-l) rho^(n-2l)

    in 60-digit mpmath arithmetic, where its cancellation is harmless.  It
    shares no step with the library's recurrence.  Skips without mpmath."""
    return _zernike_60


def _antipodal_scattering_angles(beta, alpha, cp):
    return scattering_angles(beta, alpha, cp)[0], wrap_pi(-np.asarray(alpha, dtype=float))


@pytest.fixture(scope="session")
def antipodal_scattering_angles():
    """antipodal_scattering_angles(beta, alpha, cp): the paper's S_A, the
    scattering relation composed with the fiberwise antipodal map
    alpha -> -alpha, as (beta', alpha') with alpha' in [-pi, pi)."""
    return _antipodal_scattering_angles


def _sa_pullback(u):
    plan = xray._fiber_plan(u)
    spec = boundary._pullback_spectrum(plan.spectrum(u.values),
                                       boundary._scattering_phase(plan.freqs, plan.s))
    return u.with_values(plan.from_spectrum(spec))


@pytest.fixture(scope="session")
def sa_pullback():
    """sa_pullback(u): the pullback of a BoundaryGrid under S_A, exact on
    the grid.  alpha -> -alpha reverses the grid's mirror-antisymmetric
    alpha nodes and the beta shift pi + 2 sig(alpha) is a phase on the
    fiber plan's spectrum; sqrt(sig') is even in alpha, so the flip
    commutes with it.  Built from the private steps `project_to_range`
    takes its even part with, so its tests hold that flip."""
    return _sa_pullback
