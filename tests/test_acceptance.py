"""Acceptance suite: the eight end-to-end criteria at their stated tolerances.

Each test prints one `[criterion N] pass/fail` line with the measured
worst case so the suite doubles as a numerical report (run with -s).
Criteria 2, 3 and 7 are entries of the selftest registry, held here over
the acceptance curvature grid.
"""

import math

import numpy as np

from diskxray import basis, boundary, selftest, xray
from diskxray.geometry import CurvatureParam, exit_time, geodesic_point, scattering_angles, sig, sig_prime
from diskxray.selftest import FULL_KAPPAS


def report(num, label, measured, tol):
    status = "pass" if measured < tol else "FAIL"
    print(f"[criterion {num}] {status}: {label}: measured {measured:.3e} < tol {tol:.1e}")
    assert measured < tol, f"criterion {num} ({label}): {measured:.3e} >= {tol:.1e}"


def band_limited_fn(cp, table):
    def f(z):
        out = np.zeros(np.shape(z), complex)
        for (n, k), c in table.items():
            out += c * basis.zernike_kappa_hat(n, k, z, cp)
        return basis.w_kappa(z, cp) * out

    return f


def test_criterion_1_singular_value_reproduction():
    """Quadratured forward transform is diagonal with the exact sigmas."""
    nmax = 5
    modes = [(n, k) for n in range(nmax + 1) for k in range(n + 1)]
    worst = 0.0
    for kappa in FULL_KAPPAS:
        cp = CurvatureParam(kappa)
        tpl = xray.boundary_grid(cp, 32, 48)
        bb, aa = tpl.mesh()
        w = tpl.weights()
        psis = np.array([basis.psi_kappa_hat(n, k, bb, aa, cp) for (n, k) in modes])
        for i, (n, k) in enumerate(modes):
            f = band_limited_fn(cp, basis.CoeffTable(nmax=nmax, entries={(n, k): 1.0}))
            sino = xray.sinogram(f, tpl).values
            row = np.tensordot(w * sino, np.conj(psis), axes=([0, 1], [1, 2]))
            want = np.zeros(len(modes), complex)
            want[i] = xray.singular_value(n, cp)
            worst = max(worst, float(np.max(np.abs(row - want))))
    report(1, "forward diagonality over kappa grid", worst, 1e-6)


def test_criterion_2_norm_constants(hold):
    """Quadrature reproduces the closed-form norms (and orthogonality) for n <= 8."""
    worst = max(hold(selftest.psi_orthogonality, *FULL_KAPPAS),
                hold(selftest.zernike_orthogonality, *FULL_KAPPAS))
    report(2, "psi and deformed-Zernike Gram matrices, n <= 8", worst, 1e-9)


def test_criterion_3_adjoint_kernel(hold):
    """Fiber integrals of psi/mu vanish for k outside [0, n]."""
    report(3, "adjoint kernel modes, n <= 4", hold(selftest.adjoint_kernel, -0.5, 0.5), 1e-7)


def test_criterion_4_boundary_operator_spectra():
    """Grid P-/C- realize the spectral rules; C-P- = 0; projector idempotent."""
    worst = 0.0
    for kappa in (-0.9, -0.8, 0.0, 0.5, 0.9):
        cp = CurvatureParam(kappa)
        tpl = xray.boundary_grid(cp, 64, 48)
        bb, aa = tpl.mesh()
        nb, nf = 128, 1024
        fam_scale = float(np.max(np.abs(basis.u_prime(0, 1, bb, aa, cp))))
        for p in range(-5, 6):
            for q in range(-5, 6):
                ufam = basis.u_prime(p, q, bb, aa, cp)
                scale = max(float(np.max(np.abs(ufam))), fam_scale)
                got_c = boundary.c_minus(
                    lambda beta, alpha: basis.u_prime(p, q, beta, alpha, cp), tpl, nb, nf
                )
                err_c = float(np.max(np.abs(got_c.values - boundary.c_minus_rule(p, q) * ufam)))
                got_p = boundary.p_minus(
                    lambda beta, alpha: basis.v_prime(p, q, beta, alpha, cp), tpl, nb, nf
                )
                err_p = float(np.max(np.abs(got_p.values - boundary.p_minus_rule(p, q) * ufam)))
                worst = max(worst, err_c / scale, err_p / scale)
    report(4, "P-/C- spectral rules, |p|,|q| <= 5", worst, 1e-6)

    # C- P- = 0 and idempotence of id + C-^2 on random expansions
    cp = CurvatureParam(0.5)
    tpl = xray.boundary_grid(cp, 64, 48)
    rng = np.random.default_rng(4)
    idx = [(p, q) for p in range(-5, 6) for q in range(-5, 6)]
    sel = [idx[i] for i in rng.choice(len(idx), 15, replace=False)]
    coef = rng.normal(size=15) + 1j * rng.normal(size=15)

    def fn_v(beta, alpha):
        out = np.zeros(np.broadcast_shapes(np.shape(beta), np.shape(alpha)), complex)
        for c, (p, q) in zip(coef, sel):
            out = out + c * basis.v_prime(p, q, beta, alpha, cp)
        return out

    pw = boundary.p_minus(fn_v, tpl, 128, 1024)
    cpw = boundary.c_minus(pw, tpl, 128, 1024)
    report(4, "C- after P- vanishes", cpw.norm() / pw.norm(), 1e-7)

    def fn_u(beta, alpha):
        out = np.zeros(np.broadcast_shapes(np.shape(beta), np.shape(alpha)), complex)
        for c, (p, q) in zip(coef, sel):
            out = out + c * basis.u_prime(p, q, beta, alpha, cp)
        return out

    once = boundary.project_to_range(fn_u, tpl)
    twice = boundary.project_to_range(once.projected)
    diff = tpl.with_values(twice.projected.values - once.projected.values)
    base = tpl.with_values(fn_u(*tpl.mesh())).norm()
    report(4, "projector idempotence", diff.norm() / base, 1e-7)


def test_criterion_5_range_characterization():
    """Sinograms satisfy all three range tests; co-kernel modes project to 0."""
    worst_c, worst_m, worst_p = 0.0, 0.0, 0.0
    for kappa in (-0.9, -0.5, 0.3, 0.9):
        cp = CurvatureParam(kappa)
        tpl = xray.boundary_grid(cp, 48, 64)
        rng = np.random.default_rng(55)
        for trial in range(5):
            tab = basis.CoeffTable(nmax=5)
            for n in range(6):
                for k in range(n + 1):
                    tab[(n, k)] = complex(rng.normal(), rng.normal())
            sg = xray.sinogram(band_limited_fn(cp, tab), tpl)
            cu = boundary.c_minus(sg, tpl, 128, 256)
            worst_c = max(worst_c, cu.norm() / sg.norm())
            rep = boundary.moment_residuals(sg, 8, 3)
            worst_m = max(worst_m, rep.max_normalized)
            proj = boundary.project_to_range(sg)
            worst_p = max(worst_p, proj.relative_change)
    report(5, "C- annihilates sinograms", worst_c, 1e-6)
    report(5, "moment residuals of sinograms, n <= 8", worst_m, 1e-6)
    report(5, "projection fixes sinograms", worst_p, 1e-6)

    cp = CurvatureParam(0.3)
    tpl = xray.boundary_grid(cp, 48, 64)
    rng = np.random.default_rng(56)
    worst = 0.0
    cokernel = [(n, k) for n in range(6) for k in (-2, -1, n + 1, n + 2)]
    picks = [cokernel[i] for i in rng.choice(len(cokernel), 10, replace=False)]
    for (n, k) in picks:
        fn = lambda beta, alpha, n=n, k=k: basis.psi_kappa_hat(n, k, beta, alpha, cp)
        res = boundary.project_to_range(fn, tpl)
        worst = max(worst, res.projected.norm())
    report(5, "projector annihilates co-kernel modes", worst, 1e-6)


def test_criterion_6_roundtrip_inversion():
    """invert(forward(f)) recovers band-limited phantoms at every kappa."""
    worst = 0.0
    for kappa in FULL_KAPPAS:
        cp = CurvatureParam(kappa)
        tpl = xray.boundary_grid(cp, 48, 64)
        dg = xray.disk_grid(cp, 96, 64)
        rng = np.random.default_rng(66)
        tab = basis.CoeffTable(nmax=6)
        tab[(1, 0)] = 0.7
        tab[(3, 2)] = 0.2j
        tab[(6, 3)] = complex(rng.normal(), rng.normal())
        f = band_limited_fn(cp, tab)
        res = xray.invert(xray.sinogram(f, tpl), 6, disk_template=dg)
        truth = dg.with_values(f(dg.points()))
        err = dg.with_values(res.recon.values - truth.values).norm() / truth.norm()
        worst = max(worst, err)
    report(6, "round-trip inversion over kappa grid", worst, 1e-6)


def test_criterion_7_geometry_identity_suite(hold):
    """Closed-form geometric identities on 1000 random samples each."""
    identities = (selftest.isometry_invariance, selftest.scattering_consistency, selftest.sqrt_jacobian,
                  selftest.sine_cosine, selftest.footpoint_sine, selftest.fiber_closed_forms)
    worst = max(hold(measure, *FULL_KAPPAS) for measure in identities)
    report(7, "geometry identity suite, 1000 samples per identity", worst, 1e-9)


def test_criterion_8_euclidean_regression():
    """At kappa = 0 every object reduces to its flat-disk form."""
    cp = CurvatureParam(0.0)
    rng = np.random.default_rng(88)
    worst = 0.0

    # signature trivializes
    a = rng.uniform(-np.pi, np.pi, 500)
    worst = max(worst, float(np.max(np.abs(sig(a, cp) - a))))
    worst = max(worst, float(np.max(np.abs(sig_prime(a, cp) - 1.0))))

    # geodesics are chords, exit time 2 cos(alpha)
    beta = rng.uniform(0, 2 * np.pi, 200)
    alpha = rng.uniform(-np.pi / 2, np.pi / 2, 200)
    worst = max(worst, float(np.max(np.abs(exit_time(alpha, cp) - 2 * np.cos(alpha)))))
    t = exit_time(alpha, cp) * rng.uniform(0, 1, 200)
    chord = np.exp(1j * beta) * (1 - t * np.exp(1j * alpha))
    worst = max(worst, float(np.max(np.abs(geodesic_point(beta, alpha, t, cp) - chord))))

    # scattering relation in closed form
    b2, a2 = scattering_angles(beta, alpha, cp)
    worst = max(worst, float(np.max(np.abs(np.exp(1j * b2) - np.exp(1j * (beta + np.pi + 2 * alpha))))))
    worst = max(worst, float(np.max(np.abs(np.exp(1j * a2) - np.exp(1j * (np.pi - alpha))))))

    # psi reduces to its flat form, deformed Zernike to plain Zernike, w to 1
    for nn in range(6):
        for k in range(-1, nn + 2):
            flat = (
                (-1) ** nn / (4 * np.pi)
                * np.exp(1j * (nn - 2 * k) * (beta + alpha))
                * (np.exp(1j * (nn + 1) * alpha) + (-1) ** nn * np.exp(-1j * (nn + 1) * alpha))
            )
            got = basis.psi_kappa(nn, k, beta, alpha, cp)
            worst = max(worst, float(np.max(np.abs(got - flat))))
    z = rng.uniform(0, 1, 200) * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
    worst = max(worst, float(np.max(np.abs(basis.w_kappa(z, cp) - 1.0))))
    for nn in range(6):
        for k in range(nn + 1):
            diff = basis.zernike_kappa(nn, k, z, cp) - basis.zernike(nn, k, z)
            worst = max(worst, float(np.max(np.abs(diff))))

    # Euclidean Zernike norms by quadrature: at kappa = 0 the "vol"
    # weights are the flat area element, bit for bit
    dg = xray.disk_grid(cp, 128, 48)
    pts = dg.points()
    for nn in range(6):
        for k in range(nn + 1):
            f = dg.with_values(basis.zernike(nn, k, pts))
            worst = max(worst, abs(xray.inner(f, f).real - math.pi / (nn + 1)))

    # singular values
    for nn in range(9):
        worst = max(worst, abs(xray.singular_value(nn, cp) - 2 * math.sqrt(math.pi) / math.sqrt(nn + 1)))
    report(8, "euclidean regression", worst, 1e-10)
