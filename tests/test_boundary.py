"""Boundary operators: the chain on the (beta, s) torus, P-/C-, projection, moments."""

import tracemalloc

import numpy as np
import pytest

from diskxray import basis, boundary, xray
from diskxray.geometry import CurvatureParam, scattering_angles, sig, sig_inverse, sig_prime, wrap_pi

CP = CurvatureParam(0.5)
TORUS = dict(n_beta=128, n_fiber=512)


def template(cp=CP, n_beta=64, n_alpha=48):
    return xray.boundary_grid(cp, n_beta, n_alpha)


def u_fn(p, q, cp=CP):
    return lambda beta, alpha: basis.u_prime(p, q, beta, alpha, cp)


def v_fn(p, q, cp=CP):
    return lambda beta, alpha: basis.v_prime(p, q, beta, alpha, cp)


def random_table_fn(maker, indices, seed, cp=CP):
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))

    def fn(beta, alpha):
        out = np.zeros(np.broadcast_shapes(np.shape(beta), np.shape(alpha)), complex)
        for c, (p, q) in zip(coef, indices):
            out = out + c * maker(p, q, beta, alpha, cp)
        return out

    return fn, coef


def torus_axes(n_beta, n_fiber):
    """The torus nodes: beta uniform, and the fiber circle uniform in s,
    pulled back to alpha (the outward half lies in (pi/2, 3 pi/2))."""
    s = boundary._circle(n_fiber)
    return np.arange(n_beta) * 2 * np.pi / n_beta, sig_inverse(s, CP)


def torus_values(freqs, spec, n_beta):
    """Torus samples of a beta spectrum: its rows placed by frequency,
    then one inverse FFT over beta."""
    full = np.zeros((n_beta, spec.shape[1]), complex)
    full[freqs % n_beta] = spec
    return np.fft.ifft(full, axis=0, norm="forward")


def extension(u, sign, cp=CP, n_beta=128, n_fiber=512):
    """Torus samples of the even (sign 1) or odd (sign -1) extension, the
    sqrt(sig') weight restored."""
    freqs, spec, _ = boundary._extension_spectrum(u, sign, template(cp), n_beta, n_fiber)
    alpha = sig_inverse(boundary._circle(n_fiber), cp)
    return torus_values(freqs, spec, n_beta) * np.sqrt(sig_prime(alpha, cp))


def smooth_field(cp, sign, seed):
    """sqrt(sig') (h + sign h o S), h the exponential of a random
    trigonometric polynomial of degree 1 in (beta, s): smooth, scattering
    even (sign 1) or odd (sign -1), so its extension is smooth, and no
    finite combination of u'/v'."""
    rng = np.random.default_rng(seed)
    coef = 0.2 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))

    def h(beta, s):
        return np.exp(sum(coef[i, j] * np.exp(1j * (i - 1) * beta + 1j * (j - 1) * s)
                          for i in range(3) for j in range(3)))

    def fn(beta, alpha):
        s = sig(alpha, cp)
        return np.sqrt(sig_prime(alpha, cp)) * (h(beta, s) + sign * h(beta + np.pi + 2 * s, np.pi - s))

    return fn


class TestExtend:
    def test_constant_even(self):
        # sqrt(sig') takes one value at a node and its flip, so the even
        # extension of the constant is the constant
        vals = extension(lambda b, a: np.ones(np.shape(b), complex), 1.0, CP, 32, 64)
        assert np.max(np.abs(vals - 1)) < 1e-13

    def test_constant_odd(self):
        # the first half of the circle is inward
        vals = extension(lambda b, a: np.ones(np.shape(b), complex), -1.0, CP, 32, 64)
        assert np.allclose(vals[:, :32], 1.0)
        assert np.allclose(vals[:, 32:], -1.0)
        alpha = torus_axes(32, 64)[1]
        assert np.all(np.abs(alpha[:32]) < np.pi / 2) and np.all(np.abs(alpha[32:] - np.pi) < np.pi / 2)

    def test_inward_restriction_exact(self):
        grid = template()
        bb, aa = grid.mesh()
        grid = grid.with_values(basis.u_prime(2, 3, bb, aa, CP))
        vals = extension(grid, -1.0, **TORUS)
        beta, alpha = torus_axes(**TORUS)
        inward = np.abs(alpha) < np.pi / 2
        want = basis.u_prime(2, 3, beta[:, None], alpha[None, inward], CP)
        assert np.max(np.abs(vals[:, inward] - want)) < 1e-12

    @pytest.mark.parametrize("kappa", [-0.8, 0.0, 0.5, 0.9])
    def test_grid_and_callable_agree_on_every_column(self, kappa):
        # a grid and the u' callable it samples are read at the same
        # inward nodes, and the outward columns of both take one flip
        cp = CurvatureParam(kappa)
        fn = u_fn(2, 3, cp)
        grid = template(cp, 64, 64)
        grid = grid.with_values(fn(*grid.mesh()))
        for sign in (1.0, -1.0):
            want = extension(fn, sign, cp, **TORUS)
            got = extension(grid, sign, cp, **TORUS)
            assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))

    def test_odd_extension_reproduces_global_family(self):
        # u' is scattering-odd, so its odd extension is the global formula
        vals = extension(u_fn(-3, 2), -1.0, **TORUS)
        beta, alpha = torus_axes(**TORUS)
        want = basis.u_prime(-3, 2, beta[:, None], alpha[None, :], CP)
        assert np.max(np.abs(vals - want)) < 1e-12

    def test_even_extension_reproduces_global_family(self):
        vals = extension(v_fn(2, -1), 1.0, **TORUS)
        beta, alpha = torus_axes(**TORUS)
        want = basis.v_prime(2, -1, beta[:, None], alpha[None, :], CP)
        assert np.max(np.abs(vals - want)) < 1e-12

    def test_symmetries_on_torus(self):
        # scattering pullback acts as -1 on odd-extended u', +1 on even-extended v'
        for fn, sign in ((u_fn(1, 3), -1.0), (v_fn(1, 3), 1.0)):
            freqs, spec, phase = boundary._extension_spectrum(fn, sign, template(), **TORUS)
            pulled = boundary._pullback_spectrum(spec, phase)
            assert np.max(np.abs(torus_values(freqs, pulled - sign * spec, 128))) < 1e-11

    def test_pullback_involution(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(32, 64)) + 1j * rng.normal(size=(32, 64))
        freqs = np.fft.fftfreq(32, 1.0 / 32).astype(int)
        phase = boundary._scattering_phase(freqs, boundary._circle(64))
        pull = lambda spec: boundary._pullback_spectrum(spec, phase)
        back = torus_values(freqs, pull(pull(np.fft.fft(vals, axis=0) / 32)), 32)
        assert np.max(np.abs(back - vals)) < 1e-12

    def test_circle_flip_is_the_scattering_relation(self):
        # node n_fiber - 1 - k sits at pi - t_k, and the scattering relation
        # sends the fiber angle of t_k to that of pi - t_k
        t = boundary._circle(64)
        assert np.max(np.abs(t[::-1] - (np.pi - t))) < 1e-14
        alpha = sig_inverse(t, CP)
        _, scattered = scattering_angles(0.0, alpha, CP)
        assert np.max(np.abs(wrap_pi(scattered - alpha[::-1]))) < 1e-14


class TestRestrictStar:
    # A_+^* / A_-^* V = V +/- S^* V at the inward template nodes, from the
    # chain's pullback and evaluation helpers

    @staticmethod
    def restrict_star(freqs, spec, phase, sign, tpl):
        both = spec + sign * boundary._pullback_spectrum(spec, phase)
        return tpl.with_values(boundary._eval_spectrum(freqs, both, tpl))

    def test_even_round_trip_doubles(self):
        # A_+^* A_+ u = 2 u on inward nodes
        tpl = template()
        bb, aa = tpl.mesh()
        fn = v_fn(2, 1)
        got = self.restrict_star(*boundary._extension_spectrum(fn, 1.0, tpl, **TORUS), 1.0, tpl)
        assert np.max(np.abs(got.values - 2 * fn(bb, aa))) < 1e-10

    def test_odd_round_trip_doubles(self):
        tpl = template()
        bb, aa = tpl.mesh()
        fn = u_fn(1, 2)
        got = self.restrict_star(*boundary._extension_spectrum(fn, -1.0, tpl, **TORUS), -1.0, tpl)
        assert np.max(np.abs(got.values - 2 * fn(bb, aa))) < 1e-10

    def test_mixed_parity_annihilates(self):
        # A_-^* of a scattering-even torus function vanishes
        tpl = template()
        ext = boundary._extension_spectrum(v_fn(2, 1), 1.0, tpl, **TORUS)
        got = self.restrict_star(*ext, -1.0, tpl)
        assert np.max(np.abs(got.values)) < 1e-10


class TestHilbert:
    # the odd-mode multiplier the operators use: -i sign(m) on odd fiber
    # modes m, 0 on the even ones

    def test_single_positive_mode(self):
        vals = np.exp(1j * np.arange(64) * 2 * np.pi / 64)[None, :] * np.ones((4, 1))
        got = boundary._hilbert_fiber(vals)
        assert np.max(np.abs(got + 1j * vals)) < 1e-13

    def test_cosine_to_sine(self):
        a = np.arange(128) * 2 * np.pi / 128
        got = boundary._hilbert_fiber(np.cos(a)[None, :] * np.ones((2, 1)))
        assert np.max(np.abs(got - np.sin(a)[None, :])) < 1e-13

    def test_sign_zero_kills_mean(self):
        assert np.max(np.abs(boundary._hilbert_fiber(np.full((2, 16), 3.0 + 0j)))) < 1e-14

    def test_phi_prime_eigenfunction(self):
        # grid operator version of the fiberwise eigenrelation, on the
        # global formula of phi' over sqrt(sig') at the circle's nodes
        beta, alpha = torus_axes(64, 1024)
        root = np.sqrt(sig_prime(alpha, CP))
        for p, q in [(0, 0), (2, -3), (-5, 6), (6, -6)]:
            vals = basis.phi_prime(p, q, beta[:, None], alpha[None, :], CP) / root
            got = boundary._hilbert_fiber(vals)
            want = -1j * np.sign(2 * q + 1) * vals
            assert np.max(np.abs(got - want)) < 1e-12


class TestOperatorRules:
    @pytest.mark.parametrize("pq", [(0, 0), (1, 2), (-3, 1), (2, 0)])
    def test_p_minus_spot_values(self, pq):
        p, q = pq
        tpl = template()
        bb, aa = tpl.mesh()
        got = boundary.p_minus(v_fn(p, q), tpl, **TORUS)
        want = boundary.p_minus_rule(p, q) * basis.u_prime(p, q, bb, aa, CP)
        scale = max(np.max(np.abs(basis.u_prime(p, q, bb, aa, CP))), 1.0)
        assert np.max(np.abs(got.values - want)) / scale < 1e-7

    @pytest.mark.parametrize("pq,lam", [((3, 1), -1j), ((-3, -2), 1j), ((1, 1), 0.0),
                                        ((4, 1), -1j), ((-4, -2), 1j)])
    def test_c_minus_spot_values(self, pq, lam):
        p, q = pq
        assert boundary.c_minus_rule(p, q) == lam
        tpl = template()
        bb, aa = tpl.mesh()
        got = boundary.c_minus(u_fn(p, q), tpl, **TORUS)
        want = lam * basis.u_prime(p, q, bb, aa, CP)
        scale = max(np.max(np.abs(basis.u_prime(p, q, bb, aa, CP))), 1.0)
        assert np.max(np.abs(got.values - want)) / scale < 1e-7

    @pytest.mark.parametrize("n_beta", [96, 97])
    def test_top_beta_frequency_of_template(self, n_beta):
        # n_beta nodes resolve |f| < n_beta / 2; on 97 the top frequency 48
        # used to be dropped, so C- and P- returned 0 there (1e-13
        # relative now)
        cp = CurvatureParam(0.3)
        tpl = template(cp, n_beta, 48)
        bb, aa = tpl.mesh()
        p = (n_beta - 1) // 2
        for op, fn, q, rule in ((boundary.c_minus, u_fn, 1, boundary.c_minus_rule),
                                (boundary.p_minus, v_fn, -1, boundary.p_minus_rule)):
            want = rule(p, q) * basis.u_prime(p, q, bb, aa, cp)
            got = op(fn(p, q, cp), tpl, 256, 512).values
            assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))

    def test_c_minus_annihilates_antipodally_odd(self):
        # the even-fiber-mode antipodally odd family is in the kernel
        p, q = 2, 1
        fn = lambda beta, alpha: np.sqrt(sig_prime(alpha, CP)) * (
            basis.e_pl(p, 2 * q, beta, alpha, CP)
            - (-1) ** p * basis.e_pl(p, 2 * (p - q), beta, alpha, CP)
        )
        got = boundary.c_minus(fn, template(), **TORUS)
        assert np.max(np.abs(got.values)) < 1e-8

    @pytest.mark.parametrize("kappa", [-0.8, 0.0, 0.5])
    def test_spectral_grid_agreement(self, kappa):
        # random expansions over u'/v' with |p|,|q| <= 5
        cp = CurvatureParam(kappa)
        tpl = template(cp)
        bb, aa = tpl.mesh()
        idx = [(p, q) for p in range(-5, 6) for q in range(-5, 6)]
        rng = np.random.default_rng(2)
        sel = [idx[i] for i in rng.choice(len(idx), 12, replace=False)]

        fn_u, coef_u = random_table_fn(basis.u_prime, sel, seed=3, cp=cp)
        got = boundary.c_minus(fn_u, tpl, 128, 1024)
        want = np.zeros(tpl.shape, complex)
        for c, (p, q) in zip(coef_u, sel):
            want += c * boundary.c_minus_rule(p, q) * basis.u_prime(p, q, bb, aa, cp)
        scale = tpl.with_values(fn_u(bb, aa)).norm()
        assert tpl.with_values(got.values - want).norm() / scale < 1e-6

        fn_v, coef_v = random_table_fn(basis.v_prime, sel, seed=4, cp=cp)
        got = boundary.p_minus(fn_v, tpl, 128, 1024)
        want = np.zeros(tpl.shape, complex)
        for c, (p, q) in zip(coef_v, sel):
            want += c * boundary.p_minus_rule(p, q) * basis.u_prime(p, q, bb, aa, cp)
        scale = tpl.with_values(fn_v(bb, aa)).norm()
        assert tpl.with_values(got.values - want).norm() / scale < 1e-6

    def test_c_minus_after_p_minus_vanishes(self):
        idx = [(p, q) for p in range(-4, 5) for q in range(-4, 5)]
        rng = np.random.default_rng(5)
        sel = [idx[i] for i in rng.choice(len(idx), 10, replace=False)]
        fn_v, _ = random_table_fn(basis.v_prime, sel, seed=6)
        tpl = template()
        pw = boundary.p_minus(fn_v, tpl, **TORUS)
        cpw = boundary.c_minus(pw, tpl, **TORUS)
        assert cpw.norm() / pw.norm() < 1e-7

    def test_p_minus_output_antipodally_even(self):
        fn_v, _ = random_table_fn(basis.v_prime, [(0, 1), (2, -2), (-3, 3)], seed=7)
        tpl = template()
        pw = boundary.p_minus(fn_v, tpl, **TORUS)
        pulled = boundary.sa_pullback(pw)
        assert tpl.with_values(pw.values - pulled.values).norm() / pw.norm() < 1e-8

    def test_c_minus_of_a_cokernel_mode_near_the_cliff(self):
        # C- u'(-5, 3) = 0; on a torus uniform in alpha it returned values
        # up to 4.7 here (input max 8.0), since u' is not band-limited in
        # alpha; on the s-circle u' is one s-mode per term
        cp = CurvatureParam(0.9)
        tpl = template(cp, 32, 24)
        assert boundary.c_minus_rule(-5, 3) == 0
        got = boundary.c_minus(u_fn(-5, 3, cp), tpl, 128, 512)
        assert np.max(np.abs(got.values)) <= 1e-12

    @pytest.mark.parametrize("kappa", [-0.8, 0.0, 0.5])
    def test_grid_and_callable_inputs_agree(self, kappa):
        # the grid extension (barycentric in s through the fiber plan)
        # against the callable one (sampled at the circle's inward nodes)
        cp = CurvatureParam(kappa)
        tpl = template(cp)
        bb, aa = tpl.mesh()
        for p, q in [(0, 0), (2, 3), (-3, 1), (4, -2)]:
            for op, fn in ((boundary.c_minus, u_fn(p, q, cp)), (boundary.p_minus, v_fn(p, q, cp))):
                u = fn(bb, aa)
                got = op(tpl.with_values(u), tpl, 128, 1024).values
                want = op(fn, tpl, 128, 1024).values
                assert np.max(np.abs(got - want)) / max(np.max(np.abs(u)), 1.0) < 1e-12

    def test_c_minus_rejects_non_callable(self):
        with pytest.raises(TypeError, match="expected a callable on \\(beta, alpha\\) or a BoundaryGrid"):
            boundary.c_minus(np.ones(template().shape), template(), **TORUS)

    @staticmethod
    def u_prime_grid(kappa):
        cp = CurvatureParam(kappa)
        u = template(cp)
        return u.with_values(u_fn(1, 2, cp)(*u.mesh()))

    @pytest.mark.parametrize("call", [
        lambda u, other: boundary.c_minus(u, other, **TORUS),
        lambda u, other: boundary.p_minus(u, other, **TORUS),
        lambda u, other: boundary.c_minus(other, u, **TORUS),
        lambda u, other: boundary.p_minus(other, u, **TORUS),
    ], ids=["c_minus", "p_minus", "c_minus-template", "p_minus-template"])
    def test_rejects_grid_of_other_kappa(self, call):
        # read at the template's kappa -0.5, a kappa 0.4 grid of u'(1, 2)
        # gave a C- u of max 0.94; the template takes the input's place too
        u, other = self.u_prime_grid(0.4), self.u_prime_grid(-0.5)
        with pytest.raises(ValueError, match=r"grid kappa=(0\.4|-0\.5) does not match BoundaryGrid kappa=(-0\.5|0\.4)"):
            call(u, other)

    def test_sa_pullback_reads_the_grid_kappa(self):
        # u'(1, 2) is antipodally even: the pullback returns it, labelled
        # with its own kappa; read at kappa -0.5 it was off by order 1
        u = self.u_prime_grid(0.4)
        pulled = boundary.sa_pullback(u)
        assert pulled.kappa == 0.4
        assert np.max(np.abs(pulled.values - u.values)) < 1e-12 * np.max(np.abs(u.values))

    def test_symmetrize_reads_the_grid_kappa(self):
        # read at kappa -0.5 this even input had an odd norm of 2.98
        even, odd_norm = boundary.symmetrize(self.u_prime_grid(0.4))
        assert even.kappa == 0.4
        assert odd_norm <= 1e-12


class TestAlphaTorusOracle:
    """The s-circle chain against the same chain on a torus uniform in
    alpha (`alpha_torus_minus`), which shares no `boundary` step with it.
    The inputs are smooth and scattering-compatible, so the extensions
    are smooth and both converge: the alpha torus needs 4096 fiber nodes
    at |kappa| = 0.9 (on 1024 they differ by up to 1.2e-7).  Measured
    worst relative differences: 5.0e-14 (callable) and 5.3e-13 (grid) at
    |kappa| <= 0.5, 2.8e-13 and 6.0e-13 at |kappa| = 0.9."""

    @pytest.mark.parametrize("kappa, n_fiber", [(-0.5, 1024), (0.0, 1024), (0.5, 1024),
                                                 (-0.9, 4096), (0.9, 4096)])
    def test_circle_matches_alpha_torus(self, kappa, n_fiber, alpha_torus_minus):
        cp = CurvatureParam(kappa)
        tpl = template(cp, 64, 48)
        for op, sign, scale in ((boundary.c_minus, -1.0, 0.5), (boundary.p_minus, 1.0, 1.0)):
            fn = smooth_field(cp, sign, 1)
            grid = tpl.with_values(smooth_field(cp, sign, 2)(*tpl.mesh()))
            for u in (fn, grid):
                want = alpha_torus_minus(u, sign, scale, tpl, 64, n_fiber)
                got = op(u, tpl, 64, n_fiber).values
                assert np.max(np.abs(got - want)) <= 3e-12 * np.max(np.abs(want))


class TestProjection:
    def test_projection_rule_values(self):
        assert boundary.projection_rule(4, 3) == 0.0  # co-kernel
        assert boundary.projection_rule(-7, -2) == 0.0
        assert boundary.projection_rule(0, 1) == 1.0  # range

    def test_sinogram_fixed(self):
        rng = np.random.default_rng(8)
        tab = basis.CoeffTable(nmax=5)
        for n in range(6):
            for k in range(n + 1):
                tab[(n, k)] = complex(rng.normal(), rng.normal())

        def f(z):
            return basis.w_kappa(z, CP) * sum(
                c * basis.zernike_kappa_hat(n, k, z, CP) for (n, k), c in tab.items()
            )

        tpl = template()
        sg = xray.sinogram(f, tpl)
        res = boundary.project_to_range(sg)
        assert res.relative_change < 1e-6
        assert res.removed_odd_norm / sg.norm() < 1e-9

    def test_cokernel_annihilated(self):
        tpl = template()
        for (n, k) in [(2, -1), (0, 1), (3, 5), (4, -2)]:
            fn = lambda beta, alpha, n=n, k=k: basis.psi_kappa_hat(n, k, beta, alpha, CP)
            res = boundary.project_to_range(fn, tpl)
            assert res.projected.norm() < 1e-7

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        tab = {}
        for n in range(5):
            for k in range(-2, n + 3):
                tab[(n, k)] = complex(rng.normal(), rng.normal())

        def fn(beta, alpha):
            out = np.zeros(np.broadcast_shapes(np.shape(beta), np.shape(alpha)), complex)
            for (n, k), c in tab.items():
                out = out + c * basis.psi_kappa_hat(n, k, beta, alpha, CP)
            return out

        tpl = template()
        once = boundary.project_to_range(fn, tpl)
        twice = boundary.project_to_range(once.projected)
        diff = tpl.with_values(twice.projected.values - once.projected.values)
        base = tpl.with_values(fn(*tpl.mesh())).norm()
        assert diff.norm() / base < 1e-8

    def test_self_adjoint(self):
        # <Pu, v> = <u, Pv> for antipodally even u, v
        tpl = template()
        rng = np.random.default_rng(10)

        def rand_fn(seed):
            r = np.random.default_rng(seed)
            tab = [((n, k), complex(r.normal(), r.normal()))
                   for n in range(4) for k in range(-1, n + 2)]

            def fn(beta, alpha):
                out = np.zeros(np.broadcast_shapes(np.shape(beta), np.shape(alpha)), complex)
                for (n, k), c in tab:
                    out = out + c * basis.psi_kappa_hat(n, k, beta, alpha, CP)
                return out

            return fn

        fu, fv = rand_fn(11), rand_fn(12)
        pu = boundary.project_to_range(fu, tpl).projected
        pv = boundary.project_to_range(fv, tpl).projected
        bb, aa = tpl.mesh()
        u = tpl.with_values(fu(bb, aa))
        v = tpl.with_values(fv(bb, aa))
        lhs = xray.inner(pu, v)
        rhs = xray.inner(u, pv)
        assert abs(lhs - rhs) / abs(lhs) < 1e-8

    def test_odd_part_removed_and_reported(self):
        # antipodally odd input: projector reports and removes it
        tpl = template()
        fn = v_fn(2, 0)
        res = boundary.project_to_range(fn, tpl)
        bb, aa = tpl.mesh()
        norm = tpl.with_values(fn(bb, aa)).norm()
        assert res.removed_odd_norm == pytest.approx(norm, rel=1e-10)
        assert res.projected.norm() / norm < 1e-8

    def test_rejects_grid_off_its_template(self):
        # a template with other alpha nodes used to be accepted and its
        # nodes put on a projection of the wrong samples
        cp = CurvatureParam(0.4)
        u = xray.boundary_grid(cp, 32, 16)
        u = u.with_values(u_fn(0, 0, cp)(*u.mesh()))
        other = xray.boundary_grid(cp, 32, 18)
        with pytest.raises(ValueError, match="nodes differ"):
            boundary.project_to_range(u, other)

    def test_rejects_grid_of_other_kappa(self):
        # used to fail only by accident, with "no band ... resolvable"
        cp = CurvatureParam(0.0)
        u = xray.boundary_grid(CurvatureParam(0.4), 32, 16)
        u = u.with_values(u_fn(0, 0, CurvatureParam(0.4))(*u.mesh()))
        with pytest.raises(ValueError, match="kappa=0.4"):
            boundary.project_to_range(u, xray.boundary_grid(cp, 32, 16))

    def test_requires_template_for_callable(self):
        with pytest.raises(ValueError):
            boundary.project_to_range(u_fn(0, 0))

    @pytest.mark.parametrize("sizes", [(128, 511), (0, 512), (128, 0), (1, 512), (128, 1)])
    def test_rejects_bad_torus_sizes(self, sizes):
        # an odd fiber circle has no inward half for the outward half to
        # flip onto, and a size of 0 used to fall back to the default
        nb, nf = sizes
        tpl = template()
        u = tpl.with_values(u_fn(0, 0)(*tpl.mesh()))
        for op in (boundary.c_minus, boundary.p_minus):
            with pytest.raises(ValueError, match="torus size"):
                op(u, tpl, n_beta=nb, n_fiber=nf)

    def test_rejects_grid_without_a_band(self):
        # two alpha nodes do not even hold n = 0 orthonormal
        tpl = template(n_alpha=2)
        with pytest.raises(ValueError, match="no band"):
            boundary.project_to_range(tpl.with_values(np.ones(tpl.shape)))

    def test_torus_size_defaults_only_for_none(self):
        assert boundary._torus_shape(None, None) == (256, 1024)
        assert boundary._torus_shape(2, 2) == (2, 2)
        # the smallest circle is one inward node and its flip
        assert np.allclose(boundary._circle(2), [0.0, np.pi])
        tpl = template()
        u = tpl.with_values(u_fn(1, 2)(*tpl.mesh()))
        assert np.array_equal(boundary.c_minus(u, tpl).values, boundary.c_minus(u, tpl, 256, 1024).values)


class TestPullbackAlgebra:
    def test_phase_family_pullbacks(self):
        # the scattering and antipodal pullbacks permute the phase family:
        # S_A^* e_{p,l} = (-1)^p e_{p,2p-l},  S^* e_{p,l} = (-1)^{p+l} e_{p,2p-l}
        from diskxray.geometry import antipodal_scattering_angles, scattering_angles

        rng = np.random.default_rng(20)
        beta = rng.uniform(0, 2 * np.pi, 40)
        alpha = rng.uniform(-np.pi, np.pi, 40)
        ba, aa_ = antipodal_scattering_angles(beta, alpha, CP)
        bs, as_ = scattering_angles(beta, alpha, CP)
        for p in range(-3, 4):
            for l in range(-4, 5):
                target = basis.e_pl(p, 2 * p - l, beta, alpha, CP)
                got_a = basis.e_pl(p, l, ba, aa_, CP)
                assert np.max(np.abs(got_a - (-1) ** p * target)) < 1e-12
                got_s = basis.e_pl(p, l, bs, as_, CP)
                assert np.max(np.abs(got_s - (-1) ** (p + l) * target)) < 1e-12

    def test_four_symmetry_classes(self):
        # representatives of the four extension/antipodal parity classes
        def member(sigma1, sigma2, p, q):
            if sigma1 == "+" and sigma2 == "+":  # even modes, + combination
                return lambda b, a: basis.e_pl(p, 2 * q, b, a, CP) \
                    + (-1) ** p * basis.e_pl(p, 2 * (p - q), b, a, CP)
            if sigma1 == "-" and sigma2 == "-":  # even modes, - combination
                return lambda b, a: basis.e_pl(p, 2 * q, b, a, CP) \
                    - (-1) ** p * basis.e_pl(p, 2 * (p - q), b, a, CP)
            if sigma1 == "+" and sigma2 == "-":  # odd modes, - combination
                return lambda b, a: basis.e_pl(p, 2 * q + 1, b, a, CP) \
                    - (-1) ** p * basis.e_pl(p, 2 * (p - q) - 1, b, a, CP)
            return lambda b, a: basis.e_pl(p, 2 * q + 1, b, a, CP) \
                + (-1) ** p * basis.e_pl(p, 2 * (p - q) - 1, b, a, CP)

        tpl = template()
        bb, aa = tpl.mesh()
        # indices chosen off the self-paired diagonals p = 2q (even
        # modes) and p = 2q + 1 (odd modes), where one combination
        # collapses to zero
        for sigma1, sigma2, p, q in [("+", "+", 3, 1), ("-", "-", 3, 1),
                                     ("+", "-", 4, 1), ("-", "+", 4, 1)]:
            grid = tpl.with_values(member(sigma1, sigma2, p, q)(bb, aa))
            even, odd_norm = boundary.symmetrize(grid)
            # sigma2 is the antipodal parity: the other part vanishes
            vanishing = odd_norm if sigma2 == "+" else even.norm()
            assert vanishing / grid.norm() < 1e-12, (sigma1, sigma2, vanishing)

    def test_operators_annihilate_wrong_parity(self):
        # P- kills the antipodally even part of its domain (exact on the grid)
        tpl = template()
        p, q = 2, 1
        even_pp = lambda b, a: basis.e_pl(p, 2 * q, b, a, CP) \
            + (-1) ** p * basis.e_pl(p, 2 * (p - q), b, a, CP)
        assert boundary.p_minus(even_pp, tpl, **TORUS).norm() < 1e-8


class TestSymmetrize:
    def test_splits_parities(self):
        tpl = template()
        bb, aa = tpl.mesh()
        mix = tpl.with_values(
            basis.u_prime(2, 3, bb, aa, CP) + basis.v_prime(1, -1, bb, aa, CP)
        )
        even, odd_norm = boundary.symmetrize(mix)
        want_even = tpl.with_values(basis.u_prime(2, 3, bb, aa, CP))
        assert tpl.with_values(even.values - want_even.values).norm() < 1e-10
        want_odd = tpl.with_values(basis.v_prime(1, -1, bb, aa, CP)).norm()
        assert odd_norm == pytest.approx(want_odd, rel=1e-10)

    def test_u_prime_even_v_prime_odd(self):
        # u' is antipodally even and v' odd: symmetrize keeps the one whole
        # and removes the other whole
        tpl = template()
        bb, aa = tpl.mesh()
        u = tpl.with_values(basis.u_prime(2, 3, bb, aa, CP))
        even, odd_norm = boundary.symmetrize(u)
        assert odd_norm / u.norm() < 1e-12
        assert tpl.with_values(even.values - u.values).norm() / u.norm() < 1e-12
        v = tpl.with_values(basis.v_prime(2, 0, bb, aa, CP))
        even, odd_norm = boundary.symmetrize(v)
        assert even.norm() / v.norm() < 1e-12
        assert odd_norm == pytest.approx(v.norm(), rel=1e-12)


class TestRangeSurjectivity:
    def test_sinogram_is_p_minus_of_explicit_preimage(self):
        # every transform image equals P- w for an explicit w in the
        # odd-mode antipodally-odd class: since P- v'_{p,q} = -2i u'_{p,q}
        # on the range indices, the preimage coefficients follow from the
        # analyzed sinogram coefficients
        rng = np.random.default_rng(21)
        tab = basis.CoeffTable(nmax=4)
        for n in range(5):
            for k in range(n + 1):
                tab[(n, k)] = complex(rng.normal(), rng.normal())

        def f(z):
            return basis.w_kappa(z, CP) * sum(
                c * basis.zernike_kappa_hat(n, k, z, CP) for (n, k), c in tab.items()
            )

        tpl = template()
        sg = xray.sinogram(f, tpl)
        coeffs = xray.analyze(sg, 4)
        scale = np.sqrt(1 + CP.kappa) / (4 * np.pi)

        def w(beta, alpha):
            out = np.zeros(np.broadcast_shapes(np.shape(beta), np.shape(alpha)), complex)
            for (n, k), c in coeffs.items():
                p, q = basis.nk_to_pq(n, k)
                out = out + c * scale * (-1) ** n * 1j * basis.v_prime(p, q, beta, alpha, CP)
            return out

        got = boundary.p_minus(w, tpl, **TORUS)
        assert tpl.with_values(got.values - sg.values).norm() / sg.norm() < 1e-8


class TestMoments:
    def test_sinogram_in_range(self):
        rng = np.random.default_rng(13)
        tab = basis.CoeffTable(nmax=4)
        for n in range(5):
            for k in range(n + 1):
                tab[(n, k)] = complex(rng.normal(), rng.normal())

        def f(z):
            return basis.w_kappa(z, CP) * sum(
                c * basis.zernike_kappa_hat(n, k, z, CP) for (n, k), c in tab.items()
            )

        tpl = template()
        sg = xray.sinogram(f, tpl)
        rep = boundary.moment_residuals(sg, 8, 3)
        assert rep.in_range
        assert rep.max_normalized < 1e-7

    def test_cokernel_mode_detected(self):
        tpl = template()
        bb, aa = tpl.mesh()
        u = tpl.with_values(basis.psi_kappa(3, -1, bb, aa, CP))
        rep = boundary.moment_residuals(u, 4, 2)
        table = {(n, k): v for n, k, v in rep.rows}
        assert table[(3, -1)] == pytest.approx(1 / (4 * (1 + CP.kappa)), abs=1e-10)
        others = [v for (n, k), v in table.items() if (n, k) != (3, -1)]
        assert max(others) < 1e-10
        assert not rep.in_range

    def test_zero_grid(self):
        tpl = template()
        rep = boundary.moment_residuals(tpl, 3, 2)
        assert all(v == 0 for _, _, v in rep.rows)
        assert rep.in_range

    def test_kpad_validated(self):
        with pytest.raises(ValueError):
            boundary.moment_residuals(template(), 3, 0)

    def test_nmax_validated(self):
        # used to fail with "not enough values to unpack"
        with pytest.raises(ValueError, match="moment_residuals requires nmax >= 0"):
            boundary.moment_residuals(template(), -1, 1)


class TestSpectralMomentsOracle:
    @pytest.mark.parametrize("kappa", [-0.9, 0.0, 0.4, 0.9])
    @pytest.mark.parametrize("nmax", [0, 6, 16])
    def test_matches_full_grid_quadrature(self, kappa, nmax):
        # every k outside [0, n], on the smallest odd n_beta allowed
        cp = CurvatureParam(kappa)
        kpad = 3
        tpl = xray.boundary_grid(cp, 2 * (nmax + 2 * kpad) + 1, 2 * nmax + 8)
        rng = np.random.default_rng(nmax)
        u = tpl.with_values(rng.normal(size=tpl.shape) + 1j * rng.normal(size=tpl.shape))
        rep = boundary.moment_residuals(u, nmax, kpad)
        modes = [(n, k) for n, k, _ in rep.rows]
        assert modes == [(n, k) for n in range(nmax + 1) for k in range(-kpad, n + kpad + 1)
                         if not 0 <= k <= n]
        bb, aa = tpl.mesh()
        w = tpl.weights()
        want = np.array([abs(np.sum(w * u.values * np.conj(basis.psi_kappa(n, k, bb, aa, cp))))
                         for n, k in modes])
        got = np.array([v for _, _, v in rep.rows])
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_beta_resolution_check(self):
        # |n - 2k| reaches nmax + 2 kpad, which must stay below n_beta / 2
        tpl = template(n_beta=23)
        boundary.moment_residuals(tpl, 5, 3)
        with pytest.raises(ValueError, match="beta nodes"):
            boundary.moment_residuals(tpl, 6, 3)
        with pytest.raises(ValueError, match="beta nodes"):
            boundary.moment_residuals(tpl, 5, 4)


class TestSpectralProjector:
    """project_to_range is the exact orthogonal projector onto the range
    modes the grid resolves; id + C-^2 on the (beta, s) torus, C- applied
    twice to one odd extension, is its slow oracle."""

    @staticmethod
    def mixed(cp, tpl, seed):
        rng = np.random.default_rng(seed)
        bb, aa = tpl.mesh()
        vals = sum(complex(rng.normal(), rng.normal()) * basis.psi_kappa_hat(n, k, bb, aa, cp)
                   for n in range(7) for k in range(-2, n + 3))
        return tpl.with_values(vals + 0.1 * rng.normal(size=tpl.shape))

    @staticmethod
    def band_limited(cp, tpl, seed):
        # range plus co-kernel modes, n <= 6, k in [-2, n + 2]
        rng = np.random.default_rng(seed)
        bb, aa = tpl.mesh()
        return tpl.with_values(sum(
            complex(rng.normal(), rng.normal()) * basis.psi_kappa_hat(n, k, bb, aa, cp)
            for n in range(7) for k in range(-2, n + 3)))

    @pytest.mark.parametrize("kappa, torus, tol", [
        (-0.9, (256, 1024), 1e-11),
        (-0.5, (256, 1024), 1e-11),
        (0.0, (256, 1024), 1e-11),
        (0.4, (256, 1024), 1e-11),
        (0.9, (256, 1024), 1e-11),
    ], ids=["-0.9-256x1024", "-0.5-256x1024", "0.0-256x1024", "0.4-256x1024", "0.9-256x1024"])
    def test_matches_torus_operator_chain(self, kappa, torus, tol):
        # measured 1.2e-12 to 8.1e-12; the grid's own interpolation in s
        # sets that floor (1.0e-10 on a 128 x 128 torus, 2.4e-11 at 0.9 on
        # 512 x 2048)
        nb, nf = torus
        cp = CurvatureParam(kappa)
        u = self.band_limited(cp, xray.boundary_grid(cp, 64, 48), 3)
        got = boundary.project_to_range(u)
        u_even, removed = boundary.symmetrize(u)
        freqs, spec, phase = boundary._extension_spectrum(u_even, -1.0, u, nb, nf)
        cc = boundary._minus_spectrum(boundary._minus_spectrum(spec, phase, 0.5), phase, 0.5)
        want = u_even.values + boundary._eval_spectrum(freqs, cc, u)
        assert np.linalg.norm(got.projected.values - want) <= tol * np.linalg.norm(want)
        assert got.removed_odd_norm == removed

    @pytest.mark.parametrize("kappa", [-0.99, -0.9, 0.9, 0.99])
    def test_recovers_range_part_exactly(self, kappa):
        # the range_check input on the CLI grid: every range mode n <= 16
        # plus co-kernel modes k = -1, n + 1; the torus chain errs by
        # 0.15-0.65 here
        cp = CurvatureParam(kappa)
        tpl = xray.boundary_grid(cp, 96, 64)
        bb, aa = tpl.mesh()
        rng = np.random.default_rng(5)
        coef = lambda: complex(rng.normal(), rng.normal())
        u_range = sum(coef() * basis.psi_kappa_hat(n, k, bb, aa, cp)
                      for n in range(17) for k in range(n + 1))
        co = sum(coef() * basis.psi_kappa_hat(n, k, bb, aa, cp)
                 for n in range(17) for k in (-1, n + 1))
        got = boundary.project_to_range(tpl.with_values(u_range + 0.3 * co))
        assert np.linalg.norm(got.projected.values - u_range) <= 1e-13 * np.linalg.norm(u_range)
        assert got.band == 29

    def test_exact_on_its_band(self):
        # idempotent and self-adjoint in the grid inner product to rounding
        # on white noise, and the identity on every range mode n <= band
        cp = CurvatureParam(0.9)
        tpl = xray.boundary_grid(cp, 96, 64)
        rng = np.random.default_rng(6)
        noise = lambda: tpl.with_values(rng.normal(size=tpl.shape) + 1j * rng.normal(size=tpl.shape))
        u, v = noise(), noise()
        pu = boundary.project_to_range(u)
        pv = boundary.project_to_range(v).projected
        ppu = boundary.project_to_range(pu.projected).projected
        assert np.linalg.norm(ppu.values - pu.projected.values) <= 1e-13 * np.linalg.norm(u.values)
        lhs, rhs = xray.inner(pu.projected, v), xray.inner(u, pv)
        assert abs(lhs - rhs) <= 1e-13 * u.norm() * v.norm()
        bb, aa = tpl.mesh()
        for n, k in [(0, 0), (pu.band, 0), (pu.band, pu.band // 2)]:
            mode = tpl.with_values(basis.psi_kappa_hat(n, k, bb, aa, cp))
            assert boundary.project_to_range(mode).relative_change < 1e-13

    def test_memory_bounded(self):
        cp = CurvatureParam(0.4)
        u = self.mixed(cp, xray.boundary_grid(cp, 96, 64), 4)
        boundary.project_to_range(u)  # warm the FFT plans
        tracemalloc.start()
        try:
            boundary.project_to_range(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestInterpolationFidelity:
    def test_sinogram_interpolant(self):
        # quadratured sinograms interpolate to near machine precision
        f = lambda z: basis.w_kappa(z, CP) * (
            0.7 * basis.zernike_kappa_hat(1, 0, z, CP)
            + 0.2j * basis.zernike_kappa_hat(3, 2, z, CP)
        )
        tpl = template()
        sg = xray.sinogram(f, tpl)
        fn = sg.interpolant()
        rng = np.random.default_rng(14)
        bq = rng.uniform(0, 2 * np.pi, 200)
        aq = rng.uniform(-np.pi / 2, np.pi / 2, 200)
        want = (
            xray.singular_value(1, CP) * 0.7 * basis.psi_kappa_hat(1, 0, bq, aq, CP)
            + xray.singular_value(3, CP) * 0.2j * basis.psi_kappa_hat(3, 2, bq, aq, CP)
        )
        assert np.max(np.abs(fn(bq, aq) - want)) < 1e-9
