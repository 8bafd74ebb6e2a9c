"""Command-line surface: config handling, file formats, all subcommands."""

import csv
import json
import math

import numpy as np
import pytest

from diskxray import basis, cli, fileio, xray
from diskxray.geometry import CurvatureParam, exit_time


def run_cli(*args):
    return cli.main([str(a) for a in args])


def write_config(path, **fields):
    with open(path, "w") as fh:
        json.dump(fields, fh)
    return str(path)


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = cli.RunConfig().validate()
        assert cfg.kappa == 0.0 and cfg.nmax == 6

    def test_rejects_bad_kappa(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(kappa=1.5).validate()

    def test_rejects_unknown_keys(self, tmp_path):
        path = write_config(tmp_path / "c.json", kappa=0.2, wavelength=3)
        with pytest.raises(cli.ConfigError, match="unknown config keys"):
            cli.RunConfig.load(path)

    def test_rejects_unknown_noise_keys(self):
        with pytest.raises(cli.ConfigError, match="noise"):
            cli.RunConfig(noise={"seed": 0, "sigma": 1}).validate()

    def test_rejects_bad_sizes(self):
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(n_beta=0).validate()
        with pytest.raises(cli.ConfigError):
            cli.RunConfig(nmax=2.5).validate()

    def test_hash_stable_and_sensitive(self):
        a = cli.RunConfig(kappa=0.3).validate()
        b = cli.RunConfig(kappa=0.3).validate()
        c = cli.RunConfig(kappa=0.4).validate()
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    def test_load_and_override(self, tmp_path):
        path = write_config(tmp_path / "c.json", kappa=0.2, nmax=4)
        cfg = cli.RunConfig.load(path)
        assert cfg.kappa == 0.2 and cfg.nmax == 4


class TestFileFormats:
    def test_sinogram_round_trip(self, tmp_path):
        cp = CurvatureParam(0.4)
        grid = xray.boundary_grid(cp, 8, 12)
        rng = np.random.default_rng(0)
        grid = grid.with_values(rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
        path = tmp_path / "s.csv"
        fileio.write_sinogram_csv(path, grid)
        back = fileio.read_sinogram_csv(path, xray.boundary_grid(cp, 8, 12))
        assert np.array_equal(back.values, grid.values)  # 17 digits round-trip exactly

    def test_sinogram_header(self, tmp_path):
        cp = CurvatureParam(0.0)
        grid = xray.boundary_grid(cp, 4, 4)
        path = tmp_path / "s.csv"
        fileio.write_sinogram_csv(path, grid)
        with open(path) as fh:
            assert fh.readline().strip() == "beta,alpha,re,im"

    def test_grid_mismatch_rejected(self, tmp_path):
        cp = CurvatureParam(0.4)
        grid = xray.boundary_grid(cp, 8, 12)
        path = tmp_path / "s.csv"
        fileio.write_sinogram_csv(path, grid)
        with pytest.raises(ValueError, match="nodes"):
            fileio.read_sinogram_csv(path, xray.boundary_grid(CurvatureParam(0.5), 8, 12))
        with pytest.raises(ValueError, match="rows"):
            fileio.read_sinogram_csv(path, xray.boundary_grid(cp, 8, 16))

    def test_diskgrid_round_trip(self, tmp_path):
        cp = CurvatureParam(-0.3)
        grid = xray.disk_grid(cp, 6, 8)
        rng = np.random.default_rng(1)
        grid = grid.with_values(rng.normal(size=grid.shape) + 0j)
        path = tmp_path / "d.csv"
        fileio.write_diskgrid_csv(path, grid)
        back = fileio.read_diskgrid_csv(path, xray.disk_grid(cp, 6, 8))
        assert np.array_equal(back.values, grid.values)

    def test_coeff_round_trip(self, tmp_path):
        cp = CurvatureParam(0.7)
        tab = basis.CoeffTable(nmax=3)
        tab[(2, 1)] = 0.5 - 0.25j
        tab[(0, 0)] = 1.0
        path = tmp_path / "c.json"
        fileio.write_coeff_json(path, tab, cp)
        back, kappa = fileio.read_coeff_json(path)
        assert kappa == 0.7
        assert back[(2, 1)] == 0.5 - 0.25j
        assert [nk for nk, _ in back.items()] == [(0, 0), (2, 1)]

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("beta,alpha,re,im\n0,0,1,0\n0,oops,1,0\n")
        with pytest.raises(ValueError, match="bad.csv:3"):
            fileio.read_sinogram_csv(path, xray.boundary_grid(CurvatureParam(0.0), 1, 2))

    def test_empty_profile_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        fileio.write_profiles_csv(path, [])
        assert path.read_bytes() == b"n,k,rho,Re,Im\r\n"

    def test_values_shape_validated(self):
        g = xray.boundary_grid(CurvatureParam(0.1), 4, 6)
        with pytest.raises(ValueError, match="shape"):
            g.with_values(np.zeros((4, 5)))
        d = xray.disk_grid(CurvatureParam(0.1), 4, 6)
        with pytest.raises(ValueError, match="shape"):
            d.with_values(np.zeros((5, 6)))


class TestBasisCommand:
    def test_euclidean_linear_profile(self, tmp_path):
        assert run_cli("--kappa", 0, "--nmax", 1, "--out", tmp_path, "basis") == 0
        rows = list(csv.DictReader(open(tmp_path / "zernike_radial.csv")))
        ours = [r for r in rows if r["n"] == "1" and r["k"] == "0"]
        for r in ours:
            assert float(r["Re"]) == pytest.approx(float(r["rho"]), abs=1e-14)

    def test_center_scaling(self, tmp_path):
        assert run_cli("--kappa", 0.5, "--nmax", 2, "--out", tmp_path, "basis") == 0
        rows = list(csv.DictReader(open(tmp_path / "zernike_radial.csv")))
        first = [r for r in rows if r["n"] == "2" and r["k"] == "1" and float(r["rho"]) == 0.0][0]
        want = math.sqrt(1 / 3) * basis.zernike(2, 1, 0.0)
        assert float(first["Re"]) == pytest.approx(float(want.real), abs=1e-14)

    def test_sidecar_hash(self, tmp_path):
        run_cli("--kappa", 0.1, "--out", tmp_path, "basis")
        meta = json.loads((tmp_path / "basis.meta.json").read_text())
        cfg = cli.RunConfig(**{k: v for k, v in meta["config"].items()})
        assert cfg.validate().hash() == meta["config_hash"]


class TestForwardCommand:
    def test_unit_phantom_is_exit_time(self, tmp_path):
        assert run_cli("--kappa", 0.3, "--out", tmp_path, "forward", "--phantom", "unit") == 0
        cfg = cli.RunConfig(kappa=0.3).validate()
        grid = fileio.read_sinogram_csv(tmp_path / "sinogram.csv", cfg.boundary_template())
        tau = exit_time(grid.alpha, CurvatureParam(0.3))
        assert np.max(np.abs(grid.values - tau[None, :])) < 1e-10

    def test_single_mode_coefficient_file(self, tmp_path):
        cp = CurvatureParam(0.4)
        tab = basis.CoeffTable(nmax=2)
        tab[(0, 0)] = 1.0
        fileio.write_coeff_json(tmp_path / "f.json", tab, cp)
        assert run_cli("--kappa", 0.4, "--out", tmp_path, "forward",
                       "--phantom", tmp_path / "f.json") == 0
        cfg = cli.RunConfig(kappa=0.4).validate()
        grid = fileio.read_sinogram_csv(tmp_path / "sinogram.csv", cfg.boundary_template())
        bb, aa = grid.mesh()
        want = xray.singular_value(0, cp) * basis.psi_kappa_hat(0, 0, bb, aa, cp)
        assert np.max(np.abs(grid.values - want)) < 1e-9

    def test_kappa_mismatch_rejected(self, tmp_path):
        tab = basis.CoeffTable(nmax=1)
        tab[(0, 0)] = 1.0
        fileio.write_coeff_json(tmp_path / "f.json", tab, CurvatureParam(0.2))
        assert run_cli("--kappa", 0.4, "--out", tmp_path, "forward",
                       "--phantom", tmp_path / "f.json") == cli.EXIT_CONFIG

    def test_deterministic_output(self, tmp_path):
        for sub in ("a", "b"):
            run_cli("--kappa", 0.3, "--seed", 7, "--noise", 0.01,
                    "--out", tmp_path / sub, "forward", "--phantom", "unit")
        assert (tmp_path / "a/sinogram.csv").read_bytes() == (tmp_path / "b/sinogram.csv").read_bytes()

    def test_noise_is_seeded(self, tmp_path):
        for seed, sub in ((1, "a"), (2, "b")):
            run_cli("--kappa", 0.3, "--seed", seed, "--noise", 0.01,
                    "--out", tmp_path / sub, "forward", "--phantom", "unit")
        assert (tmp_path / "a/sinogram.csv").read_bytes() != (tmp_path / "b/sinogram.csv").read_bytes()


class TestInvertCommand:
    def test_round_trip(self, tmp_path):
        cp = CurvatureParam(0.4)
        tab = basis.CoeffTable(nmax=6)
        tab[(1, 0)] = 0.7
        tab[(3, 2)] = 0.2j
        fileio.write_coeff_json(tmp_path / "f.json", tab, cp)
        run_cli("--kappa", 0.4, "--nmax", 6, "--out", tmp_path, "forward",
                "--phantom", tmp_path / "f.json")
        assert run_cli("--kappa", 0.4, "--nmax", 6, "--out", tmp_path / "inv",
                       "invert", "--in", tmp_path / "sinogram.csv") == 0
        report = json.loads((tmp_path / "inv/report.json").read_text())
        got = {(c["n"], c["k"]): c["re"] + 1j * c["im"] for c in report["coefficients"]}
        assert got[(1, 0)] == pytest.approx(0.7, abs=1e-9)
        assert got[(3, 2)] == pytest.approx(0.2j, abs=1e-9)
        small = [abs(v) for nk, v in got.items() if nk not in ((1, 0), (3, 2))]
        assert max(small) < 1e-9
        assert report["residual"] < 1e-8
        assert report["moment_verdict_in_range"]
        # reconstruction matches the phantom on the disk grid
        cfg = cli.RunConfig(kappa=0.4, nmax=6).validate()
        recon = fileio.read_diskgrid_csv(tmp_path / "inv/reconstruction.csv", cfg.disk_template())
        pts = recon.points()
        truth = basis.w_kappa(pts, cp) * (
            0.7 * basis.zernike_kappa_hat(1, 0, pts, cp)
            + 0.2j * basis.zernike_kappa_hat(3, 2, pts, cp)
        )
        num = recon.with_values(recon.values - truth).norm()
        den = recon.with_values(truth).norm()
        assert num / den < 1e-6

    def test_zero_sinogram(self, tmp_path):
        cfg = cli.RunConfig(kappa=0.2).validate()
        fileio.write_sinogram_csv(tmp_path / "z.csv", cfg.boundary_template())
        assert run_cli("--kappa", 0.2, "--out", tmp_path / "o", "invert",
                       "--in", tmp_path / "z.csv") == 0
        report = json.loads((tmp_path / "o/report.json").read_text())
        assert all(c["re"] == 0 and c["im"] == 0 for c in report["coefficients"])

    def test_noise_amplification_within_bound(self, tmp_path):
        # over 20 seeds the measured in-band amplification stays within a
        # factor 2 of the reported bound 1/sigma_min
        kappa, nmax = 0.4, 8
        cp = CurvatureParam(kappa)
        cfg = cli.RunConfig(kappa=kappa, nmax=nmax, n_beta=64, n_alpha=48,
                            n_rho=48, n_omega=32).validate()
        tpl = cfg.boundary_template()
        tab = basis.CoeffTable(nmax=nmax)
        tab[(1, 0)] = 1.0
        f = lambda z: basis.w_kappa(z, cp) * basis.zernike_kappa_hat(1, 0, z, cp)
        clean = xray.sinogram(f, tpl, cp)
        clean_res = xray.invert(clean, nmax, cp, disk_template=cfg.disk_template())
        bound = clean_res.noise_amplification_bound
        assert bound == pytest.approx(math.sqrt(nmax + 1) * math.sqrt(1 - kappa) / (2 * math.sqrt(math.pi)))
        rms = math.sqrt(float(np.mean(np.abs(clean.values) ** 2)))
        ratios = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noise = 1e-2 * rms * (rng.normal(size=tpl.shape) + 1j * rng.normal(size=tpl.shape))
            noisy = clean.with_values(clean.values + noise)
            res = xray.invert(noisy, nmax, cp, disk_template=cfg.disk_template())
            diff = basis.CoeffTable(nmax=nmax)
            for (n, k), c in res.coeffs.items():
                diff[(n, k)] = c - clean_res.coeffs[(n, k)]
            err = math.sqrt(diff.norm_sq())
            inband = basis.CoeffTable(nmax=nmax)
            for (n, k), c in xray.analyze(noisy, nmax, cp).items():
                inband[(n, k)] = c - xray.singular_value(n, cp) * clean_res.coeffs[(n, k)]
            ratios.append(err / math.sqrt(inband.norm_sq()))
        mean_ratio = np.exp(np.mean(np.log(ratios)))
        assert 0.5 * bound <= mean_ratio <= 2.0 * bound


class TestProjectCommand:
    def test_range_input_unchanged(self, tmp_path):
        cp = CurvatureParam(0.3)
        tab = basis.CoeffTable(nmax=4)
        tab[(2, 1)] = 1.0
        tab[(4, 0)] = 0.5j
        fileio.write_coeff_json(tmp_path / "f.json", tab, cp)
        run_cli("--kappa", 0.3, "--out", tmp_path, "forward", "--phantom", tmp_path / "f.json")
        assert run_cli("--kappa", 0.3, "--out", tmp_path / "p", "project",
                       "--in", tmp_path / "sinogram.csv") == 0
        report = json.loads((tmp_path / "p/projection_report.json").read_text())
        assert report["relative_change"] < 1e-6

    def test_cokernel_removed(self, tmp_path):
        cp = CurvatureParam(0.3)
        cfg = cli.RunConfig(kappa=0.3).validate()
        tpl = cfg.boundary_template()
        bb, aa = tpl.mesh()
        grid = tpl.with_values(basis.psi_kappa_hat(2, -1, bb, aa, cp))
        fileio.write_sinogram_csv(tmp_path / "u.csv", grid)
        assert run_cli("--kappa", 0.3, "--out", tmp_path / "p", "project",
                       "--in", tmp_path / "u.csv") == 0
        report = json.loads((tmp_path / "p/projection_report.json").read_text())
        assert report["relative_change"] == pytest.approx(1.0, abs=1e-6)
        out = fileio.read_sinogram_csv(tmp_path / "p/projected.csv", tpl)
        assert out.norm() / grid.norm() < 1e-6

    def test_zero_input(self, tmp_path):
        cfg = cli.RunConfig(kappa=0.3).validate()
        fileio.write_sinogram_csv(tmp_path / "z.csv", cfg.boundary_template())
        assert run_cli("--kappa", 0.3, "--out", tmp_path / "p", "project",
                       "--in", tmp_path / "z.csv") == 0
        out = fileio.read_sinogram_csv(tmp_path / "p/projected.csv", cfg.boundary_template())
        assert out.norm() == 0


class TestMomentsCommand:
    def test_emits_csv(self, tmp_path):
        cp = CurvatureParam(0.2)
        cfg = cli.RunConfig(kappa=0.2).validate()
        tpl = cfg.boundary_template()
        bb, aa = tpl.mesh()
        grid = tpl.with_values(basis.psi_kappa(1, -1, bb, aa, cp))
        fileio.write_sinogram_csv(tmp_path / "u.csv", grid)
        assert run_cli("--kappa", 0.2, "--nmax", 3, "--out", tmp_path / "m",
                       "moments", "--in", tmp_path / "u.csv") == 0
        rows = list(csv.DictReader(open(tmp_path / "m/moments.csv")))
        assert rows[0].keys() == {"n", "k", "abs_inner"}
        table = {(int(r["n"]), int(r["k"])): float(r["abs_inner"]) for r in rows}
        assert table[(1, -1)] == pytest.approx(1 / (4 * 1.2), abs=1e-10)
        meta = json.loads((tmp_path / "m/moments.meta.json").read_text())
        assert meta["in_range"] is False


class TestSpectrumCommand:
    def test_values(self, tmp_path):
        assert run_cli("--kappa", 0.5, "--nmax", 3, "--out", tmp_path, "spectrum") == 0
        rows = list(csv.DictReader(open(tmp_path / "spectrum.csv")))
        assert len(rows) == 10
        for r in rows:
            n = int(r["n"])
            want = 2 * math.sqrt(math.pi) / (math.sqrt(0.5) * math.sqrt(n + 1))
            assert float(r["sigma"]) == pytest.approx(want, abs=1e-12)


class TestSelftestCommand:
    def test_passes_at_moderate_kappa(self, capsys):
        assert run_cli("--kappa", 0.35, "selftest") == 0
        out = capsys.readouterr().out
        assert "all" in out and "FAIL" not in out

    def test_near_degenerate_warns_but_runs(self, capsys):
        code = run_cli("--kappa", 0.999, "selftest")
        err = capsys.readouterr().err
        assert "warning" in err and "degenerate" in err
        # the suite still executed end to end (code may be 0 or 3 at this
        # extreme; what matters is that it was not a config rejection)
        assert code in (0, cli.EXIT_NUMERICAL)


class TestExitCodes:
    def test_config_error(self):
        assert run_cli("--kappa", 1.5, "spectrum") == cli.EXIT_CONFIG

    def test_missing_input_is_config_error(self, tmp_path):
        assert run_cli("--kappa", 0.2, "--out", tmp_path, "invert") == cli.EXIT_CONFIG

    def test_unreadable_input_is_io_error(self, tmp_path):
        assert run_cli("--kappa", 0.2, "--out", tmp_path, "invert",
                       "--in", tmp_path / "missing.csv") == cli.EXIT_IO

    def test_malformed_sinogram_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("beta,alpha,re,im\n0,0,nope,0\n")
        assert run_cli("--kappa", 0.2, "--out", tmp_path, "invert",
                       "--in", bad) == cli.EXIT_CONFIG

    def test_grid_mismatch_is_config_error(self, tmp_path):
        cfg = cli.RunConfig(kappa=0.2, n_beta=8, n_alpha=8).validate()
        fileio.write_sinogram_csv(tmp_path / "s.csv", cfg.boundary_template())
        # default config expects a different grid
        assert run_cli("--kappa", 0.2, "--out", tmp_path, "invert",
                       "--in", tmp_path / "s.csv") == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command", ["invert", "project", "moments"])
    def test_non_finite_sinogram_is_numerical_error(self, tmp_path, command):
        cfg = cli.RunConfig(kappa=0.2).validate()
        src = tmp_path / "s.csv"
        fileio.write_sinogram_csv(src, cfg.boundary_template())
        lines = src.read_text().splitlines()
        beta, alpha, _, _ = lines[1].split(",")
        lines[1] = f"{beta},{alpha},nan,0"
        src.write_text("\n".join(lines) + "\n")
        assert run_cli("--kappa", 0.2, "--out", tmp_path / "o", command,
                       "--in", src) == cli.EXIT_NUMERICAL
        assert not any((tmp_path / "o").glob("*.json"))

    def test_malformed_coefficients_is_config_error(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"kappa": 0.2, "nmax": 1, "entries": [{"n": 0}]}')
        assert run_cli("--kappa", 0.2, "--out", tmp_path, "forward",
                       "--phantom", f) == cli.EXIT_CONFIG
