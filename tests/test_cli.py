"""Command-line surface: config handling, file formats, all subcommands."""

import csv
import io
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from diskxray import basis, cli, fileio, selftest, xray
from diskxray.geometry import CurvatureParam, exit_time


def run_cli(*args):
    return cli.main([str(a) for a in args])


def write_config(path, **fields):
    with open(path, "w") as fh:
        json.dump(fields, fh)
    return str(path)


def read_rows(path, reader=csv.DictReader):
    with open(path, newline="") as fh:
        return list(reader(fh))


def fmt(x):
    """One CSV field as every writer must write it: 17 significant
    digits, the text of ``b"%.17g" % float(x)``."""
    return format(float(x), ".17g")


def per_row_bytes(header, rows):
    """The bytes of `csv.writer` over `fmt`, one `writerow` per row: the
    oracle of every CSV file the library writes."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(x) for x in row])
    return buf.getvalue().encode()


def read_body(path, names, shape=None):
    """The columns of a grid CSV file's body, from the file opened and its
    header checked as `fileio.read_sinogram_csv` does: by the one-pass
    `_read_node_text` for a grid of `shape` (flattened, or None when it
    refuses the body), or by the per-field `_read_columns` without one."""
    with open(path, newline="") as fh:
        fileio._body_offset(fh, path, names)
        if shape is None:
            return fileio._read_columns(fh, path, len(names))
        cols = fileio._read_node_text(fh, shape)
    return None if cols is None else [np.ravel(c) for c in cols]


def read_diskgrid(path, template):
    """A disk-grid CSV, as `fileio.write_diskgrid_csv` writes it, read onto
    the template by `np.loadtxt`: the header must be ``rho,omega,re,im``
    and the nodes the template's, row-major, to 1e-12 absolute.  The
    library writes disk grids but reads none."""
    with open(path) as fh:
        assert fh.readline().rstrip("\n") == "rho,omega,re,im"
        rho, omega, re, im = np.loadtxt(fh, delimiter=",", ndmin=2).T
    assert np.allclose(rho.reshape(template.shape), template.rho[:, None], atol=1e-12, rtol=0)
    assert np.allclose(omega.reshape(template.shape), template.omega[None, :], atol=1e-12, rtol=0)
    values = np.empty(rho.size, dtype=complex)
    values.real, values.imag = re, im  # re + 1j * im would turn -0.0 into 0.0
    return template.with_values(values.reshape(template.shape))


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

    @pytest.mark.parametrize("key", ["fiber_fft", "torus_beta", "fiber_nodes", "geodesic_nodes"])
    def test_rejects_removed_torus_keys(self, tmp_path, capsys, key):
        # these sizes configure nothing (no command integrates along
        # geodesics) and are no longer config fields
        path = write_config(tmp_path / "c.json", **{key: 512})
        assert run_cli("--config", path, "--out", tmp_path / "o", "spectrum") == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("fields, name", [
        ({"noise": 3}, "noise"),
        ({"noise": {"level": "a"}}, "noise.level"),
        ({"reg": {"sigma_cutoff": "z"}}, "reg.sigma_cutoff"),
        ({"noise": {"seed": 1.5}}, "noise.seed"),
        ({"nmax": True}, "nmax"),
        ({"kappa": "0.4"}, "kappa"),
        ({"noise": {"seed": -1}}, "noise.seed"),
        ({"n_beta": "64"}, "n_beta"),
        ({"reg": []}, "reg"),
        ({"input": 3}, "input"),
        ({"reg": {"kind": "sigma_cutoff", "sigma_cutoff": -1}}, "reg.sigma_cutoff"),
        ({"reg": {"kind": "truncation", "sigma_cutoff": 5}}, "reg.sigma_cutoff"),
        ({"noise": {"level": -0.5}}, "noise level"),
        ({"reg": {"kind": "tikhonov"}}, "reg.kind"),
    ])
    def test_bad_values_exit_config(self, tmp_path, capsys, fields, name):
        # rejected with the field named, never coerced or left to a traceback
        path = write_config(tmp_path / "c.json", **fields)
        assert run_cli("--config", path, "--out", tmp_path / "o", "spectrum") == cli.EXIT_CONFIG
        assert f"config error: {name} " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config {path}: "),
        ("{kappa: 0.2}", "config {path} is not valid JSON: "),
        ("[0.2]", "config {path} must hold a JSON object, got [0.2]\n"),
    ], ids=["missing", "not-json", "not-object"])
    def test_unloadable_config_exits_config(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        assert run_cli("--config", path, "--out", tmp_path / "o", "spectrum") == cli.EXIT_CONFIG
        assert "config error: " + message.format(path=path) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_meaningful_reg_validates(self):
        for reg in ({"kind": "truncation", "sigma_cutoff": 0.0},
                    {"kind": "sigma_cutoff", "sigma_cutoff": 0.5}):
            assert cli.RunConfig(reg=dict(reg)).validate().reg == reg

    def test_flags_on_a_bad_noise_exit_config(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", noise=3)
        assert run_cli("--config", path, "--seed", 2, "--out", tmp_path / "o", "spectrum") == cli.EXIT_CONFIG
        assert "config error: noise " in capsys.readouterr().err

    def test_kappa_stored_as_float(self, tmp_path):
        cfg = cli.RunConfig.load(write_config(tmp_path / "c.json", kappa=0)).validate()
        assert type(cfg.kappa) is float
        assert cfg.hash() == cli.RunConfig(kappa=0.0).validate().hash()

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

    def test_wrong_header_rejected(self, tmp_path):
        grid = xray.boundary_grid(CurvatureParam(0.0), 4, 4)
        path = tmp_path / "s.csv"
        fileio.write_sinogram_csv(path, grid)
        path.write_text(path.read_text().replace("beta,alpha,re,im", "beta,alpha,re,imag", 1))
        with pytest.raises(ValueError) as info:
            fileio.read_sinogram_csv(path, grid)
        assert str(info.value) == f"expected header beta,alpha,re,im in {path}, got ['beta', 'alpha', 're', 'imag']"

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
        back = read_diskgrid(path, xray.disk_grid(cp, 6, 8))
        assert np.array_equal(back.values, grid.values)

    @staticmethod
    def _write_by_rows(path, header, outer, inner, values):
        """One `fmt` per field and one `writerow` per node: the bytes the
        grid writers must reproduce."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i, a in enumerate(outer):
                for j, b in enumerate(inner):
                    v = values[i, j]
                    writer.writerow([fmt(a), fmt(b), fmt(v.real), fmt(v.imag)])

    @staticmethod
    def _split(rows):
        """(short, long) factors of `rows`, the short one its least divisor
        above 1, so a grid of that many rows keeps its Gauss-Legendre
        axis small."""
        d = next(d for d in range(2, rows + 1) if rows % d == 0)
        return d, rows // d

    def test_grid_writers_match_per_row_bytes(self, tmp_path):
        # grids below, at and past one write block, blocks ending mid-row,
        # and the CLI's default disk grid
        cp = CurvatureParam(0.3)
        special = np.array([-0.0, 5e-324, 1e300, 3.0, -7.0, 2.0**53, 0.1, -1 / 3, -2.5e-300, 0.0])
        block = fileio._BLOCK_ROWS
        sino = ["beta", "alpha", "re", "im"], "beta", "alpha"
        disk = ["rho", "omega", "re", "im"], "rho", "omega"
        cases = [
            (fileio.write_sinogram_csv, fileio.read_sinogram_csv, xray.boundary_grid(cp, 4, 6), *sino),
            (fileio.write_diskgrid_csv, read_diskgrid, xray.disk_grid(cp, 3, 8), *disk),
            (fileio.write_diskgrid_csv, read_diskgrid,
             cli.RunConfig(kappa=0.3).validate().disk_template(), *disk),
        ]
        for rows in (block - 1, block, block + 1, 2 * block + 3):
            short, long = self._split(rows)
            cases += [
                (fileio.write_sinogram_csv, fileio.read_sinogram_csv,
                 xray.boundary_grid(cp, long, short), *sino),
                (fileio.write_diskgrid_csv, read_diskgrid,
                 xray.disk_grid(cp, short, long), *disk),
            ]
        for write, read, template, header, outer, inner in cases:
            idx = np.arange(template.values.size).reshape(template.shape)
            values = np.empty(template.shape, dtype=complex)
            values.real = special[idx % len(special)]
            values.imag = special[(3 * idx + 1) % len(special)]
            grid = template.with_values(values)
            write(tmp_path / "new.csv", grid)
            self._write_by_rows(tmp_path / "old.csv", header, getattr(grid, outer),
                                getattr(grid, inner), values)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes(), template.shape
            back = read(tmp_path / "new.csv", template)
            assert np.array_equal(back.values.view(np.int64), values.view(np.int64)), template.shape

    @staticmethod
    def _transient_mb(fn, *args):
        """tracemalloc peak of fn(*args) beyond what is held after it
        returns (its result included), in MB."""
        tracemalloc.start()
        try:
            result = fn(*args)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del result
        return (peak - held) / 1e6

    @pytest.mark.parametrize("n_rho", [128, 512])
    def test_grid_writer_memory_is_bounded(self, tmp_path, n_rho):
        # one block of text at a time: 10 MB at 128x256 when the whole file
        # was formatted before the first write, and 4x that at 512x256
        cp = CurvatureParam(0.4)
        rng = np.random.default_rng(2)
        grid = xray.disk_grid(cp, n_rho, 256)
        grid = grid.with_values(rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
        assert self._transient_mb(fileio.write_diskgrid_csv, tmp_path / "d.csv", grid) <= 2.0

    def test_grid_reader_memory_is_bounded(self, tmp_path):
        # loadtxt reads the open file; no copy of the whole body is made
        cp = CurvatureParam(0.4)
        rng = np.random.default_rng(3)
        grid = xray.boundary_grid(cp, 96, 64)
        grid = grid.with_values(rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
        fileio.write_sinogram_csv(tmp_path / "s.csv", grid)
        template = xray.boundary_grid(cp, 96, 64)
        assert self._transient_mb(fileio.read_sinogram_csv, tmp_path / "s.csv", template) <= 1.0

    def test_node_match_is_absolute(self, tmp_path):
        # relative node errors of 1e-5 are far outside the 1e-12 tolerance
        cp = CurvatureParam(0.4)
        template = xray.boundary_grid(cp, 96, 64)
        path = tmp_path / "s.csv"
        fileio._write_grid_csv(path, ["beta", "alpha", "re", "im"], template.beta * (1 + 1e-5),
                               template.alpha * (1 + 9e-6), template.values)
        with pytest.raises(ValueError, match="nodes"):
            fileio.read_sinogram_csv(path, template)

    def test_node_off_by_1e9_rejected(self, tmp_path):
        cfg = cli.RunConfig(kappa=0.2).validate()
        template = cfg.boundary_template()
        beta = template.beta.copy()
        beta[5] += 1e-9
        path = tmp_path / "s.csv"
        fileio._write_grid_csv(path, ["beta", "alpha", "re", "im"], beta, template.alpha,
                               template.values)
        with pytest.raises(ValueError, match="nodes"):
            fileio.read_sinogram_csv(path, template)
        assert run_cli("--kappa", 0.2, "--out", tmp_path / "o", "invert", "--in", path) == cli.EXIT_CONFIG

    def test_exact_nodes_accepted(self, tmp_path):
        cfg = cli.RunConfig(kappa=-0.9).validate()
        path = tmp_path / "s.csv"
        fileio.write_sinogram_csv(path, cfg.boundary_template())
        assert fileio.read_sinogram_csv(path, cfg.boundary_template()).shape == (cfg.n_beta, cfg.n_alpha)
        assert run_cli("--kappa", -0.9, "--out", tmp_path / "o", "project", "--in", path) == cli.EXIT_OK

    def test_g17_matches_percent_format_sweep(self):
        # every decimal exponent, powers of ten and their neighbours, exact
        # rounding ties, and round-ups across a decade or the fixed/exponent
        # boundary, against Python's %.17g byte for byte
        rng = np.random.default_rng(18)
        sweep = [float(f"{m}e{e - 16}") for e in range(-324, 309)
                 for m in rng.integers(10**16, 10**17, 12).tolist()]
        tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
        near = [tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                np.nextafter(np.nextafter(tens, 0), 0)]
        quarters = rng.integers(10**15, 2**51, 300).astype(float)  # 16 digits, 0.25 apart
        ties = np.concatenate([quarters + 0.25, quarters + 0.75, quarters + 0.5])
        edges = [9.9999999999999995e-5, 99999999999999999.0, 9999999999999998.0, 1e16, 1e17,
                 0.0001, 1e-5, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 np.inf, -np.inf, np.nan, 2.0**53, 0.1, -1 / 3]
        x = np.concatenate([sweep, *near, ties, edges])
        x = np.concatenate([x, -x])
        for end in (b"", b",", b"\r\n"):
            got = fileio._g17(x, end).tolist()
            want = [b"%.17g" % v + end for v in x.tolist()]
            bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
            assert not bad, bad[:5]

    def test_g17_power_table_is_correctly_rounded(self):
        # pow_hi is the nearest double to 10**k and pow_lo the nearest double
        # to the exact remainder 10**k - pow_hi, at every exponent of the table
        tab = fileio._g17_tables()
        ks = range(16 - fileio._E_MAX, 16 - fileio._E_MIN + 1)
        assert len(ks) == tab["pow_hi"].size == tab["pow_lo"].size
        for k, hi, lo in zip(ks, tab["pow_hi"].tolist(), tab["pow_lo"].tolist()):
            exact = Fraction(10) ** k
            assert hi == float(exact), k  # float(Fraction) is int / int, correctly rounded
            assert lo == float(exact - Fraction(hi)), k

    @staticmethod
    def _write_nodes_as(path, template, node_fmt, values):
        """A sinogram file whose node fields are written with `node_fmt`."""
        with open(path, "w", newline="") as fh:
            fh.write("beta,alpha,re,im\r\n")
            for i, b in enumerate(template.beta):
                for j, a in enumerate(template.alpha):
                    v = values[i, j]
                    fh.write(f"{node_fmt % b},{node_fmt % a},{float(v.real)!r},{float(v.imag)!r}\r\n")

    @pytest.mark.parametrize("node_fmt, one_pass", [
        ("%.15g", True), ("%.18e", True), (" %.17g ", True), ("%.17g0", True),
        ('"%.17g"', False), ("%.40f", False), ("%.40e", False)])
    def test_non_canonical_nodes_are_read_as_numbers(self, tmp_path, node_fmt, one_pass):
        # node text other than the writers' own is converted to numbers in
        # the one text pass, unless quotes or over-long fields send the file
        # to _read_columns; either way it reads what _read_columns reads
        cp = CurvatureParam(0.4)
        template = xray.boundary_grid(cp, 12, 8)
        rng = np.random.default_rng(6)
        values = rng.normal(size=template.shape) + 1j * rng.normal(size=template.shape)
        path = tmp_path / "s.csv"
        header = ["beta", "alpha", "re", "im"]
        self._write_nodes_as(path, template, node_fmt, values)
        want = read_body(path, header)
        cols = read_body(path, header, template.shape)
        assert (cols is not None) == one_pass
        if one_pass:
            for c, w in zip(cols, want):
                assert np.array_equal(c.view(np.int64), w.view(np.int64))
        _, _, re, im = want
        got = fileio.read_sinogram_csv(path, template).values.ravel()
        assert np.array_equal(got.real.view(np.int64), re.view(np.int64))
        assert np.array_equal(got.imag.view(np.int64), im.view(np.int64))
        # the same file with one beta node 1e-9 off
        with open(path, newline="") as fh:
            text = fh.read()
        moved = node_fmt % (template.beta[3] + 1e-9)
        path.write_text(text.replace(node_fmt % template.beta[3] + ",", moved + ",", 1))
        with pytest.raises(ValueError, match="nodes"):
            fileio.read_sinogram_csv(path, template)

    @pytest.mark.parametrize("row, col", [(0, 1), (5, 3), (11, 7)])
    def test_node_text_is_checked_in_every_field(self, tmp_path, row, col):
        # a node whose text differs in one field is converted and checked
        # there, not taken from the first field that carries it
        template = xray.boundary_grid(CurvatureParam(0.4), 12, 8)
        path = tmp_path / "s.csv"
        fileio.write_sinogram_csv(path, template)
        lines = path.read_bytes().split(b"\r\n")
        fields = lines[1 + row * 8 + col].split(b",")
        for k, node in ((0, template.beta[row]), (1, template.alpha[col])):
            fields[k] = b"%.20f" % node  # other text, same value
            lines[1 + row * 8 + col] = b",".join(fields)
            path.write_bytes(b"\r\n".join(lines))
            assert fileio.read_sinogram_csv(path, template).shape == template.shape
            fields[k] = b"%.17g" % (node + 1e-9)
            lines[1 + row * 8 + col] = b",".join(fields)
            path.write_bytes(b"\r\n".join(lines))
            with pytest.raises(ValueError, match="nodes"):
                fileio.read_sinogram_csv(path, template)
            fields[k] = b"%.17g" % node

    def test_node_text_with_trailing_nul_is_rejected(self, tmp_path):
        # bytes fields drop trailing NULs, so "0\0" must not pass as the node "0"
        template = xray.boundary_grid(CurvatureParam(0.4), 4, 6)
        path = tmp_path / "s.csv"
        fileio.write_sinogram_csv(path, template)
        lines = path.read_bytes().split(b"\r\n")
        lines[1] = lines[1].replace(b",", b"\0,", 1)
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError, match=r"s\.csv:2: could not convert"):
            fileio.read_sinogram_csv(path, template)

    # (node format, line end, edit of the body lines, error raised or None);
    # every file but the first three goes through the per-field parse
    _READER_CASES = {
        "canonical": ("%r", "\r\n", None, None),
        "blank-line": ("%r", "\n", lambda L: ["", *L[:3], "", *L[3:], "", ""], None),
        "cr-only": ("%r", "\r", None, None),
        "wide-node": ("%.40f", "\r\n", None, None),
        "wide-node-blank-line": ("%.40e", "\n", lambda L: [*L[:3], "", *L[3:], ""], None),
        "wide-node-cr-only": ("%.40f", "\r", None, None),
        "quoted": ('"%r"', "\r\n", None, None),
        "nul": ("%r", "\r\n", lambda L: [L[0], L[1].replace(",", "\0,", 1), *L[2:]],
                (ValueError, ":3: could not convert string to float: '0.0\\x00'")),
        "whitespace-only-line": ("%r", "\r\n", lambda L: [*L[:2], "  ", *L[2:]],
                                 (ValueError, ":4: expected 4 fields")),
        "wide-node-whitespace-only-line": ("%.40f", "\n", lambda L: [*L[:2], "\t", *L[2:]],
                                           (ValueError, ":4: expected 4 fields")),
        "header-only": ("%r", "\r\n", lambda L: [],
                        (ValueError, "sinogram has 0 rows, template expects 24")),
        "wrong-field-count": ("%r", "\r\n", lambda L: [*L[:3], L[3].rsplit(",", 1)[0], *L[4:]],
                              (ValueError, ":5: expected 4 fields")),
    }

    @pytest.mark.parametrize("case", list(_READER_CASES))
    def test_reader_bits_and_errors(self, tmp_path, case):
        # the bits read_sinogram_csv returns, or the error it raises, on
        # files the one-pass parse takes and files it refuses
        node_fmt, end, edit, error = self._READER_CASES[case]
        template = xray.boundary_grid(CurvatureParam(0.4), 4, 6)
        rng = np.random.default_rng(21)
        values = rng.normal(size=template.shape) + 1j * rng.normal(size=template.shape)
        values[0, 0] = complex(-0.0, 0.0)
        lines = [f"{node_fmt % b},{node_fmt % a},{v.real!r},{v.imag!r}"
                 for b, row in zip(template.beta.tolist(), values.tolist())
                 for a, v in zip(template.alpha.tolist(), row)]
        path = tmp_path / "s.csv"
        with open(path, "w", newline="") as fh:
            fh.write(end.join(["beta,alpha,re,im", *(edit or (lambda L: L))(lines)]) + end)
        if error is None:
            got = fileio.read_sinogram_csv(path, template).values
            assert np.array_equal(got.view(np.int64), values.view(np.int64))
            return
        kind, message = error
        with pytest.raises(kind) as info:
            fileio.read_sinogram_csv(path, template)
        assert type(info.value) is kind
        assert str(info.value) == (f"{path}{message}" if message.startswith(":") else message)

    def test_coeff_reader_rejects_non_finite(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"kappa": 0.2, "nmax": 1, "entries": '
                        '[{"n": 0, "k": 0, "re": 1.0, "im": 0.0}, {"n": 1, "k": 0, "re": NaN, "im": 0.0}]}')
        with pytest.raises(xray._NonFiniteValues, match="entry #1"):
            fileio.read_coeff_json(path)

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

    def test_coeff_round_trip_of_numpy_integer_keys(self, tmp_path):
        # numpy-integer keys used to be stored as given, so the dump raised
        # "Object of type int64 is not JSON serializable" inside the opened
        # file and left it empty
        tab = basis.CoeffTable(nmax=3, entries={(np.int64(1), np.int64(0)): 1.0})
        tab[(np.int32(3), np.int64(2))] = 0.5j
        assert all(type(i) is int for nk in tab.entries for i in nk)
        path = tmp_path / "c.json"
        fileio.write_coeff_json(path, tab, CurvatureParam(0.4))
        back, _ = fileio.read_coeff_json(path)
        assert back.items() == [((1, 0), 1.0), ((3, 2), 0.5j)]
        with pytest.raises(TypeError, match="not JSON serializable"):
            fileio._write_json(tmp_path / "bad.json", {"x": np.int64(1)})
        assert not (tmp_path / "bad.json").exists()

    def test_coeff_round_trip_keeps_signed_zeros(self, tmp_path):
        tab = basis.CoeffTable(nmax=2)
        tab[(0, 0)] = complex(-0.0, -0.0)
        tab[(1, 0)] = complex(-0.0, 0.5)
        tab[(2, 1)] = complex(0.25, -0.0)
        path = tmp_path / "c.json"
        fileio.write_coeff_json(path, tab, CurvatureParam(0.3))
        back, _ = fileio.read_coeff_json(path)
        for nk, c in tab.items():
            got = back[nk]
            assert [math.copysign(1, x) for x in (got.real, got.imag)] == \
                [math.copysign(1, x) for x in (c.real, c.imag)], nk
            assert got == c

    @pytest.mark.parametrize("field, value, match", [
        ("nmax", 6.9, "nmax must be an integer"),
        ("nmax", True, "nmax must be an integer"),
        ("nmax", "6", "nmax must be an integer"),
        ("kappa", "0.2", "kappa must be a number"),
        ("n", 2.9, "entry #1: n must be an integer"),
        ("n", "2", "entry #1: n must be an integer"),
        ("k", True, "entry #1: k must be an integer"),
        ("k", 1.0, "entry #1: k must be an integer"),
        ("re", "0.5", "entry #1: re must be a number"),
        ("im", False, "entry #1: im must be a number"),
        ("im", None, "entry #1: im must be a number"),
        ("entries", 5, "entries must be a list"),
    ])
    def test_coeff_reader_rejects_wrong_types(self, tmp_path, field, value, match):
        doc = {"kappa": 0.2, "nmax": 6, "entries": [
            {"n": 0, "k": 0, "re": 1.0, "im": 0.0}, {"n": 2, "k": 1, "re": 0.5, "im": -0.25}]}
        if field in doc:
            doc[field] = value
        else:
            doc["entries"][1][field] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            fileio.read_coeff_json(path)
        assert run_cli("--kappa", 0.2, "--out", tmp_path / "o", "forward",
                       "--phantom", path) == cli.EXIT_CONFIG
        assert not (tmp_path / "o" / "sinogram.csv").exists()

    def test_coeff_reader_rejects_negative_nmax(self, tmp_path):
        # used to load as an empty table: forward wrote an all-zero sinogram, exit 0
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kappa": 0.4, "nmax": -1, "entries": []}))
        with pytest.raises(ValueError, match=r"c\.json: band limit nmax must be >= 0, got -1"):
            fileio.read_coeff_json(path)
        assert run_cli("--kappa", 0.4, "--out", tmp_path / "o", "forward",
                       "--phantom", path) == cli.EXIT_CONFIG
        assert not (tmp_path / "o" / "sinogram.csv").exists()

    def test_coeff_reader_rejects_duplicate_entries(self, tmp_path):
        # the second entry used to overwrite the first: the table held 5.0
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kappa": 0.4, "nmax": 2, "entries": [
            {"n": 1, "k": 0, "re": 1.0, "im": 0.0}, {"n": 0, "k": 0, "re": 2.0, "im": 0.0},
            {"n": 1, "k": 0, "re": 5.0, "im": 0.0}]}))
        with pytest.raises(ValueError, match=r"bad entry #2: \(n, k\) = \(1, 0\) repeats entry #0"):
            fileio.read_coeff_json(path)
        assert run_cli("--kappa", 0.4, "--out", tmp_path / "o", "forward",
                       "--phantom", path) == cli.EXIT_CONFIG
        assert not (tmp_path / "o" / "sinogram.csv").exists()

    @pytest.mark.parametrize("doc", ['"kappa nmax entries"', "[0.2, 1]", "null"])
    def test_coeff_reader_rejects_non_object(self, tmp_path, doc):
        path = tmp_path / "c.json"
        path.write_text(doc)
        with pytest.raises(ValueError, match="not a JSON object"):
            fileio.read_coeff_json(path)
        assert run_cli("--kappa", 0.2, "--out", tmp_path / "o", "forward",
                       "--phantom", path) == cli.EXIT_CONFIG

    def test_coeff_reader_rejects_non_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"kappa": 0.2,\n "nmax": 1,,}')
        with pytest.raises(ValueError, match=r"c\.json: not valid JSON \(line 2: Expecting"):
            fileio.read_coeff_json(path)

    @pytest.mark.parametrize("field", ["kappa", "nmax", "entries"])
    def test_coeff_reader_rejects_missing_field(self, tmp_path, field):
        doc = {"kappa": 0.2, "nmax": 1, "entries": []}
        del doc[field]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            fileio.read_coeff_json(path)
        assert str(info.value) == f"coefficient file {path} lacks the {field!r} field"

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("beta,alpha,re,im\n0,0,1,0\n0,oops,1,0\n")
        with pytest.raises(ValueError, match="bad.csv:3"):
            fileio.read_sinogram_csv(path, xray.boundary_grid(CurvatureParam(0.0), 1, 2))

    def test_parse_error_counts_blank_lines(self, tmp_path):
        # the bad line is named by its physical line number, blank lines included
        path = tmp_path / "bad.csv"
        path.write_text("beta,alpha,re,im\n\n0,0,1,0\n\n\n0,1,x,0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:6: .*'x'"):
            read_body(path, ["beta", "alpha", "re", "im"])

    @pytest.mark.parametrize("body", ["0,0,1\n0,1,1\n", "0,0,1,0\n0,1,1\n", "0,0,1,0,\n"])
    def test_field_count_error_has_line_number(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("beta,alpha,re,im\n" + body)
        with pytest.raises(ValueError, match=r"bad\.csv:\d: expected 4 fields"):
            read_body(path, ["beta", "alpha", "re", "im"])

    def test_reader_skips_blank_lines(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"beta,alpha,re,im\r\n\r\n0,0.5,1,-0\r\n\r\n1,0.25,2,3\r\n\r\n")
        cols = read_body(path, ["beta", "alpha", "re", "im"])
        assert [c.tolist() for c in cols] == [[0.0, 1.0], [0.5, 0.25], [1.0, 2.0], [-0.0, 3.0]]
        assert np.signbit(cols[3][0])

    def test_reader_falls_back_to_per_field_parse(self, tmp_path):
        # quoted fields are valid CSV that the one-call parse rejects
        path = tmp_path / "s.csv"
        path.write_text('beta,alpha,re,im\n"0","0.5",1,2\n')
        cols = read_body(path, ["beta", "alpha", "re", "im"])
        assert [c.tolist() for c in cols] == [[0.0], [0.5], [1.0], [2.0]]

    @pytest.mark.parametrize("body", ["", "\r\n", "\n\n"])
    def test_header_only_file_gives_empty_columns(self, tmp_path, recwarn, body):
        path = tmp_path / "s.csv"
        path.write_text("beta,alpha,re,im\n" + body)
        cols = read_body(path, ["beta", "alpha", "re", "im"])
        assert len(cols) == 4 and all(len(c) == 0 for c in cols)
        assert not recwarn.list
        with pytest.raises(ValueError, match="0 rows"):
            fileio.read_sinogram_csv(path, xray.boundary_grid(CurvatureParam(0.0), 1, 2))

    def test_reader_values_match_float(self, tmp_path):
        # the one-call parse gives the bits float() gives for every field
        rng = np.random.default_rng(5)
        vals = np.concatenate([rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200),
                               [5e-324, -0.0, 2.0**53 + 1, 1 / 3]])
        path = tmp_path / "s.csv"
        path.write_text("beta,alpha,re,im\n" + "".join(
            f"{a!r},{b:.17g},{a:.17g},{b!r}\n" for a, b in zip(vals.tolist(), vals[::-1].tolist())))
        cols = read_body(path, ["beta", "alpha", "re", "im"], (len(vals), 1))
        want = [[float(line.split(",")[j]) for line in path.read_text().splitlines()[1:]]
                for j in range(4)]
        for got, exp in zip(cols, want):
            assert np.array_equal(got.view(np.int64), np.array(exp).view(np.int64))

    def test_empty_profile_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        fileio.write_table_csv(path, [], ["n", "k", "rho", "Re", "Im"])
        assert path.read_bytes() == b"n,k,rho,Re,Im\r\n"

    def test_table_files_are_per_row_csv_writer_bytes(self, tmp_path):
        # every table a command writes is csv.writer over fmt, row by row:
        # CRLF, ints as ints, floats with 17 significant digits
        assert run_cli("--kappa", 0.4, "--nmax", 4, "--out", tmp_path, "spectrum") == 0
        assert run_cli("--kappa", 0.4, "--nmax", 3, "--out", tmp_path, "basis") == 0
        assert run_cli("--kappa", 0.4, "--nmax", 40, "--out", tmp_path / "b40", "basis") == 0  # 165 312 rows
        assert run_cli("--kappa", 0.4, "--out", tmp_path, "forward", "--phantom", "unit") == 0
        sino = tmp_path / "sinogram.csv"
        assert run_cli("--kappa", 0.4, "--out", tmp_path / "inv", "invert", "--in", sino) == 0
        assert run_cli("--kappa", 0.4, "--out", tmp_path / "mom", "moments", "--in", sino) == 0
        for name in ("spectrum.csv", "zernike_radial.csv", "psi_fiber.csv",
                     "inv/moments.csv", "mom/moments.csv", "b40/zernike_radial.csv", "b40/psi_fiber.csv"):
            with open(tmp_path / name, newline="") as fh:
                rows = list(csv.reader(fh))
            assert len(rows) > 1
            assert (tmp_path / name).read_bytes() == per_row_bytes(rows[0], rows[1:]), name

    def test_unscanned_invert_writes_a_header_only_moments_table(self, tmp_path, capsys):
        # 2 (nmax + 2) = 16 is not below n_beta = 16: invert skips the scan
        cfg = write_config(tmp_path / "c.json", n_beta=16, n_alpha=32)
        assert run_cli("--config", cfg, "--kappa", 0.4, "--out", tmp_path, "forward", "--phantom", "unit") == 0
        assert run_cli("--config", cfg, "--kappa", 0.4, "--nmax", 6, "--out", tmp_path / "inv",
                       "invert", "--in", tmp_path / "sinogram.csv") == 0
        assert "skips the moment scan" in capsys.readouterr().err
        assert (tmp_path / "inv" / "moments.csv").read_bytes() == per_row_bytes(cli._MOMENTS_HEADER, [])

    def test_table_fields_are_per_row_csv_writer_bytes(self, tmp_path):
        # signed zeros, tiny normal and subnormal values and negative
        # integers, as numpy and as Python numbers
        rows = [(-3, 0, -0.0), (-7, -12, 1e-300), (2**52, -(2**53), 5e-324), (0, 1, -5e-324)]
        for table in (rows, np.array(rows, dtype=float)):
            fileio.write_table_csv(tmp_path / "t.csv", table, ["n", "k", "v"])
            want = per_row_bytes(["n", "k", "v"], rows)
            assert (tmp_path / "t.csv").read_bytes() == want
        assert b"\r\n-3,0,-0\r\n-7,-12,1e-300\r\n" in want
        assert want.endswith(b"\r\n4503599627370496,-9007199254740992,4.9406564584124654e-324\r\n"
                             b"0,1,-4.9406564584124654e-324\r\n")

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
        rows = read_rows(tmp_path / "zernike_radial.csv")
        ours = [r for r in rows if r["n"] == "1" and r["k"] == "0"]
        for r in ours:
            assert float(r["Re"]) == pytest.approx(float(r["rho"]), abs=1e-14)

    def test_center_scaling(self, tmp_path):
        assert run_cli("--kappa", 0.5, "--nmax", 2, "--out", tmp_path, "basis") == 0
        rows = read_rows(tmp_path / "zernike_radial.csv")
        first = [r for r in rows if r["n"] == "2" and r["k"] == "1" and float(r["rho"]) == 0.0][0]
        want = math.sqrt(1 / 3) * basis.zernike(2, 1, 0.0)
        assert float(first["Re"]) == pytest.approx(float(want.real), abs=1e-14)

    def test_high_degree_table_against_60_digit_sum(self, tmp_path, zernike_60):
        # every 13th row, which samples every n, k and rho; a power-basis
        # polyval of the binomial sum errs by up to 1.5e-3 on these rows
        assert run_cli("--kappa", 0.4, "--nmax", 40, "--out", tmp_path, "basis") == 0
        rows = read_rows(tmp_path / "zernike_radial.csv", csv.reader)[1:]
        for n, k, rho, re, im in rows[::13]:
            want = zernike_60(int(n), int(k), float(rho), 0.4, normalized=False)
            assert abs(complex(float(re), float(im)) - want) <= 1e-13, (n, k, rho)

    def test_sidecar_hash(self, tmp_path):
        run_cli("--kappa", 0.1, "--out", tmp_path, "basis")
        meta = json.loads((tmp_path / "basis.meta.json").read_text())
        cfg = cli.RunConfig(**{k: v for k, v in meta["config"].items()})
        assert cfg.validate().hash() == meta["config_hash"]


class TestForwardCommand:
    def test_unit_phantom_is_exit_time(self, tmp_path):
        # f = 1 integrates to the chord length: the file holds tau exactly
        for kappa in (-0.9, 0.3, 0.9):
            out = tmp_path / str(kappa)
            assert run_cli("--kappa", kappa, "--out", out, "forward", "--phantom", "unit") == 0
            cfg = cli.RunConfig(kappa=kappa).validate()
            grid = fileio.read_sinogram_csv(out / "sinogram.csv", cfg.boundary_template())
            tau = exit_time(grid.alpha, CurvatureParam(kappa))
            assert np.array_equal(grid.values, np.broadcast_to(tau + 0j, grid.shape))

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

    def test_near_degenerate_kappa_warns(self, tmp_path, capsys):
        assert run_cli("--kappa", 0.999, "--out", tmp_path / "a", "forward", "--phantom", "unit") == 0
        err = capsys.readouterr().err
        assert "warning" in err and "degenerate" in err
        assert run_cli("--kappa", 0.9, "--out", tmp_path / "b", "forward", "--phantom", "unit") == 0
        assert capsys.readouterr().err == ""

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


class TestForwardRoutes:
    """A coefficient phantom goes through the SVD and `unit` maps to
    exit_time; the library's geodesic quadrature is their oracle."""

    @staticmethod
    def _phantom(path, kappa, nmax=6, seed=0):
        rng = np.random.default_rng(seed)
        tab = basis.CoeffTable(nmax=nmax)
        for n in range(nmax + 1):
            for k in range(n + 1):
                tab[(n, k)] = complex(rng.normal(), rng.normal())
        fileio.write_coeff_json(path, tab, CurvatureParam(kappa))
        return tab

    @pytest.mark.parametrize("kappa, nodes", [(-0.9, 64), (-0.5, 64), (0.0, 64), (0.4, 64), (0.9, 128)])
    def test_coefficient_phantom_matches_quadrature(self, tmp_path, kappa, nodes):
        cp = CurvatureParam(kappa)
        tab = self._phantom(tmp_path / "f.json", kappa)
        assert len(tab.entries) == 28
        assert run_cli("--kappa", kappa, "--out", tmp_path, "forward",
                       "--phantom", tmp_path / "f.json") == 0
        template = cli.RunConfig(kappa=kappa).validate().boundary_template()
        got = fileio.read_sinogram_csv(tmp_path / "sinogram.csv", template)
        f = lambda z: basis.w_kappa(z, cp) * basis.zernike_kappa_series(tab, z, cp)
        want = xray.sinogram(f, template, n_nodes=nodes)
        assert np.max(np.abs(got.values - want.values)) < 1e-10

    def test_coefficient_phantom_noise_is_seeded(self, tmp_path):
        self._phantom(tmp_path / "f.json", 0.3)
        for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
            assert run_cli("--kappa", 0.3, "--seed", seed, "--noise", 0.01, "--out", tmp_path / sub,
                           "forward", "--phantom", tmp_path / "f.json") == 0
        a, b, c = ((tmp_path / sub / "sinogram.csv").read_bytes() for sub in "abc")
        assert a == b
        assert a != c

    def test_sidecar_names_the_route(self, tmp_path):
        self._phantom(tmp_path / "f.json", 0.3)
        run_cli("--kappa", 0.3, "--out", tmp_path / "svd", "forward", "--phantom", tmp_path / "f.json")
        meta = json.loads((tmp_path / "svd/sinogram.meta.json").read_text())
        assert meta["forward"] == "svd"
        assert meta["phantom_modes"] == 28
        run_cli("--kappa", 0.3, "--out", tmp_path / "unit", "forward", "--phantom", "unit")
        meta = json.loads((tmp_path / "unit/sinogram.meta.json").read_text())
        assert meta["forward"] == "exit_time"
        assert "geodesic_nodes" not in meta

    def test_sidecar_quadrature_lists_used_sizes(self, tmp_path):
        # the boundary grid every sinogram lives on; no size that no
        # command reads
        run_cli("--kappa", 0.3, "--out", tmp_path, "forward", "--phantom", "unit")
        meta = json.loads((tmp_path / "sinogram.meta.json").read_text())
        cfg = meta["config"]
        assert meta["quadrature"] == {key: cfg[key] for key in ("n_beta", "n_alpha")}

    @pytest.mark.parametrize("n, k", [(2, -1), (1, 2)])
    def test_cokernel_entry_rejected(self, tmp_path, capsys, n, k):
        # psi_hat(n, k) with k outside [0, n] is co-kernel content, not the
        # image of any disk mode: no sinogram may come out of it
        doc = {"kappa": 0.3, "nmax": 2, "entries": [
            {"n": 0, "k": 0, "re": 1.0, "im": 0.0}, {"n": n, "k": k, "re": 1.0, "im": 0.0}]}
        (tmp_path / "f.json").write_text(json.dumps(doc))
        assert run_cli("--kappa", 0.3, "--out", tmp_path / "o", "forward",
                       "--phantom", tmp_path / "f.json") == cli.EXIT_NUMERICAL
        assert f"zernike requires 0 <= k <= n, got (n,k)=({n},{k})" in capsys.readouterr().err
        assert not (tmp_path / "o/sinogram.csv").exists()


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
        recon = read_diskgrid(tmp_path / "inv/reconstruction.csv", cfg.disk_template())
        pts = recon.points()
        truth = basis.w_kappa(pts, cp) * (
            0.7 * basis.zernike_kappa_hat(1, 0, pts, cp)
            + 0.2j * basis.zernike_kappa_hat(3, 2, pts, cp)
        )
        num = recon.with_values(recon.values - truth).norm()
        den = recon.with_values(truth).norm()
        assert num / den < 1e-6

    @pytest.mark.parametrize("nmax, n_beta, kpad", [(6, 96, 2), (9, 24, 1), (11, 24, None)])
    def test_moment_scan_narrows_to_the_beta_grid(self, tmp_path, capsys, nmax, n_beta, kpad):
        # 24 beta nodes resolve the band up to nmax 11, but the moments need
        # nmax + 2 kpad < 12: kpad 1 for nmax 9 and none for nmax 11.  invert
        # narrows or skips the scan, warns only then, and writes every output
        cfg = write_config(tmp_path / "c.json", kappa=0.4, nmax=nmax, n_beta=n_beta, n_alpha=64)
        assert run_cli("--config", cfg, "--out", tmp_path, "forward", "--phantom", "unit") == 0
        capsys.readouterr()
        assert run_cli("--config", cfg, "--out", tmp_path / "inv", "invert",
                       "--in", tmp_path / "sinogram.csv") == cli.EXIT_OK
        err = capsys.readouterr().err
        report = json.loads((tmp_path / "inv/report.json").read_text())
        rows = read_rows(tmp_path / "inv/moments.csv", csv.reader)
        assert rows[0] == cli._MOMENTS_HEADER
        for name in ("reconstruction.csv", "coefficients.json", "invert.meta.json"):
            assert (tmp_path / "inv" / name).exists()
        assert report["gram_deviation"] < 1e-13
        if kpad is None:
            assert "warning: invert skips the moment scan" in err
            assert report["moment_verdict_in_range"] is None and report["moment_max_normalized"] is None
            assert len(rows) == 1
            return
        assert ("warning" in err) == (kpad != 2)
        assert kpad == 2 or f"warning: invert scans moments at kpad={kpad}, not 2" in err
        assert report["moment_verdict_in_range"] is True
        assert report["moment_max_normalized"] < 1e-12
        assert [(int(n), int(k)) for n, k, _ in rows[1:]] == [
            (n, k) for n in range(nmax + 1) for k in (*range(-kpad, 0), *range(n + 1, n + kpad + 1))]

    def test_zero_sinogram(self, tmp_path):
        cfg = cli.RunConfig(kappa=0.2).validate()
        fileio.write_sinogram_csv(tmp_path / "z.csv", cfg.boundary_template())
        assert run_cli("--kappa", 0.2, "--out", tmp_path / "o", "invert",
                       "--in", tmp_path / "z.csv") == 0
        report = json.loads((tmp_path / "o/report.json").read_text())
        assert all(c["re"] == 0 and c["im"] == 0 for c in report["coefficients"])

    def test_report_has_gram_deviation(self, tmp_path):
        cp = CurvatureParam(0.2)
        tpl = cli.RunConfig(kappa=0.2).validate().boundary_template()
        fileio.write_sinogram_csv(tmp_path / "z.csv", tpl)
        assert run_cli("--kappa", 0.2, "--nmax", 6, "--out", tmp_path / "o", "invert",
                       "--in", tmp_path / "z.csv") == 0
        report = json.loads((tmp_path / "o/report.json").read_text())
        assert report["gram_deviation"] == xray._fiber_plan(tpl).gram_deviation(6)
        assert report["gram_deviation"] < 1e-13

    def test_unresolved_band_is_numerical_error(self, tmp_path):
        # nmax 31 on 96 x 64: 2 (nmax + 1) <= n_alpha holds, but the range
        # modes are orthonormal on the alpha nodes only to 1.3e-7
        tpl = cli.RunConfig(kappa=0.2).validate().boundary_template()
        fileio.write_sinogram_csv(tmp_path / "z.csv", tpl)
        assert run_cli("--kappa", 0.2, "--nmax", 31, "--out", tmp_path / "o", "invert",
                       "--in", tmp_path / "z.csv") == cli.EXIT_NUMERICAL
        assert not (tmp_path / "o" / "report.json").exists()

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
        clean = xray.sinogram(f, tpl)
        clean_res = xray.invert(clean, nmax, disk_template=cfg.disk_template())
        bound = clean_res.noise_amplification_bound
        assert bound == pytest.approx(math.sqrt(nmax + 1) * math.sqrt(1 - kappa) / (2 * math.sqrt(math.pi)))
        rms = math.sqrt(float(np.mean(np.abs(clean.values) ** 2)))
        ratios = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noise = 1e-2 * rms * (rng.normal(size=tpl.shape) + 1j * rng.normal(size=tpl.shape))
            noisy = clean.with_values(clean.values + noise)
            res = xray.invert(noisy, nmax, disk_template=cfg.disk_template())
            err = math.sqrt(sum(abs(c - clean_res.coeffs[nk]) ** 2 for nk, c in res.coeffs.items()))
            inband = math.sqrt(sum(abs(c - xray.singular_value(n, cp) * clean_res.coeffs[(n, k)]) ** 2
                                   for (n, k), c in xray.analyze(noisy, nmax).items()))
            ratios.append(err / inband)
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

    def test_report_has_band_and_gram_deviation(self, tmp_path):
        # the largest band within xray.GRAM_TOL on the 64 alpha nodes of the
        # CLI grid is n <= 29, at every kappa
        cfg = cli.RunConfig(kappa=0.9).validate()
        tpl = cfg.boundary_template()
        bb, aa = tpl.mesh()
        grid = tpl.with_values(basis.psi_kappa_hat(3, 1, bb, aa, cfg.cp()))
        fileio.write_sinogram_csv(tmp_path / "u.csv", grid)
        assert run_cli("--kappa", 0.9, "--out", tmp_path / "p", "project",
                       "--in", tmp_path / "u.csv") == 0
        report = json.loads((tmp_path / "p/projection_report.json").read_text())
        assert report["band"] == 29
        assert 0 < report["gram_deviation"] <= xray.GRAM_TOL
        assert report["relative_change"] < 1e-13

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
        rows = read_rows(tmp_path / "m/moments.csv")
        assert rows[0].keys() == {"n", "k", "abs_inner"}
        table = {(int(r["n"]), int(r["k"])): float(r["abs_inner"]) for r in rows}
        assert table[(1, -1)] == pytest.approx(1 / (4 * 1.2), abs=1e-10)
        meta = json.loads((tmp_path / "m/moments.meta.json").read_text())
        assert meta["in_range"] is False


    def test_undersized_beta_grid_is_numerical_error(self, tmp_path):
        # nmax 16 with kpad 3 reaches beta frequency 22, which a 40-point
        # beta grid cannot resolve
        cfg = write_config(tmp_path / "c.json", kappa=0.2, nmax=16, n_beta=40)
        fileio.write_sinogram_csv(tmp_path / "u.csv",
                                  xray.boundary_grid(CurvatureParam(0.2), 40, 64))
        assert run_cli("--config", cfg, "--out", tmp_path / "m", "moments",
                       "--in", tmp_path / "u.csv") == cli.EXIT_NUMERICAL
        assert not (tmp_path / "m" / "moments.csv").exists()


class TestSpectrumCommand:
    def test_values(self, tmp_path):
        assert run_cli("--kappa", 0.5, "--nmax", 3, "--out", tmp_path, "spectrum") == 0
        rows = read_rows(tmp_path / "spectrum.csv")
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
        captured = capsys.readouterr()
        assert "warning" in captured.err and "degenerate" in captured.err
        # the suite still executed end to end, and at this extreme some
        # entries fail: a numerical exit, not a config rejection
        assert code == cli.EXIT_NUMERICAL
        assert f" of {len(selftest.CHECKS)} checks failed" in captured.out

    def test_failing_entry_exits_numerical(self, monkeypatch, capsys):
        failing = selftest.Check("always fails (kappa={kappa})", lambda cp: 1.0, 0.5, (0.0,))
        passing = next(c for c in selftest.CHECKS if c.measure is selftest.lft_identity)
        monkeypatch.setattr(selftest, "CHECKS", (passing, failing))
        assert run_cli("--kappa", 0.4, "selftest") == cli.EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert "[pass] linear-fractional signature identity (kappa=0.4)" in out
        assert "[FAIL] always fails (kappa=0.4)" in out
        assert "1 of 2 checks failed" in out


class TestOneParserPerProcess:
    """`main` reuses one parser per process; no call may leak into the next."""

    @staticmethod
    def _spectrum_rows(path):
        with open(path) as fh:
            return list(csv.DictReader(fh))

    def test_parser_built_once(self, monkeypatch, tmp_path):
        real, built = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run_cli("--kappa", 0.5, "--nmax", 1, "--out", tmp_path, "spectrum") == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_phantom_does_not_carry_over(self, tmp_path):
        cp = CurvatureParam(0.3)
        tab = basis.CoeffTable(nmax=2)
        tab[(1, 0)] = 0.7
        fileio.write_coeff_json(tmp_path / "f.json", tab, cp)
        assert run_cli("--kappa", 0.3, "--out", tmp_path / "a", "forward",
                       "--phantom", tmp_path / "f.json") == 0
        assert run_cli("--kappa", 0.3, "--out", tmp_path / "b", "forward") == 0
        assert json.loads((tmp_path / "b/sinogram.meta.json").read_text())["forward"] == "exit_time"
        template = cli.RunConfig(kappa=0.3).validate().boundary_template()
        grid = fileio.read_sinogram_csv(tmp_path / "b/sinogram.csv", template)
        assert np.max(np.abs(grid.values - exit_time(grid.alpha, cp)[None, :])) < 1e-10

    def test_nmax_does_not_carry_over(self, tmp_path):
        assert run_cli("--kappa", 0.5, "--nmax", 4, "--out", tmp_path / "a", "spectrum") == 0
        assert run_cli("--kappa", 0.5, "--out", tmp_path / "b", "spectrum") == 0
        assert len(self._spectrum_rows(tmp_path / "a/spectrum.csv")) == 15
        default = cli.RunConfig().nmax
        assert len(self._spectrum_rows(tmp_path / "b/spectrum.csv")) == (default + 1) * (default + 2) // 2
        assert json.loads((tmp_path / "b/spectrum.meta.json").read_text())["config"]["nmax"] == default

    def test_valid_call_after_argparse_exit(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--nmax", "four", "spectrum")
        assert exc.value.code == 2
        assert "--nmax" in capsys.readouterr().err
        assert run_cli("--kappa", 0.5, "--nmax", 2, "--out", tmp_path, "spectrum") == 0
        assert len(self._spectrum_rows(tmp_path / "spectrum.csv")) == 6


class TestJsonDocuments:
    def test_bytes_match_json_dump(self, tmp_path):
        # each document is written in one call, with the bytes json.dump
        # gives: indent 1, sorted keys except in coefficient tables, newline
        cp = CurvatureParam(0.4)
        tab = basis.CoeffTable(nmax=3)
        tab[(1, 0)] = 0.7
        tab[(3, 2)] = -0.2j
        fileio.write_coeff_json(tmp_path / "f.json", tab, cp)
        for argv in (("forward", "--phantom", tmp_path / "f.json"),
                     ("invert", "--in", tmp_path / "sinogram.csv"),
                     ("project", "--in", tmp_path / "sinogram.csv")):
            assert run_cli("--kappa", 0.4, "--nmax", 3, "--out", tmp_path, *argv) == 0
        for name, sort_keys in (("f.json", False), ("coefficients.json", False),
                                ("report.json", True), ("projection_report.json", True),
                                ("sinogram.meta.json", True), ("invert.meta.json", True),
                                ("project.meta.json", True)):
            raw = (tmp_path / name).read_bytes()
            buf = io.StringIO()
            json.dump(json.loads(raw), buf, indent=1, sort_keys=sort_keys)
            buf.write("\n")
            assert raw == buf.getvalue().encode(), name


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

    def test_non_finite_coefficient_is_numerical_error(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"kappa": 0.2, "nmax": 1, "entries": [{"n": 1, "k": 1, "re": 0.5, "im": NaN}]}')
        assert run_cli("--kappa", 0.2, "--out", tmp_path / "o", "forward",
                       "--phantom", f) == cli.EXIT_NUMERICAL
        assert not (tmp_path / "o" / "sinogram.csv").exists()

    def test_malformed_coefficients_is_config_error(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text('{"kappa": 0.2, "nmax": 1, "entries": [{"n": 0}]}')
        assert run_cli("--kappa", 0.2, "--out", tmp_path, "forward",
                       "--phantom", f) == cli.EXIT_CONFIG
