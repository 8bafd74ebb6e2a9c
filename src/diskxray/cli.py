"""Command-line front end.

Subcommands: basis, forward, invert, project, moments, spectrum,
selftest.  A single JSON config document drives every run; selected
fields can be overridden with flags (--kappa, --nmax, --out, --seed,
--noise).  Runs are deterministic given (config, inputs, seed).

Each file-writing subcommand is an entry of `_COMMANDS`, called as
``cmd(cfg, outdir, args)``: it writes its outputs into outdir and
returns (sidecar name, extra sidecar keys or None, success message).
`main` alone makes the output directory, writes the sidecar
<name>.meta.json (the config, its hash and the boundary grid sizes) and
prints the message.  selftest writes no files.  Every command warns on
stderr when kappa is nearly degenerate.

Exit codes: 0 success, 2 config error, 3 numerical-invariant failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import basis, boundary, fileio, selftest, xray
from .geometry import CurvatureParam, exit_time

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """One reproducible run: geometry, band limit, grid sizes, noise
    model, regularization, and file paths."""

    kappa: float = 0.0
    nmax: int = 6
    n_beta: int = 96
    n_alpha: int = 64
    n_rho: int = 128
    n_omega: int = 256
    noise: dict = field(default_factory=lambda: {"seed": 0, "level": 0.0})
    reg: dict = field(default_factory=lambda: {"kind": "truncation", "sigma_cutoff": 0.0})
    input: str | None = None
    output: str = "out"

    _INT_FIELDS = ("nmax", "n_beta", "n_alpha", "n_rho", "n_omega")
    _KEYS = {"noise": {"seed", "level"}, "reg": {"kind", "sigma_cutoff"}}

    def validate(self) -> "RunConfig":
        """Check every field and normalise it in place: numbers must be
        JSON numbers (a string or a bool is rejected, not coerced), and
        kappa is stored as a float so equal configs hash alike."""
        self.kappa = _number("kappa", self.kappa)
        if not -1.0 < self.kappa < 1.0:
            raise ConfigError(f"kappa must lie in (-1, 1), got {self.kappa}")
        for name in self._INT_FIELDS:
            floor = 0 if name == "nmax" else 1  # nmax = 0 is a valid band limit
            setattr(self, name, _number(name, getattr(self, name), floor))
        noise, reg = _object("noise", self.noise), _object("reg", self.reg)
        self.noise = {"seed": _number("noise.seed", noise.get("seed", 0), 0),
                      "level": _number("noise.level", noise.get("level", 0.0))}
        if self.noise["level"] < 0:
            raise ConfigError("noise level must be >= 0")
        kind = reg.get("kind", "truncation")
        if kind not in ("truncation", "sigma_cutoff"):
            raise ConfigError(f"reg.kind must be 'truncation' or 'sigma_cutoff', got {kind!r}")
        cutoff = _number("reg.sigma_cutoff", reg.get("sigma_cutoff", 0.0))
        # every singular value is positive, so a cutoff <= 0 would discard
        # nothing; truncation reads no cutoff at all
        if (cutoff <= 0) if kind == "sigma_cutoff" else (cutoff != 0):
            want = "> 0" if kind == "sigma_cutoff" else "0"
            raise ConfigError(f"reg.sigma_cutoff must be {want} with reg.kind {kind!r}, got {cutoff}")
        self.reg = {"kind": kind, "sigma_cutoff": cutoff}
        if not isinstance(self.output, str) or not isinstance(self.input, (str, type(None))):
            raise ConfigError(f"input and output must be path strings, got {self.input!r}, {self.output!r}")
        return self

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        cfg = cls()
        if path is not None:
            try:
                with open(path) as fh:
                    doc = json.load(fh)
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
            if not isinstance(doc, dict):
                raise ConfigError(f"config {path} must hold a JSON object, got {doc!r}")
            unknown = set(doc) - set(cfg.__dataclass_fields__)
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            for key, val in doc.items():
                setattr(cfg, key, val)
        return cfg

    def hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def cp(self) -> CurvatureParam:
        return CurvatureParam(self.kappa)

    def boundary_template(self) -> xray.BoundaryGrid:
        return xray.boundary_grid(self.cp(), self.n_beta, self.n_alpha)

    def disk_template(self) -> xray.DiskGrid:
        return xray.disk_grid(self.cp(), self.n_rho, self.n_omega)


def _number(name: str, val, floor: int | None = None):
    """val as a float, or as an int >= floor when a floor is given (64.0
    counts).  A bool, a string or a NaN or inf is no number."""
    if isinstance(val, bool) or not isinstance(val, numbers.Real) or not math.isfinite(val):
        raise ConfigError(f"{name} must be a finite number, got {val!r}")
    if floor is None:
        return float(val)
    if val != int(val) or val < floor:
        raise ConfigError(f"{name} must be an integer >= {floor}, got {val!r}")
    return int(val)


def _object(name: str, val) -> dict:
    """val if it is a JSON object holding only the keys RunConfig allows under name."""
    if not isinstance(val, dict):
        raise ConfigError(f"{name} must be a JSON object, got {val!r}")
    if set(val) - RunConfig._KEYS[name]:
        raise ConfigError(f"unknown {name} keys: {sorted(set(val) - RunConfig._KEYS[name])}")
    return val


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.kappa is not None:
        cfg.kappa = args.kappa
    if args.nmax is not None:
        cfg.nmax = args.nmax
    if args.out is not None:
        cfg.output = args.out
    if args.seed is not None:
        _object("noise", cfg.noise)["seed"] = args.seed
    if args.noise is not None:
        _object("noise", cfg.noise)["level"] = args.noise
    if getattr(args, "input", None) is not None:
        cfg.input = args.input
    return cfg.validate()


def _write_sidecar(outdir: Path, name: str, cfg: RunConfig, extra: dict | None = None) -> None:
    doc = {
        "config_hash": cfg.hash(),
        "config": asdict(cfg),
        "quadrature": {"n_beta": cfg.n_beta, "n_alpha": cfg.n_alpha},
        **(extra or {}),
    }
    fileio._write_json(outdir / f"{name}.meta.json", doc, sort_keys=True)


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.output)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _warn_near_degenerate(cfg: RunConfig) -> None:
    lam = (1 - cfg.kappa) / (1 + cfg.kappa)
    if min(lam, 1 / lam) < 1e-3:
        print(
            f"warning: kappa={cfg.kappa} is nearly degenerate "
            f"(signature spread lambda={lam:.3e}); results may be ill-conditioned",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_basis(cfg: RunConfig, outdir: Path, args):
    """Each family's profiles, one mode per block of rows: Z^kappa_{n,k}
    on rho in [0, 1] and psi^kappa_{n,k} at beta = 0 on the alpha nodes."""
    cp = cfg.cp()
    rho = np.linspace(0.0, 1.0, cfg.n_rho)
    alpha = cfg.boundary_template().alpha
    modes = [(n, k) for n in range(cfg.nmax + 1) for k in range(n + 1)]
    radial = np.ravel([basis.zernike_kappa(n, k, rho + 0j, cp) for n, k in modes])  # mode-major
    fiber = np.ravel([basis.psi_kappa(n, k, 0.0, alpha, cp) for n, k in modes])
    for name, coord, x, vals in (("zernike_radial", "rho", rho, radial), ("psi_fiber", "alpha", alpha, fiber)):
        table = np.column_stack([np.repeat(modes, len(x), axis=0), np.tile(x, len(modes)), vals.real, vals.imag])
        fileio.write_table_csv(outdir / f"{name}.csv", table, ["n", "k", coord, "Re", "Im"])
    return "basis", None, f"wrote {outdir}/zernike_radial.csv and {outdir}/psi_fiber.csv"


def _load_phantom(cfg: RunConfig, phantom: str | None):
    """Coefficient table of a phantom file, or None for `unit` (f = 1).

    The table stands for w_kappa times the deformed-Zernike series; an
    entry with k outside [0, n] names no disk mode (its psi_hat is
    co-kernel content) and raises ValueError like `zernike` does.  A
    malformed file or a kappa mismatch is a config error; a NaN or inf
    coefficient is bad data and raises `xray._NonFiniteValues`.
    """
    if phantom == "unit" or (phantom is None and cfg.input is None):
        return None
    path = cfg.input if phantom is None else phantom
    try:
        table, kappa_file = fileio.read_coeff_json(path)
    except xray._NonFiniteValues:
        raise  # bad data, not a bad config: a numerical error
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if abs(kappa_file - cfg.kappa) > 1e-12:
        raise ConfigError(
            f"coefficient file kappa={kappa_file} does not match config kappa={cfg.kappa}"
        )
    for n, k in table.entries:
        if not 0 <= k <= n:
            raise ValueError(f"zernike requires 0 <= k <= n, got (n,k)=({n},{k})")
    return table


def cmd_forward(cfg: RunConfig, outdir: Path, args):
    """Sinogram of a phantom, with optional seeded noise, by an exact route.

    `unit` maps to the chord length exit_time(alpha) at every beta.  A
    coefficient table goes through the SVD, I(w_kappa sum c Z_hat) =
    sum sigma_n c psi_hat, which `synthesize` samples exactly at every
    node.  `xray.sinogram` is the quadrature oracle of both.
    """
    cp = cfg.cp()
    table = _load_phantom(cfg, args.phantom)
    template = cfg.boundary_template()
    if table is None:
        grid = template.with_values(np.broadcast_to(exit_time(template.alpha, cp), template.shape))
        route = {"forward": "exit_time"}
    else:
        image = basis.CoeffTable(nmax=table.nmax, entries={
            (n, k): xray.singular_value(n, cp) * c for (n, k), c in table.items()})
        grid = xray.synthesize(image, template)
        route = {"forward": "svd", "phantom_modes": len(table.entries)}
    level = cfg.noise["level"]
    if level > 0.0:
        rng = np.random.default_rng(cfg.noise["seed"])
        rms = math.sqrt(float(np.mean(np.abs(grid.values) ** 2)))
        noise = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        grid = grid.with_values(grid.values + level * rms * noise / math.sqrt(2.0))
    fileio.write_sinogram_csv(outdir / "sinogram.csv", grid)
    return "sinogram", {"noise_applied": level > 0.0, **route}, f"wrote {outdir}/sinogram.csv"


def _read_input_sinogram(cfg: RunConfig) -> xray.BoundaryGrid:
    if cfg.input is None:
        raise ConfigError("this command needs an input sinogram (--in or config 'input')")
    try:
        return fileio.read_sinogram_csv(cfg.input, cfg.boundary_template())
    except xray._NonFiniteValues:
        raise  # bad data, not a bad config: a numerical error
    except ValueError as exc:
        # malformed file or grids not matching the config
        raise ConfigError(str(exc)) from None


_MOMENTS_HEADER = ["n", "k", "abs_inner"]


def _invert_moments(grid: xray.BoundaryGrid, cfg: RunConfig):
    """Moment scan of invert's input at the widest kpad <= 2 that its beta
    grid resolves, or None when it resolves none; a narrowed or skipped
    scan is reported on stderr."""
    kpad = next((k for k in (2, 1) if boundary._resolves_moments(cfg.nmax, k, cfg.n_beta)), None)
    if kpad != 2:
        scan = "skips the moment scan" if kpad is None else f"scans moments at kpad={kpad}, not 2"
        print(f"warning: invert {scan}: nmax + 2 kpad must stay below n_beta/2 "
              f"(nmax={cfg.nmax}, n_beta={cfg.n_beta})", file=sys.stderr)
    return None if kpad is None else boundary.moment_residuals(grid, cfg.nmax, kpad)


def cmd_invert(cfg: RunConfig, outdir: Path, args):
    """Truncated-SVD inversion, with the input's moment scan (null in the
    report when the beta grid resolves none); all is computed before the
    first write."""
    grid = _read_input_sinogram(cfg)
    cutoff = cfg.reg["sigma_cutoff"] if cfg.reg["kind"] == "sigma_cutoff" else None
    res = xray.invert(grid, cfg.nmax, disk_template=cfg.disk_template(), sigma_cutoff=cutoff)
    moments = _invert_moments(grid, cfg)
    fileio.write_diskgrid_csv(outdir / "reconstruction.csv", res.recon)
    fileio.write_coeff_json(outdir / "coefficients.json", res.coeffs, cfg.cp())
    report = {
        "residual": res.residual,
        "discarded_energy": res.discarded_energy,
        "accepted_modes": len(res.accepted),
        "sigma_min": res.sigma_min,
        "noise_amplification_bound": res.noise_amplification_bound,
        "gram_deviation": res.gram_deviation,
        "moment_verdict_in_range": None if moments is None else bool(moments.in_range),
        "moment_max_normalized": None if moments is None else moments.max_normalized,
        "coefficients": [
            {"n": n, "k": k, "re": c.real, "im": c.imag} for (n, k), c in res.coeffs.items()
        ],
    }
    fileio._write_json(outdir / "report.json", report, sort_keys=True)
    fileio.write_table_csv(outdir / "moments.csv", [] if moments is None else moments.rows, _MOMENTS_HEADER)
    return "invert", None, f"wrote {outdir}/reconstruction.csv, coefficients.json, report.json"


def cmd_project(cfg: RunConfig, outdir: Path, args):
    grid = _read_input_sinogram(cfg)
    res = boundary.project_to_range(grid)
    fileio.write_sinogram_csv(outdir / "projected.csv", res.projected)
    report = {
        "relative_change": res.relative_change,
        "removed_odd_norm": res.removed_odd_norm,
        "band": res.band,
        "gram_deviation": res.gram_deviation,
    }
    fileio._write_json(outdir / "projection_report.json", report, sort_keys=True)
    return "project", None, f"wrote {outdir}/projected.csv (relative change {res.relative_change:.3e})"


def cmd_moments(cfg: RunConfig, outdir: Path, args):
    rep = boundary.moment_residuals(_read_input_sinogram(cfg), cfg.nmax, 3)
    fileio.write_table_csv(outdir / "moments.csv", rep.rows, _MOMENTS_HEADER)
    extra = {"in_range": bool(rep.in_range), "max_normalized": rep.max_normalized}
    return "moments", extra, f"wrote {outdir}/moments.csv (in range: {rep.in_range})"


def cmd_spectrum(cfg: RunConfig, outdir: Path, args):
    cp = cfg.cp()
    rows = [(n, k, xray.singular_value(n, cp)) for n in range(cfg.nmax + 1) for k in range(n + 1)]
    fileio.write_table_csv(outdir / "spectrum.csv", rows, ["n", "k", "sigma"])
    return "spectrum", None, f"wrote {outdir}/spectrum.csv"


def cmd_selftest(cfg: RunConfig) -> int:
    results = selftest.run(cfg.kappa, verbose=True)
    failed = sum(not r.passed for r in results)
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return EXIT_NUMERICAL
    print(f"all {len(results)} checks passed")
    return EXIT_OK


_COMMANDS = {"basis": cmd_basis, "forward": cmd_forward, "invert": cmd_invert,
             "project": cmd_project, "moments": cmd_moments, "spectrum": cmd_spectrum}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskxray",
        description="Geodesic X-ray transform on constant-curvature disks",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--kappa", type=float, help="curvature parameter in (-1, 1)")
    parser.add_argument("--nmax", type=int, help="band limit")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="noise seed")
    parser.add_argument("--noise", type=float, help="relative noise level")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("basis", help="dump radial and fiber profiles as CSV")
    p_fwd = sub.add_parser("forward", help="simulate a sinogram")
    p_fwd.add_argument("--phantom", help="'unit' or a coefficient JSON file")
    p_fwd.add_argument("--in", dest="input", help="coefficient JSON file")
    for name, help_ in (
        ("invert", "truncated-SVD inversion of a sinogram"),
        ("project", "project a sinogram onto the range"),
        ("moments", "moment-condition residuals of a sinogram"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--in", dest="input", help="input sinogram CSV")
    sub.add_parser("spectrum", help="dump singular values as CSV")
    sub.add_parser("selftest", help="run the numerical invariant suite")
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _apply_overrides(RunConfig.load(args.config), args)
        _warn_near_degenerate(cfg)
        if args.command == "selftest":
            return cmd_selftest(cfg)
        outdir = _outdir(cfg)
        name, extra, message = _COMMANDS[args.command](cfg, outdir, args)
        _write_sidecar(outdir, name, cfg, extra)
        print(message)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
