"""Command-line front end.

Subcommands: basis, forward, invert, project, moments, spectrum,
selftest.  A single JSON config document drives every run; selected
fields can be overridden with flags (--kappa, --nmax, --out, --seed,
--noise).  Every output file gets a sidecar <name>.meta.json recording
the config hash and quadrature levels, and runs are deterministic given
(config, inputs, seed).

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
from .geometry import CurvatureParam

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """One reproducible run: geometry, band limit, grid and quadrature
    sizes, noise model, regularization, and file paths."""

    kappa: float = 0.0
    nmax: int = 6
    n_beta: int = 96
    n_alpha: int = 64
    n_rho: int = 128
    n_omega: int = 256
    geodesic_nodes: int = 64
    noise: dict = field(default_factory=lambda: {"seed": 0, "level": 0.0})
    reg: dict = field(default_factory=lambda: {"kind": "truncation", "sigma_cutoff": 0.0})
    input: str | None = None
    output: str = "out"

    _INT_FIELDS = ("nmax", "n_beta", "n_alpha", "n_rho", "n_omega", "geodesic_nodes")
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
        self.reg = {"kind": kind, "sigma_cutoff": _number("reg.sigma_cutoff", reg.get("sigma_cutoff", 0.0))}
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
            except OSError as exc:
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

    def as_dict(self) -> dict:
        d = asdict(self)
        return d

    def hash(self) -> str:
        blob = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def cp(self) -> CurvatureParam:
        return CurvatureParam(self.kappa)

    def boundary_template(self) -> xray.BoundaryGrid:
        return xray.boundary_grid(self.cp(), self.n_beta, self.n_alpha)

    def disk_template(self, measure="vol") -> xray.DiskGrid:
        return xray.disk_grid(self.cp(), self.n_rho, self.n_omega, measure=measure)

    def quad(self) -> xray.GeodesicQuad:
        return xray.GeodesicQuad(n_nodes=self.geodesic_nodes)


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
        "config": cfg.as_dict(),
        "quadrature": {
            "geodesic_nodes": cfg.geodesic_nodes,
            "n_beta": cfg.n_beta,
            "n_alpha": cfg.n_alpha,
        },
    }
    if extra:
        doc.update(extra)
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

def cmd_basis(cfg: RunConfig) -> int:
    cp = cfg.cp()
    outdir = _outdir(cfg)
    rho = np.linspace(0.0, 1.0, cfg.n_rho)
    rows = []
    for n in range(cfg.nmax + 1):
        for k in range(n + 1):
            vals = basis.zernike_kappa(n, k, rho + 0j, cp)
            rows.extend((n, k, r, v) for r, v in zip(rho, vals))
    fileio.write_profiles_csv(outdir / "zernike_radial.csv", rows)

    alpha = cfg.boundary_template().alpha
    fiber_rows = []
    for n in range(cfg.nmax + 1):
        for k in range(n + 1):
            vals = basis.psi_kappa(n, k, 0.0, alpha, cp)
            fiber_rows.extend((n, k, a, v) for a, v in zip(alpha, vals))
    fileio.write_fiber_profiles_csv(outdir / "psi_fiber.csv", fiber_rows)
    _write_sidecar(outdir, "basis", cfg)
    print(f"wrote {outdir}/zernike_radial.csv and {outdir}/psi_fiber.csv")
    return EXIT_OK


def _load_phantom(cfg: RunConfig, phantom: str | None):
    """Phantom from a built-in name or a coefficient file.

    `unit` is the constant disk callable.  A coefficient file gives its
    `CoeffTable`, standing for w_kappa times the deformed-Zernike series;
    an entry with k outside [0, n] names no disk mode (its psi_hat is
    co-kernel content) and raises ValueError like `zernike` does.  A
    malformed file or a kappa mismatch is a config error; a NaN or inf
    coefficient is bad data and raises `xray._NonFiniteValues`.
    """
    if phantom == "unit" or (phantom is None and cfg.input is None):
        return lambda z: np.ones(np.shape(z), dtype=complex)
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


def cmd_forward(cfg: RunConfig, phantom: str | None) -> int:
    """Sinogram of a phantom, with optional seeded noise.

    A coefficient table goes through the SVD, I(w_kappa sum c Z_hat) =
    sum sigma_n c psi_hat, which `synthesize` samples exactly at every
    node; a callable phantom is integrated by geodesic quadrature.
    """
    cp = cfg.cp()
    outdir = _outdir(cfg)
    f = _load_phantom(cfg, phantom)
    template = cfg.boundary_template()
    if isinstance(f, basis.CoeffTable):
        image = basis.CoeffTable(nmax=f.nmax, entries={
            (n, k): xray.singular_value(n, cp) * c for (n, k), c in f.items()})
        grid = xray.synthesize(image, template, cp)
        route = {"forward": "svd", "phantom_modes": len(f.entries)}
    else:
        grid = xray.sinogram(f, template, cp, cfg.quad())
        route = {"forward": "quadrature", "geodesic_nodes": cfg.geodesic_nodes}
    level = cfg.noise["level"]
    if level > 0.0:
        rng = np.random.default_rng(cfg.noise["seed"])
        rms = math.sqrt(float(np.mean(np.abs(grid.values) ** 2)))
        noise = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        grid = grid.with_values(grid.values + level * rms * noise / math.sqrt(2.0))
    fileio.write_sinogram_csv(outdir / "sinogram.csv", grid)
    _write_sidecar(outdir, "sinogram", cfg, {"noise_applied": level > 0.0, **route})
    print(f"wrote {outdir}/sinogram.csv")
    return EXIT_OK


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


def cmd_invert(cfg: RunConfig) -> int:
    cp = cfg.cp()
    outdir = _outdir(cfg)
    grid = _read_input_sinogram(cfg)
    cutoff = cfg.reg["sigma_cutoff"] if cfg.reg["kind"] == "sigma_cutoff" else None
    res = xray.invert(grid, cfg.nmax, cp, disk_template=cfg.disk_template(), sigma_cutoff=cutoff)
    fileio.write_diskgrid_csv(outdir / "reconstruction.csv", res.recon)
    fileio.write_coeff_json(outdir / "coefficients.json", res.coeffs, cp)
    moments = boundary.moment_residuals(grid, cfg.nmax, 2, cp)
    report = {
        "residual": res.residual,
        "discarded_energy": res.discarded_energy,
        "accepted_modes": len(res.accepted),
        "sigma_min": res.sigma_min,
        "noise_amplification_bound": res.noise_amplification_bound,
        "gram_deviation": res.gram_deviation,
        "moment_verdict_in_range": bool(moments.in_range),
        "moment_max_normalized": moments.max_normalized(cp),
        "coefficients": [
            {"n": n, "k": k, "re": c.real, "im": c.imag} for (n, k), c in res.coeffs.items()
        ],
    }
    fileio._write_json(outdir / "report.json", report, sort_keys=True)
    fileio.write_moments_csv(outdir / "moments.csv", moments.rows)
    _write_sidecar(outdir, "invert", cfg)
    print(f"wrote {outdir}/reconstruction.csv, coefficients.json, report.json")
    return EXIT_OK


def cmd_project(cfg: RunConfig) -> int:
    cp = cfg.cp()
    outdir = _outdir(cfg)
    grid = _read_input_sinogram(cfg)
    res = boundary.project_to_range(grid, cp)
    fileio.write_sinogram_csv(outdir / "projected.csv", res.projected)
    report = {
        "relative_change": res.relative_change,
        "removed_odd_norm": res.removed_odd_norm,
        "band": res.band,
        "gram_deviation": res.gram_deviation,
    }
    fileio._write_json(outdir / "projection_report.json", report, sort_keys=True)
    _write_sidecar(outdir, "project", cfg)
    print(f"wrote {outdir}/projected.csv (relative change {res.relative_change:.3e})")
    return EXIT_OK


def cmd_moments(cfg: RunConfig) -> int:
    cp = cfg.cp()
    outdir = _outdir(cfg)
    grid = _read_input_sinogram(cfg)
    rep = boundary.moment_residuals(grid, cfg.nmax, 3, cp)
    fileio.write_moments_csv(outdir / "moments.csv", rep.rows)
    _write_sidecar(outdir, "moments", cfg, {
        "in_range": bool(rep.in_range),
        "max_normalized": rep.max_normalized(cp),
    })
    print(f"wrote {outdir}/moments.csv (in range: {rep.in_range})")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    outdir = _outdir(cfg)
    fileio.write_spectrum_csv(outdir / "spectrum.csv", cfg.nmax, cfg.cp())
    _write_sidecar(outdir, "spectrum", cfg)
    print(f"wrote {outdir}/spectrum.csv")
    return EXIT_OK


def cmd_selftest(cfg: RunConfig) -> int:
    _warn_near_degenerate(cfg)
    results = selftest.run(cfg.kappa, verbose=True)
    failed = sum(not r.passed for r in results)
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return EXIT_NUMERICAL
    print(f"all {len(results)} checks passed")
    return EXIT_OK


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
        cfg = RunConfig.load(args.config)
        cfg = _apply_overrides(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "basis":
            return cmd_basis(cfg)
        if args.command == "forward":
            return cmd_forward(cfg, args.phantom)
        if args.command == "invert":
            return cmd_invert(cfg)
        if args.command == "project":
            return cmd_project(cfg)
        if args.command == "moments":
            return cmd_moments(cfg)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "selftest":
            return cmd_selftest(cfg)
        raise AssertionError(f"unhandled command {args.command}")
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
