"""The three benchmark workloads and their oracles.

Each workload drives diskxray from outside: the CLI pipelines through
in-process `diskxray.cli.main([...])` calls, the library-only adjoint
through `diskxray.xray.adjoint_sharp`.  Inputs are drawn fresh for every
op from the run's seeded generator, so no memo cache inside the library
can answer an op from an earlier one.  Every op cycles through KAPPAS.

A workload provides:

- `make_input(rng, kappa)`: untimed; writes or builds the op's input.
- `run(inp)`: the timed op; returns what `check` needs.
- `check(inp, raw)`: untimed; raises `OpFailure` when an exit code,
  output file, shape, finiteness or range verdict is wrong, otherwise
  returns {stage: relative error against the oracle}.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from diskxray import basis, cli, xray
from diskxray.geometry import TWO_PI, CurvatureParam, footpoint_angles

KAPPAS = (-0.9, 0.0, 0.4, 0.9)
N_BETA, N_ALPHA = 96, 64  # CLI-default sinogram grid
N_RHO, N_OMEGA = 128, 256  # CLI-default disk grid


class OpFailure(Exception):
    """An op whose output is missing, malformed or wrong in kind."""


class VerdictFailure(OpFailure):
    """A range verdict that contradicts how the input was built."""


def _modes(nmax):
    return [(n, k) for n in range(nmax + 1) for k in range(n + 1)]


def _complex_normal(rng, size):
    return (rng.normal(size=size) + 1j * rng.normal(size=size)) / math.sqrt(2.0)


def _rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _psi_stack(modes, template, cp):
    bb, aa = template.mesh()
    return np.stack([basis.psi_kappa_hat(n, k, bb, aa, cp) for n, k in modes])


def _read_csv(path, rows):
    """Values column pair of a diskxray CSV, checked for shape and finiteness."""
    if not os.path.isfile(path):
        raise OpFailure(f"missing output {os.path.basename(path)}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (rows, 4):
        raise OpFailure(f"{os.path.basename(path)} has shape {data.shape}, expected ({rows}, 4)")
    if not np.isfinite(data).all():
        raise OpFailure(f"{os.path.basename(path)} holds non-finite values")
    return data[:, 2] + 1j * data[:, 3]


def _read_json(path):
    if not os.path.isfile(path):
        raise OpFailure(f"missing output {os.path.basename(path)}")
    with open(path) as fh:
        return json.load(fh)


def _call_cli(argv):
    """Run one CLI command in-process with its chatter discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class _CliWorkload:
    outputs = ()

    def __init__(self, workdir, oracle=True):
        self.workdir = workdir
        self.state = {}
        for kappa in KAPPAS:
            cp = CurvatureParam(kappa)
            self.state[kappa] = self.prepare(cp, xray.boundary_grid(cp, N_BETA, N_ALPHA))

    def out(self, name):
        return os.path.join(self.workdir, name)

    def clear_outputs(self):
        for name in self.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.out(name))

    @staticmethod
    def check_codes(codes):
        for cmd, code in codes:
            if code != 0:
                raise OpFailure(f"{cmd} exited with code {code}")


class SimulateInvert(_CliWorkload):
    """forward --phantom coeffs.json, then invert --in sinogram.csv."""

    name = "simulate_invert"
    nmax = 6
    outputs = ("sinogram.csv", "reconstruction.csv", "coefficients.json",
               "report.json", "moments.csv")
    sizes = {"sinogram": [N_BETA, N_ALPHA], "disk": [N_RHO, N_OMEGA], "nmax": nmax,
             "geodesic_nodes": 64, "modes": len(_modes(nmax))}

    def prepare(self, cp, template):
        modes = _modes(self.nmax)
        sigma = np.array([xray.singular_value(n, cp) for n, _ in modes])
        return {"modes": modes, "psi": _psi_stack(modes, template, cp), "sigma": sigma}

    def make_input(self, rng, kappa):
        st = self.state[kappa]
        coeffs = _complex_normal(rng, len(st["modes"]))
        doc = {"kappa": kappa, "nmax": self.nmax, "entries": [
            {"n": n, "k": k, "re": float(c.real), "im": float(c.imag)}
            for (n, k), c in zip(st["modes"], coeffs)]}
        with open(self.out("coeffs.json"), "w") as fh:
            json.dump(doc, fh)
        self.clear_outputs()
        return {"kappa": kappa, "coeffs": coeffs}

    def run(self, inp):
        k = repr(inp["kappa"])
        codes = [("forward", _call_cli(["--kappa", k, "--out", self.workdir, "forward",
                                        "--phantom", self.out("coeffs.json")]))]
        if codes[-1][1] == 0:
            codes.append(("invert", _call_cli(["--kappa", k, "--nmax", str(self.nmax),
                                               "--out", self.workdir, "invert",
                                               "--in", self.out("sinogram.csv")])))
        return codes

    def check(self, inp, codes):
        self.check_codes(codes)
        st = self.state[inp["kappa"]]
        sino = _read_csv(self.out("sinogram.csv"), N_BETA * N_ALPHA)
        _read_csv(self.out("reconstruction.csv"), N_RHO * N_OMEGA)
        report = _read_json(self.out("report.json"))
        if not math.isfinite(report.get("residual", math.nan)):
            raise OpFailure("report.json residual is missing or non-finite")
        table = _read_json(self.out("coefficients.json"))
        got = {(e["n"], e["k"]): complex(e["re"], e["im"]) for e in table["entries"]}
        if sorted(got) != st["modes"]:
            raise OpFailure("coefficients.json does not hold every mode n <= nmax")
        rec = np.array([got[m] for m in st["modes"]])
        if not np.isfinite(rec).all():
            raise OpFailure("coefficients.json holds non-finite values")
        exact = np.tensordot(st["sigma"] * inp["coeffs"], st["psi"], axes=1).ravel()
        return {"xray.sinogram.err_max": _rel(sino, exact),
                "xray.invert.coeff_err_max": _rel(rec, inp["coeffs"])}


class RangeCheck(_CliWorkload):
    """project --in and moments --in on a range element plus co-kernel."""

    name = "range_check"
    nmax = 16
    cokernel_scale = 0.3
    outputs = ("projected.csv", "projection_report.json", "moments.csv", "moments.meta.json")
    sizes = {"sinogram": [N_BETA, N_ALPHA], "torus": [256, 1024], "nmax": nmax,
             "range_modes": len(_modes(nmax)), "cokernel_modes": 2 * (nmax + 1)}

    def prepare(self, cp, template):
        co = [(n, -1) for n in range(self.nmax + 1)] + [(n, n + 1) for n in range(self.nmax + 1)]
        bb, aa = template.mesh()
        return {"psi": _psi_stack(_modes(self.nmax), template, cp),
                "cokernel": _psi_stack(co, template, cp),
                "nodes": np.column_stack([bb.ravel(), aa.ravel()])}

    def make_input(self, rng, kappa):
        st = self.state[kappa]
        u_range = np.tensordot(_complex_normal(rng, len(st["psi"])), st["psi"], axes=1).ravel()
        noise = np.tensordot(_complex_normal(rng, len(st["cokernel"])), st["cokernel"], axes=1)
        u = u_range + self.cokernel_scale * noise.ravel()
        table = np.column_stack([st["nodes"], u.real, u.imag])
        np.savetxt(self.out("input.csv"), table, fmt="%.17g", delimiter=",",
                   header="beta,alpha,re,im", comments="")
        self.clear_outputs()
        return {"kappa": kappa, "u_range": u_range}

    def run(self, inp):
        k = repr(inp["kappa"])
        src = self.out("input.csv")
        return [
            ("project", _call_cli(["--kappa", k, "--out", self.workdir, "project", "--in", src])),
            ("moments", _call_cli(["--kappa", k, "--nmax", str(self.nmax), "--out", self.workdir,
                                   "moments", "--in", src])),
        ]

    def check(self, inp, codes):
        self.check_codes(codes)
        projected = _read_csv(self.out("projected.csv"), N_BETA * N_ALPHA)
        report = _read_json(self.out("projection_report.json"))
        if not all(math.isfinite(report.get(key, math.nan))
                   for key in ("relative_change", "removed_odd_norm")):
            raise OpFailure("projection_report.json is incomplete or non-finite")
        if not os.path.isfile(self.out("moments.csv")):
            raise OpFailure("missing output moments.csv")
        with open(self.out("moments.csv")) as fh:
            rows = sum(1 for line in fh if line.strip()) - 1
        if rows != 6 * (self.nmax + 1):  # kpad 3 on both sides of [0, n]
            raise OpFailure(f"moments.csv has {rows} rows, expected {6 * (self.nmax + 1)}")
        if _read_json(self.out("moments.meta.json")).get("in_range") is not False:
            raise VerdictFailure("moments verdict says 'in range' for data with co-kernel content")
        return {"boundary.project.err_max": _rel(projected, inp["u_range"])}


class Backproject:
    """xray.adjoint_sharp of a values-only BoundaryGrid at scattered points."""

    name = "backproject"
    nmax = 6
    n_rho, n_omega = 12, 24
    n_theta = 512  # adjoint_sharp's default
    sizes = {"sinogram": [N_BETA, N_ALPHA], "points": [n_rho, n_omega], "n_theta": n_theta,
             "targets": n_rho * n_omega * n_theta, "nmax": nmax, "modes": len(_modes(nmax))}

    def __init__(self, workdir, oracle=True):
        self.state = {}
        modes = _modes(self.nmax)
        for kappa in KAPPAS:
            cp = CurvatureParam(kappa)
            template = xray.boundary_grid(cp, N_BETA, N_ALPHA)
            pts = xray.disk_grid(cp, self.n_rho, self.n_omega).points()
            st = {"cp": cp, "template": template, "points": pts,
                  "psi": _psi_stack(modes, template, cp)}
            if oracle:
                # fiber integral of each exact psi_hat, done here rather than
                # through adjoint_sharp so the oracle shares no code with the
                # op; combined linearly per op
                theta = np.arange(self.n_theta) * TWO_PI / self.n_theta
                bm, am = footpoint_angles(np.abs(pts)[..., None], np.angle(pts)[..., None],
                                          theta, cp)
                st["adjoint"] = np.stack([
                    TWO_PI * basis.psi_kappa_hat(n, k, bm, am, cp).mean(axis=-1)
                    for n, k in modes])
            self.state[kappa] = st

    def make_input(self, rng, kappa):
        st = self.state[kappa]
        coeffs = _complex_normal(rng, len(st["psi"]))
        grid = st["template"].with_values(np.tensordot(coeffs, st["psi"], axes=1))
        return {"kappa": kappa, "coeffs": coeffs, "grid": grid}

    def run(self, inp):
        st = self.state[inp["kappa"]]
        return xray.adjoint_sharp(inp["grid"], st["points"], st["cp"])

    def check(self, inp, out):
        out = np.asarray(out)
        if out.shape != (self.n_rho, self.n_omega):
            raise OpFailure(f"adjoint has shape {out.shape}, expected {(self.n_rho, self.n_omega)}")
        if not np.isfinite(out).all():
            raise OpFailure("adjoint holds non-finite values")
        exact = np.tensordot(inp["coeffs"], self.state[inp["kappa"]]["adjoint"], axes=1)
        return {"xray.adjoint_sharp.err_max": _rel(out, exact)}


WORKLOADS = {w.name: w for w in (SimulateInvert, RangeCheck, Backproject)}
