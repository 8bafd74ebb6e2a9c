"""File formats for sinograms, disk grids and coefficient tables.

CSV columns: sinograms use ``beta,alpha,re,im``; disk grids use
``rho,omega,re,im``; both iterate row-major (first coordinate outer).
A grid file read onto a template must carry the template's nodes, in
order, to within 1e-12 absolute.  Grid files are written a fixed block
of rows at a time and read from the open file, so neither direction
holds the whole file as text.  Coefficient tables are JSON documents
``{"kappa": ..., "nmax": ..., "entries": [{"n":..,"k":..,"re":..,"im":..},
...]}`` with integer ``nmax``, ``n``, ``k`` and numeric ``kappa``, ``re``,
``im``.  All floats are written with 17 significant digits so values
round-trip bit-exactly, signed zeros included.
"""

from __future__ import annotations

import csv
import itertools
import json

import numpy as np

from .basis import CoeffTable, _NonFiniteValues
from .geometry import CurvatureParam
from .xray import BoundaryGrid, DiskGrid

_BLOCK_ROWS = 4096  # grid CSV rows formatted per write


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_grid_csv(path, header, outer, inner, values) -> None:
    """Header row, then one ``outer,inner,re,im`` row per node, row-major.

    Its bytes are those of `fmt` on each field joined by `csv.writer`
    (comma, CRLF, nothing to quote).  Each distinct coordinate is
    formatted once and the row prefixes are joined from those; rows are
    formatted and written `_BLOCK_ROWS` at a time, so the writer holds
    one block of text, not the whole file.
    """
    outer_s = ["%.17g," % x for x in outer.tolist()]
    inner_s = ["%.17g," % x for x in inner.tolist()]
    prefixes = (o + i for o in outer_s for i in inner_s)
    flat = values.ravel()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, flat.size, _BLOCK_ROWS):
            block = flat[start:start + _BLOCK_ROWS]
            fields = [None] * (3 * block.size)
            fields[0::3] = itertools.islice(prefixes, block.size)
            fields[1::3] = block.real.tolist()
            fields[2::3] = block.imag.tolist()
            fh.write("%s%.17g,%.17g\r\n" * block.size % tuple(fields))


def write_sinogram_csv(path, grid: BoundaryGrid) -> None:
    _write_grid_csv(path, ["beta", "alpha", "re", "im"], grid.beta, grid.alpha, grid.values)


def read_sinogram_csv(path, template: BoundaryGrid) -> BoundaryGrid:
    """Read a sinogram CSV onto a template grid.

    The node coordinates in the file must match the template's nodes
    (same order, 1e-12 absolute); a mismatch is an error, not a resample.
    """
    return _read_grid_csv(path, template, ["beta", "alpha", "re", "im"], template.beta,
                          template.alpha, ("sinogram", "sinogram"))


def write_diskgrid_csv(path, grid: DiskGrid) -> None:
    _write_grid_csv(path, ["rho", "omega", "re", "im"], grid.rho, grid.omega, grid.values)


def read_diskgrid_csv(path, template: DiskGrid) -> DiskGrid:
    return _read_grid_csv(path, template, ["rho", "omega", "re", "im"], template.rho,
                          template.omega, ("disk grid", "disk"))


def _read_grid_csv(path, template, header, outer, inner, what):
    """Values of a grid file on the template's nodes `outer` x `inner`.

    The file's coordinates must be those nodes, row-major, to 1e-12
    absolute.  `what` names the grid in the row-count and node messages.
    """
    c_outer, c_inner, re, im = _read_columns(path, header)
    shape = template.shape
    if len(re) != shape[0] * shape[1]:
        raise ValueError(f"{what[0]} has {len(re)} rows, template expects {shape[0] * shape[1]}")
    if not (
        np.allclose(np.asarray(c_outer).reshape(shape), outer[:, None], atol=1e-12, rtol=0)
        and np.allclose(np.asarray(c_inner).reshape(shape), inner[None, :], atol=1e-12, rtol=0)
    ):
        raise ValueError(f"{what[1]} nodes do not match the configured grid")
    return template.with_values(_complex(re, im).reshape(shape))


def _complex(re, im) -> np.ndarray:
    """Complex array from its parts; re + 1j*im would turn -0.0 into 0.0."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _read_columns(path, names):
    """Float columns of a CSV file under the given header; blank lines
    are skipped.  The open file goes to `np.loadtxt` in one call, which
    reads it line by line; if that fails, or yields the wrong column
    count, the per-line parse below rereads the body and either returns
    what it reads or names the first bad line as path:lineno (loadtxt
    counts rows, not lines)."""
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if [h.strip().lower() for h in header] != names:
            raise ValueError(f"expected header {','.join(names)} in {path}, got {header}")
        body = fh.tell()
        if not any(line.strip("\r\n") for line in iter(fh.readline, "")):
            return [np.empty(0) for _ in names]
        fh.seek(body)
        try:
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
        if data is not None and data.shape[1] == len(names):
            return list(data.T)
        fh.seek(body)
        cols = [[] for _ in names]
        for lineno, row in enumerate(csv.reader(fh), start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise ValueError(f"{path}:{lineno}: expected {len(names)} fields")
            try:
                for c, field in zip(cols, row):
                    c.append(float(field))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return [np.asarray(c, dtype=float) for c in cols]


def write_coeff_json(path, table: CoeffTable, cp: CurvatureParam) -> None:
    doc = {
        "kappa": cp.kappa,
        "nmax": table.nmax,
        "entries": [
            {"n": n, "k": k, "re": c.real, "im": c.imag}
            for (n, k), c in table.items()
        ],
    }
    _write_json(path, doc)


def _write_json(path, doc, sort_keys=False) -> None:
    """`doc` as the bytes of `json.dump(doc, fh, indent=1, sort_keys=...)`
    plus a newline, in one write (`json.dump` writes once per token)."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=sort_keys) + "\n")


def read_coeff_json(path) -> tuple[CoeffTable, float]:
    """Coefficient table and kappa of a JSON document.

    `nmax`, `n` and `k` must be JSON integers and `kappa`, `re` and `im`
    JSON numbers; nothing is coerced, and each value is built as
    ``complex(re, im)`` so signed zeros round-trip.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})") from None
    if type(doc) is not dict:
        raise ValueError(f"coefficient file {path} is not a JSON object")
    for key in ("kappa", "nmax", "entries"):
        if key not in doc:
            raise ValueError(f"coefficient file {path} lacks the {key!r} field")
    try:
        kappa = _json_number(doc["kappa"], "kappa")
        table = CoeffTable(nmax=_json_int(doc["nmax"], "nmax"))
        if type(doc["entries"]) is not list:
            raise ValueError(f"entries must be a list, got {doc['entries']!r}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for pos, ent in enumerate(doc["entries"]):
        try:
            nk = (_json_int(ent["n"], "n"), _json_int(ent["k"], "k"))
            table[nk] = complex(_json_number(ent["re"], "re"), _json_number(ent["im"], "im"))
        except _NonFiniteValues as exc:
            raise _NonFiniteValues(f"{path}: entry #{pos}: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad entry #{pos}: {exc}") from None
    return table, kappa


def _json_int(value, name) -> int:
    if type(value) is not int:  # bool is an int subclass; 2.9 and "2" are not ints
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_number(value, name) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def write_moments_csv(path, rows) -> None:
    """Moment table rows (n, k, abs_inner) in the documented CSV layout."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "k", "abs_inner"])
        for n, k, val in rows:
            writer.writerow([n, k, fmt(val)])


def write_spectrum_csv(path, nmax: int, cp: CurvatureParam) -> None:
    from .xray import singular_value

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "k", "sigma"])
        for n in range(nmax + 1):
            s = singular_value(n, cp)
            for k in range(n + 1):
                writer.writerow([n, k, fmt(s)])


def write_profiles_csv(path, rows) -> None:
    """Radial profile rows (n, k, rho, value) with the documented header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "k", "rho", "Re", "Im"])
        for n, k, rho, val in rows:
            writer.writerow([n, k, fmt(rho), fmt(val.real), fmt(val.imag)])


def write_fiber_profiles_csv(path, rows) -> None:
    """Fiber profile rows (n, k, alpha, value)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "k", "alpha", "Re", "Im"])
        for n, k, alpha, val in rows:
            writer.writerow([n, k, fmt(alpha), fmt(val.real), fmt(val.imag)])
