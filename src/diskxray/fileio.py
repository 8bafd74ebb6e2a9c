"""File formats for sinograms, disk grids, coefficient tables and plain
tables (`write_table_csv`).

CSV columns: sinograms use ``beta,alpha,re,im``; disk grids use
``rho,omega,re,im``; both iterate row-major (first coordinate outer).
Disk grids are written, not read.  A sinogram file read onto a template
must carry the template's nodes, in order, to within 1e-12 absolute.
Every CSV file, tables included, is written by one block writer
(`_write_csv`), a fixed block of rows at a time, so the writer never
holds the whole file as text; sinograms are read from the file in
chunks.
Coefficient tables are JSON documents
``{"kappa": ..., "nmax": ..., "entries": [{"n":..,"k":..,"re":..,"im":..},
...]}`` with integer ``nmax``, ``n``, ``k`` and numeric ``kappa``, ``re``,
``im``, written as Python's shortest round-trip repr.  CSV fields carry
17 significant digits; both round-trip bit-exactly, signed zeros
included.

The CSV bytes: each field is exactly ``b"%.17g" % value`` (C99 ``%g``:
fixed notation for decimal exponents -4..16, else ``d.ddde+XX``,
trailing zeros stripped), fields are joined by commas and rows end in
CRLF.  A numpy kernel (`_g17`) formats the fields; NaN, inf, decimal
exponents beyond +-280 and values within 1e-6 of a rounding tie in the
17th digit are formatted by Python's ``%``.  The sinogram reader parses
a file once, its node columns as text, and converts each distinct node
text to a float once; a file that this parse cannot take (quotes, a
NUL, a wrong field count) is read field by field.  Both ways accept the
same files.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import lzma
import warnings

import numpy as np

from .basis import CoeffTable, _NonFiniteValues
from .geometry import CurvatureParam
from .xray import BoundaryGrid, DiskGrid

_BLOCK_ROWS = 2048  # CSV rows formatted per write


def _write_csv(path, header, columns) -> None:
    """Header row, then the columns side by side, one row per entry,
    written `_BLOCK_ROWS` rows at a time, so the writer holds one block
    of text, not the whole file.

    A column is a number array, whose block `_g17` formats, or an
    iterator of field texts that already end in their comma, drawn one
    block at a time.  The last column is an array and sets the row
    count; fields are joined by commas and rows end in CRLF.
    """
    n, width = len(columns[-1]), len(columns)
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for start in range(0, n, _BLOCK_ROWS):
            size = min(n - start, _BLOCK_ROWS)
            fields = [None] * (width * size)
            for j, col in enumerate(columns):
                fields[j::width] = (_g17(col[start:start + size], b"\r\n" if j == width - 1 else b",").tolist()
                                    if isinstance(col, np.ndarray) else itertools.islice(col, size))
            fh.write(b"".join(fields))


def _write_grid_csv(path, header, outer, inner, values) -> None:
    """Header row, then one ``outer,inner,re,im`` row per node, row-major.

    Each distinct coordinate is formatted once and drawn row by row from
    two iterators over those texts."""
    outer_s, inner_s = _g17(outer, b",").tolist(), _g17(inner, b",").tolist()
    flat = values.ravel()
    _write_csv(path, header, [itertools.chain.from_iterable(itertools.repeat(o, len(inner_s)) for o in outer_s),
                              itertools.cycle(inner_s), flat.real, flat.imag])


# The %.17g kernel.  For finite x != 0 with decimal exponent e, C99's
# "%.17g" prints the 17 significant digits D = round-half-even(|x| *
# 10**(16 - e)), in [10**16, 10**17), in fixed notation when -4 <= e < 17
# and as d.ddde+XX otherwise, with trailing zeros (and a bare point)
# stripped.  D is found from a double-double product |x| * 10**k: the
# Veltkamp/Dekker two-product (no fused multiply-add) against a
# double-double table of 10**k (each entry within about 2**-107
# relative), relative error about 2**-104, so about 1e-14 in units of D's
# last digit.  A product within 1e-6 of a half-integer could round the
# wrong way and is left to Python, as are NaN, inf and exponents outside
# the table.
# Within decimal exponents -280..280 the splits below neither overflow nor
# lose their low parts to subnormals.
_E_MIN, _E_MAX = -280, 280
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for 53-bit doubles
_TIE = 1e-6  # distance from a rounding tie, in units of D's last digit, left to Python
_TEXT_WIDTH = 24  # longest %.17g text: "-1.2345678901234567e-308"


def _two_prod(a, b):
    """p + err == a * b exactly (Dekker), for a, b whose products by
    `_SPLIT` do not overflow."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    c = _SPLIT * b
    bh = c - (c - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


@functools.cache
def _g17_tables():
    """Constant tables of `_g17`, built on first use (about 2 ms).

    ``pow_hi + pow_lo`` is 10**k for k = 16 - e, e from `_E_MAX` down to
    `_E_MIN`: ``pow_hi`` the correctly rounded 10**k and ``pow_lo`` the
    correctly rounded remainder 10**k - ``pow_hi``, both from exact
    integers.  ``digits4[i]`` is the four ASCII digits of i as one
    little-endian uint32, ``trailing0[i]`` their trailing zero count.
    ``layout[key]`` lists, for each output byte, its byte in a value's
    28-byte pool; ``length[key]`` is the text length.  The key is (sign,
    form, number of significant digits), the form one of the 21 fixed
    exponents -4..16, or scientific with a 2- or 3-digit exponent.
    """
    pows = []
    for k in range(16 - _E_MAX, 16 - _E_MIN + 1):
        if k >= 0:
            p = 10 ** k
            hi = float(p)  # int -> float is correctly rounded
            pows.append((hi, float(p - int(hi))))
        else:
            q = 10 ** -k
            hi = 1 / q  # int / int is correctly rounded
            m, d = hi.as_integer_ratio()
            pows.append((hi, (d - m * q) / (d * q)))
    pow_hi, pow_lo = map(np.array, zip(*pows))
    digits4 = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    trailing0 = np.zeros(10000, dtype=np.uint8)
    for z in range(1, 5):
        trailing0[::10 ** z] = z
    # pool bytes: 0..15 digits 2..17 of D, 16 its first digit, 17 '.', 18 '0',
    # 19 'e', 20 the exponent's sign, 21..23 its three digits, 24 '-', 25 null
    digit = "\x10" + "".join(map(chr, range(16)))
    texts = []
    for form in range(23):
        for nd in range(1, 18):
            if form > 20:
                text = digit[0] + ("\x11" + digit[1:nd] if nd > 1 else "") + "\x13\x14" + \
                    ("\x16\x17" if form == 21 else "\x15\x16\x17")
            elif form >= 4:
                text = digit[:form - 3] + ("\x11" + digit[form - 3:nd] if nd > form - 3 else "")
            else:
                text = "\x12\x11" + "\x12" * (3 - form) + digit[:nd]
            texts.append(text)
    pos = np.frombuffer("".join(t.ljust(_TEXT_WIDTH + 2, "\x19") for t in texts).encode(),
                        np.uint8).reshape(len(texts), -1)
    neg = np.concatenate([np.full((len(texts), 1), 24, np.uint8), pos[:, :-1]], axis=1)
    length = np.array([len(t) for t in texts])
    return {
        "pow_hi": pow_hi, "pow_lo": pow_lo, "trailing0": trailing0,
        "digits4": np.ascontiguousarray(digits4).view("<u4").ravel(),
        "layout": np.concatenate([pos, neg]),
        "length": np.concatenate([length, length + 1]),
    }


def _g17_digits(ax, e, tab):
    """D = round-half-even(ax * 10**(16 - e)) as int64, whether the
    product is below 10**16, and whether it lies within `_TIE` of a
    half-integer."""
    k = _E_MAX - e
    p, err = _two_prod(ax, tab["pow_hi"][k])
    err += ax * tab["pow_lo"][k]
    whole = np.floor(p)
    rest = (p - whole) + err
    carry = np.floor(rest)
    frac = rest - carry
    floor = whole.astype(np.int64) + carry.astype(np.int64)
    return floor + (frac > 0.5), floor < 10 ** 16, np.abs(frac - 0.5) < _TIE


def _g17(x, end=b""):
    """``b"%.17g" % v + end`` for each v of the float array x, as a 1-D
    null-padded bytes array (``tolist()`` gives the bytes objects).

    `end` is at most two bytes.  NaN, inf, exponents outside the table
    and near-ties are formatted by Python; all else, zeros included, by
    the vectorised kernel described above.
    """
    tab = _g17_tables()
    x = np.asarray(x, dtype=float).ravel()
    ax = np.abs(x)
    zero = ax == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(np.where(zero, 1.0, ax)))
    slow = ~((e >= _E_MIN) & (e <= _E_MAX))
    e = np.where(slow, 0, e).astype(np.int64)
    ax = np.where(slow | zero, 1.0, ax)  # a zero is formatted as 1, then its digit set to 0
    d, below, tie = _g17_digits(ax, e, tab)
    off = below | (d >= 10 ** 17)
    if off.any():  # floor(log10) missed the decade, or D rounded up into the next one
        i = np.flatnonzero(off)
        e2 = e[i] + np.where(below[i], -1, 1)
        inside = (e2 >= _E_MIN) & (e2 <= _E_MAX)
        d2, _, tie2 = _g17_digits(ax[i], np.where(inside, e2, 0), tab)
        # below 10**16 with a D at e - 1 that rounds up to 10**17: e was right, D is 10**16
        take = inside & (d2 < 10 ** 17)
        e[i[take]], d[i[take]], tie[i[take]] = e2[take], d2[take], tie2[take]
        slow[i[~inside]] = True
    slow |= tie | (d < 10 ** 16) | (d >= 10 ** 17)
    n = x.size
    groups = np.empty((n, 4), dtype=np.int64)
    first, rest = np.divmod(d, 10 ** 16)
    hi, lo = np.divmod(rest, 10 ** 8)
    groups[:, 0], groups[:, 1] = np.divmod(hi, 10 ** 4)
    groups[:, 2], groups[:, 3] = np.divmod(lo, 10 ** 4)
    pool = np.empty((n, 7), dtype="<u4")
    pool[:, :4] = tab["digits4"][groups]
    pool[:, 4] = first + np.where(zero, ord("0") - 1, ord("0")) + int.from_bytes(b"\0.0e", "little")
    ae = np.abs(e)
    pool[:, 5] = (tab["digits4"][ae] & 0xFFFFFF00) | np.where(e < 0, ord("-"), ord("+"))
    pool[:, 6] = ord("-")
    zeros = tab["trailing0"][groups[:, 3]]
    for j in (2, 1, 0):
        zeros += np.where(zeros == 4 * (3 - j), tab["trailing0"][groups[:, j]], 0)
    form = np.where((e >= -4) & (e <= 16), e + 4, np.where(ae < 100, 21, 22))
    key = (np.signbit(x) * 23 + form) * 17 + 16 - zeros
    pool = pool.view(np.uint8)
    idx = tab["layout"][key] + np.arange(0, pool.size, pool.shape[1])[:, None]
    out = np.take(pool, idx)
    rows, length = np.arange(n), tab["length"][key]
    for j, c in enumerate(end):
        out[rows, length + j] = c
    for i in np.flatnonzero(slow):
        text = b"%.17g" % x[i] + end
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out.view(f"S{out.shape[1]}").ravel()


def write_sinogram_csv(path, grid: BoundaryGrid) -> None:
    _write_grid_csv(path, ["beta", "alpha", "re", "im"], grid.beta, grid.alpha, grid.values)


def read_sinogram_csv(path, template: BoundaryGrid) -> BoundaryGrid:
    """Read a sinogram CSV onto a template grid.

    The node coordinates in the file must match the template's nodes
    (same order, 1e-12 absolute); a mismatch is an error, not a resample.
    The file is opened as text and its header checked once; the body is
    parsed from the path by `_read_node_text`, and only a body that parse
    cannot take goes to `_read_columns`, which reads it from the open
    file by the same rules or names its first bad line.  Text that is
    not in the locale's encoding is an error naming the file.
    """
    header, shape = ["beta", "alpha", "re", "im"], template.shape
    # the one-pass parse's text fields drop trailing NULs, which float() rejects
    with open(path, "rb") as raw:
        nul = any(b"\0" in chunk for chunk in iter(functools.partial(raw.read, 1 << 16), b""))
    try:
        with open(path, newline="") as fh:
            _check_header(fh, path, header)
            cols = None if nul else _read_node_text(path, shape)
            if cols is None:
                cols = _read_columns(fh, path, len(header))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    beta, alpha, re, im = cols
    if len(re) != shape[0] * shape[1]:
        raise ValueError(f"sinogram has {len(re)} rows, template expects {shape[0] * shape[1]}")
    if not (
        np.allclose(np.asarray(beta).reshape(shape), template.beta[:, None], atol=1e-12, rtol=0)
        and np.allclose(np.asarray(alpha).reshape(shape), template.alpha[None, :], atol=1e-12, rtol=0)
    ):
        raise ValueError("sinogram nodes do not match the configured grid")
    return template.with_values(_complex(re, im).reshape(shape))


def write_diskgrid_csv(path, grid: DiskGrid) -> None:
    _write_grid_csv(path, ["rho", "omega", "re", "im"], grid.rho, grid.omega, grid.values)


# grid node fields are read as text this wide, past %.17g and %.18e text;
# a field that fills it may have been cut short
_NODE_WIDTH = 32
_NODE_TEXT_ROW = np.dtype([("outer", f"S{_NODE_WIDTH}"), ("inner", f"S{_NODE_WIDTH}"),
                           ("re", float), ("im", float)])


def _read_node_text(path, shape):
    """The four columns of the body of the grid file `path` of `shape`,
    its first line skipped, by one `np.loadtxt` pass over the file in
    chunks that reads the node columns as text, then converts them as
    `float()` does: each distinct text once when each row of the grid
    repeats one outer node text and each column one inner node text, as
    the writers' files do, else field by field.  A body of blank lines
    gives empty columns.  None when that pass cannot take the body
    (quotes, a wrong field count, a node field that fills `_NODE_WIDTH`,
    undecodable text) or numpy opens `path` through the decompressor its
    suffix names (.gz, .bz2, .xz, .lzma), which refuses plain text."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", comments=None, dtype=_NODE_TEXT_ROW, ndmin=1, skiprows=1)
        c_outer, c_inner = data["outer"], data["inner"]
        if any(c.view((np.uint8, _NODE_WIDTH))[:, -1].any() for c in (c_outer, c_inner)):
            return None
        if data.size == shape[0] * shape[1]:
            o, i = c_outer.reshape(shape), c_inner.reshape(shape)
            if (o == o[:, :1]).all() and (i == i[:1]).all():
                c_outer, c_inner = o[:, :1], i[:1]
        c_outer, c_inner = np.broadcast_arrays(c_outer.astype(float), c_inner.astype(float))
    except (ValueError, OSError, lzma.LZMAError):
        return None
    return [c_outer, c_inner, data["re"], data["im"]]


def _complex(re, im) -> np.ndarray:
    """Complex array from its parts; re + 1j*im would turn -0.0 into 0.0."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _check_header(fh, path, names):
    """Check the header line of the open CSV file `fh` against `names`,
    leaving the file at its body."""
    header = next(csv.reader([fh.readline()]), [])
    if [h.strip().lower() for h in header] != names:
        raise ValueError(f"expected header {','.join(names)} in {path}, got {header}")


def _read_columns(fh, path, n_fields):
    """`n_fields` float columns of the open CSV file `path` from its
    second line on, where `fh` stands, parsed field by field with
    `float()`; blank lines are skipped and the first bad line is named
    as path:lineno.  The CLI reads through it every sinogram whose node
    fields the one-pass parse refuses: quoted, or too wide for
    `_NODE_WIDTH`."""
    cols = [[] for _ in range(n_fields)]
    for lineno, row in enumerate(csv.reader(fh), start=2):
        if not row:
            continue
        if len(row) != n_fields:
            raise ValueError(f"{path}:{lineno}: expected {n_fields} fields")
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
    plus a newline, in one write (`json.dump` writes once per token).  It
    is serialised before the path is opened, so a failing dump leaves no
    file."""
    text = json.dumps(doc, indent=1, sort_keys=sort_keys) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def read_coeff_json(path) -> tuple[CoeffTable, float]:
    """Coefficient table and kappa of a JSON document.

    `nmax`, `n` and `k` must be JSON integers and `kappa`, `re` and `im`
    JSON numbers; nothing is coerced, and each value is built as
    ``complex(re, im)`` so signed zeros round-trip.  A negative nmax and
    a second entry for one (n, k) are rejected.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
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
            if nk in table.entries:  # held in file order, one key per entry
                raise ValueError(f"(n, k) = {nk} repeats entry #{list(table.entries).index(nk)}")
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


def write_table_csv(path, table, header) -> None:
    """A table as CSV: the header row, then one row per row of the
    (n_rows x n_cols) numbers `table`, every field ``b"%.17g" % v`` (an
    integer below 2**53 reads as itself); an empty table is the header
    alone."""
    table = np.asarray(table, dtype=float).reshape(len(table), len(header))
    _write_csv(path, header, list(table.T))
