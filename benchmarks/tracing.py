"""Span recorder and layer wrappers for the traced benchmark run.

Stdlib only.  A `Tracer` patches the public functions of each diskxray
layer module, at every module of the package that binds them, so that
each call opens a span (name, start, end, parent, op id).  Spans stay in
memory and are written once when the run ends.  A layer's self time is
the summed span durations minus the time covered by child spans.

Counters are taken at the same boundaries (points evaluated, bytes
written, torus cells built) so ratios are measured where the work
happens.  Nothing inside `src/` is edited; patches are undone by
`uninstall`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("geometry", "basis", "xray", "boundary", "fileio", "cli")

# basis functions whose results are mode evaluations on a grid
_BASIS_FAMILIES = {
    "zernike", "zernike_kappa", "zernike_kappa_hat", "zernike_radial",
    "psi_kappa", "psi_kappa_hat", "psi_over_mu", "e_pl", "phi_prime",
    "u_prime", "v_prime", "boundary_family", "cheb_w",
}
# per-value helpers called once per CSV field: a span each would cost more
# than the work, so their time stays in the calling function's self time
_UNWRAPPED = {"fileio.fmt"}
# functions whose peak traced allocation is reported
_PEAK_ALLOC = {"xray.adjoint_sharp", "boundary.project_to_range"}


def _fingerprint(x):
    """Cheap identity of an argument: the value of a scalar, or the shape
    and first, middle and last entries of an array."""
    try:
        size = x.size
    except AttributeError:
        return ("scalar", x)
    if size == 0:
        return (x.shape,)
    flat = x.reshape(-1)
    return (x.shape, complex(flat[0]), complex(flat[-1]), complex(flat[size // 2]))


def _size(result):
    if isinstance(result, tuple):
        result = result[0]
    return int(getattr(result, "size", 1))


def _rows(name, args, result):
    """Records moved by a fileio call: grid nodes, table entries or rows."""
    obj = result if name.startswith("read_") else (args[1] if len(args) > 1 else None)
    if isinstance(obj, tuple):
        obj = obj[0]
    if hasattr(obj, "values"):
        return int(obj.values.size)
    if hasattr(obj, "entries"):
        return len(obj.entries)
    if hasattr(obj, "__len__"):
        return len(obj)
    return 0


class Tracer:
    """In-memory spans plus counters for one benchmark process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent_index, op_id]
        self.self_time = defaultdict(float)  # span name -> self seconds
        self.counters = defaultdict(float)
        self.distinct = set()
        self.active = False
        self.op_id = None
        self._stack = []  # [span index, child seconds]
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self):
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        dur = span[2] - span[1]
        self.self_time[span[0]] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def _parent_layer(self):
        if not self._stack:
            return None
        return self.spans[self._stack[-1][0]][0].split(".", 1)[0]

    def begin_op(self, op_id):
        self.op_id = op_id
        self.distinct = set()
        self.active = True

    def end_op(self):
        self.active = False
        self.counters["basis.distinct"] += len(self.distinct)
        self.op_id = None

    # -- wrappers ----------------------------------------------------------

    def wrap(self, layer, name, fn):
        """Return fn wrapped in a span named "<layer>.<name>"."""
        span_name = f"{layer}.{name}"
        count = self._counter(layer, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = tracer._parent_layer() != layer
            if outer:
                tracer.counters[f"{layer}.calls"] += 1
            if span_name == "xray.sinogram" and args and callable(args[0]):
                args = (tracer._integrand(args[0]),) + args[1:]
            peak = span_name in _PEAK_ALLOC and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            before = None
            if layer == "fileio" and name.startswith("read_") and args:
                before = os.path.getsize(args[0])
            tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
                if peak:
                    alloc = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    key = f"{span_name}.peak_alloc_mb"
                    tracer.counters[key] = max(tracer.counters[key], alloc)
            if count is not None:
                count(outer, args, kwargs, result, before)
            if span_name == "xray.interpolant" and callable(result):
                result = tracer.wrap("xray", "interpolant", result)
            return result

        return wrapper

    def _integrand(self, f):
        """Count integrand calls and nodes inside a sinogram; the
        integrand's own time goes to the layer that defined it."""
        module = getattr(f, "__module__", "") or ""
        layer = module.rsplit(".", 1)[-1] if module.startswith("diskxray.") else None
        inner = self.wrap(layer, "integrand", f) if layer in LAYERS else f
        tracer = self

        def counted(z):
            tracer.counters["xray.sinogram.integrand_calls"] += 1
            tracer.counters["xray.sinogram.node_evals"] += _size(z)
            return inner(z)

        return counted

    def _counter(self, layer, name):
        c = self.counters
        if layer == "basis" and name in _BASIS_FAMILIES:
            def count(outer, args, kwargs, result, before):
                if outer:
                    c["basis.mode_points"] += _size(result)
                    c["basis.evals"] += 1
                    self.distinct.add((name,) + tuple(_fingerprint(a) for a in args))
            return count
        if layer == "geometry":
            def count(outer, args, kwargs, result, before):
                if outer:
                    c["geometry.points"] += _size(result)
            return count
        if layer == "fileio" and name.startswith(("read_", "write_")):
            def count(outer, args, kwargs, result, before):
                path = args[0]
                c["fileio.bytes_read" if before is not None else "fileio.bytes_written"] += (
                    before if before is not None else os.path.getsize(path))
                c["fileio.rows"] += _rows(name, args, result)
            return count
        if (layer, name) == ("xray", "adjoint_sharp"):
            def count(outer, args, kwargs, result, before):
                n_theta = kwargs.get("n_theta", args[3] if len(args) > 3 else 512)
                c["xray.adjoint_sharp.targets"] += _size(result) * n_theta
            return count
        if (layer, name) == ("boundary", "extend"):
            def count(outer, args, kwargs, result, before):
                c["boundary.torus_cells"] += result.values.size
            return count
        return None

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of each layer wherever it is bound."""
        modules = [sys.modules["diskxray"]] + [
            sys.modules[f"diskxray.{m}"] for m in (*LAYERS, "selftest")
            if f"diskxray.{m}" in sys.modules
        ]
        for layer in LAYERS:
            mod = sys.modules[f"diskxray.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or f"{layer}.{name}" in _UNWRAPPED:
                    continue
                wrapped = self.wrap(layer, name, obj)
                for target in modules:
                    if vars(target).get(name) is obj:
                        self._patches.append((target, name, obj))
                        setattr(target, name, wrapped)
        grid_cls = sys.modules["diskxray.xray"].BoundaryGrid
        original = grid_cls.interpolant
        self._patches.append((grid_cls, "interpolant", original))
        grid_cls.interpolant = self.wrap("xray", "interpolant", original)

    def uninstall(self):
        for target, name, obj in reversed(self._patches):
            setattr(target, name, obj)
        self._patches = []

    # -- output ------------------------------------------------------------

    def layer_self(self):
        """Self seconds per layer and per span name."""
        per_layer = defaultdict(float)
        for name, secs in self.self_time.items():
            per_layer[name.split(".", 1)[0]] += secs
        return per_layer, dict(self.self_time)

    def write(self, path, header):
        """Write the header and every span as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
