#!/usr/bin/env python3
"""diskxray benchmark: one workload per process, one op at a time.

    python3 benchmarks/run.py --workload simulate_invert --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
./src and nothing else.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
The line before it records the run environment and the details behind
each metric.  Both, plus the spans of a traced run, are also written to
.bench_out/.  See benchmarks/README.md for what each workload measures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("simulate_invert", "range_check", "backproject")
SETUP_SAMPLES = 3  # this process plus two fresh child processes
WARMUP_KAPPA = 0.4
ERR_FLOOR = 1e-16  # keeps accuracy_digits finite for an exact result
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import, prepare inputs, one warm-up op, print setup_s")
    return p.parse_args(argv)


def cap_blas_threads():
    """Cap BLAS threads at the cores this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def environment(args, nproc, sizes):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "diskxray").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "nproc": nproc,
        "cpu": cpu,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "loop": "closed",
        "input_sizes": sizes,
    }


class Runner:
    """Times a workload's ops in whole cycles over KAPPAS."""

    def __init__(self, workload, kappas, op_failure, verdict_failure):
        self.wl = workload
        self.kappas = kappas
        self.op_failure = op_failure
        self.verdict_failure = verdict_failure
        self.ops = []  # one dict per attempted op

    def one_op(self, rng, kappa, tracer=None):
        inp = self.wl.make_input(rng, kappa)
        op = {"kappa": kappa, "traced": tracer is not None, "errors": {}, "failure": None}
        if tracer is not None:
            tracer.begin_op(len(self.ops))
        t0 = time.perf_counter()
        try:
            raw = self.wl.run(inp)
        except Exception as exc:  # the op's failure is a result, not a crash
            raw, op["failure"] = None, f"{type(exc).__name__}: {exc}"
        op["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if op["failure"] is None:
            try:
                op["errors"] = self.wl.check(inp, raw)
            except self.verdict_failure as exc:
                op["failure"], op["verdict_wrong"] = str(exc), True
            except self.op_failure as exc:
                op["failure"] = str(exc)
        if op["failure"] is not None:
            print(f"op {len(self.ops)} (kappa={kappa}) failed: {op['failure']}", file=sys.stderr)
        self.ops.append(op)
        return op

    def measure(self, rng, seconds, tracer=None):
        """Run whole cycles until the budget is spent; with a tracer, odd
        cycles are traced and even ones not, so the two are paired."""
        start = time.perf_counter()
        cycle = 0
        while True:
            traced = tracer is not None and cycle % 2 == 1
            if traced:
                tracer.install()
            c0 = time.perf_counter()
            try:
                for kappa in self.kappas:
                    self.one_op(rng, kappa, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            cycle += 1
            last = time.perf_counter() - c0
            if tracer is not None and cycle < 2:
                continue
            # stop at the cycle boundary nearest to the budget
            if time.perf_counter() - start + 0.5 * last >= seconds:
                return


def summarize(ops):
    """Per-op walls, ok count and worst error per stage."""
    ok = [op for op in ops if op["failure"] is None]
    worst = {}
    for op in ok:
        for stage, err in op["errors"].items():
            worst[stage] = max(worst.get(stage, 0.0), err)
    walls = [op["wall_s"] for op in ops]
    return ok, walls, worst


def tail(walls):
    """Highest percentile with at least ten ops beyond it, or None."""
    n = len(walls)
    if n < 20:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value_s": sorted(walls)[n - 11],
            "beyond": 10, "samples": n}


def end_to_end(runner, setup_samples):
    ok, walls, worst = summarize(runner.ops)
    worst_err = max(worst.values(), default=math.inf)
    metrics = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "ops_per_s": {"value": len(ok) / sum(walls), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "accuracy_digits": {"value": -math.log10(max(worst_err, ERR_FLOOR)), "unit": "digits"},
    }
    details = {
        "op_p50_s": statistics.median(walls),
        "op_p50_samples": len(walls),
        "op_walls_s": walls,
        "op_tail": tail(walls),
        "fail_ratio": (len(runner.ops) - len(ok)) / len(runner.ops),
        "setup_samples_s": setup_samples,
        "worst_error_by_stage": worst,
        "worst_error_by_kappa": {
            str(k): max((e for op in ok if op["kappa"] == k for e in op["errors"].values()),
                        default=None) for k in runner.kappas},
    }
    return metrics, details, worst_err


def per_layer(runner, tracer, layers):
    traced = [op for op in runner.ops if op["traced"]]
    plain = [op for op in runner.ops if not op["traced"]]
    n = len(traced)
    wall = sum(op["wall_s"] for op in traced)
    layer_self, span_self = tracer.layer_self()
    c = tracer.counters
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for layer in layers:
        put(f"{layer}.calls", c[f"{layer}.calls"] / n, "count")
        put(f"{layer}.self_s", layer_self.get(layer, 0.0) / n, "s")
        put(f"{layer}.share", layer_self.get(layer, 0.0) / wall, "ratio")
    put("trace.remainder_share", 1.0 - sum(layer_self.get(x, 0.0) for x in layers) / wall, "ratio")
    put("basis.mode_points", c["basis.mode_points"] / n, "count")
    put("basis.distinct_ratio",
        c["basis.distinct"] / c["basis.evals"] if c["basis.evals"] else 1.0, "ratio")
    put("geometry.points", c["geometry.points"] / n, "count")
    for span in ("xray.sinogram", "xray.analyze", "xray.synthesize", "xray.invert",
                 "xray.interpolant", "xray.adjoint_sharp", "boundary.extend",
                 "boundary.hilbert", "boundary.scattering_pullback", "boundary.sa_pullback",
                 "boundary.project_to_range", "boundary.moment_residuals"):
        put(f"{span}.self_s", span_self.get(span, 0.0) / n, "s")
    for counter in ("xray.sinogram.integrand_calls", "xray.sinogram.node_evals",
                    "xray.adjoint_sharp.targets", "boundary.torus_cells",
                    "fileio.bytes_written", "fileio.bytes_read", "fileio.rows"):
        put(counter, c[counter] / n, "count" if not counter.startswith("fileio.bytes") else "B")
    for peak in ("xray.adjoint_sharp.peak_alloc_mb", "boundary.project_to_range.peak_alloc_mb"):
        put(peak, c[peak], "MB")
    _, _, worst = summarize(runner.ops)
    for stage in ("xray.sinogram.err_max", "xray.invert.coeff_err_max",
                  "boundary.project.err_max", "xray.adjoint_sharp.err_max"):
        put(stage, worst.get(stage, 0.0), "ratio")
    verdicts = [op for op in runner.ops if "boundary.project.err_max" in op["errors"]
                or op.get("verdict_wrong")]
    put("boundary.moments.verdict_ok",
        sum(not op.get("verdict_wrong") for op in verdicts) / len(verdicts) if verdicts else 0.0,
        "ratio")
    def rate(ops):
        return sum(op["failure"] is None for op in ops) / sum(op["wall_s"] for op in ops)

    put("trace.overhead_ratio", rate(traced) / rate(plain), "ratio")
    return m


def setup_probe_samples(args, count):
    """Set-up time of fresh processes, run one after another."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None):
    args = parse_args(argv)
    nproc = cap_blas_threads()
    if not (SRC / "diskxray" / "__init__.py").is_file():
        print(f"no diskxray sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import numpy as np  # noqa: F401  (part of the timed import)
    import scipy  # noqa: F401
    import diskxray
    import_s = time.perf_counter() - t0
    if Path(diskxray.__file__).resolve().parent != (SRC / "diskxray").resolve():
        print(f"imported diskxray from {diskxray.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](str(workdir), oracle=not args.setup_probe)
        prepare_s = time.perf_counter() - t0

        # one untimed op fills lazy caches; it counts towards set-up
        inp = wl.make_input(np.random.default_rng([args.seed, 1]), WARMUP_KAPPA)
        t0 = time.perf_counter()
        wl.run(inp)
        warmup_s = time.perf_counter() - t0
        setup_s = import_s + warmup_s
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        setup_samples = [setup_s]
        if not args.trace:
            setup_samples += setup_probe_samples(args, SETUP_SAMPLES - 1)

        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(wl, workloads.KAPPAS, workloads.OpFailure, workloads.VerdictFailure)
        runner.measure(np.random.default_rng([args.seed, 2]), args.seconds, tracer)

        env = environment(args, nproc, wl.sizes)
        metrics, details, worst_err = end_to_end(runner, setup_samples)
        details.update(import_s=import_s, warmup_s=warmup_s, prepare_s=prepare_s,
                       ops=len(runner.ops))
        if args.trace:
            metrics = per_layer(runner, tracer, tracing.LAYERS)
        failed = sum(op["failure"] is not None for op in runner.ops)
        # correct: every op passed its checks and beat a zero output against its oracle
        result = {"correct": failed == 0 and worst_err < 1.0, "attempted": len(runner.ops),
                  "failed": failed, "metrics": metrics}

        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(out / f"result-{stem}.json", "w") as fh:
            json.dump({"environment": env, "details": details, "result": result}, fh, indent=1)
        if tracer is not None:
            tracer.write(out / f"spans-{stem}.jsonl", {"environment": env, "metrics": metrics})
        print(json.dumps({"environment": env, "details": details}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it


if __name__ == "__main__":
    # a terminated run still removes its work directory and set-up children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        sys.exit(main())
    except Exception:  # report and exit non-zero without a result line
        traceback.print_exc()
        sys.exit(1)
