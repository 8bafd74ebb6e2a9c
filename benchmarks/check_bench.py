#!/usr/bin/env python3
"""Self-checks of the benchmark harness (not of diskxray).

    python3 benchmarks/check_bench.py

Checks that a failing op raises fail_ratio, that the per-op checks catch
non-finite output and a wrong range verdict, that span self times add up,
that the metric names printed match BENCHMARK.json, and that the
benchmark refuses to run without the library sources.  Takes about a
minute; scratch files go under .bench_work/.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_work" / f"check-{os.getpid()}"


def run_bench(cwd, *args):
    cmd = [sys.executable, "benchmarks/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


class FlakyWorkload:
    """Trivial ops; the op with index `bad` raises."""

    sizes = {}

    def __init__(self, bad):
        self.bad, self.calls = bad, 0

    def make_input(self, rng, kappa):
        return kappa

    def run(self, inp):
        self.calls += 1
        if self.calls - 1 == self.bad:
            raise RuntimeError("injected failure")
        return inp

    def check(self, inp, raw):
        return {"stage.err_max": 1e-12}


class HarnessChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.parent.rmdir()

    def test_injected_failure_raises_fail_ratio(self):
        runner = run.Runner(FlakyWorkload(bad=1), workloads.KAPPAS,
                            workloads.OpFailure, workloads.VerdictFailure)
        runner.measure(np.random.default_rng(0), seconds=0.0)
        metrics, details, _ = run.end_to_end(runner, [1.0])
        self.assertEqual(len(runner.ops), len(workloads.KAPPAS))
        self.assertEqual(details["fail_ratio"], 1 / len(workloads.KAPPAS))
        ok_rate = (len(runner.ops) - 1) / sum(op["wall_s"] for op in runner.ops)
        self.assertAlmostEqual(metrics["ops_per_s"]["value"], ok_rate)

    def test_checks_catch_bad_outputs(self):
        wl = workloads.RangeCheck(str(SCRATCH))
        rng = np.random.default_rng(0)
        inp = wl.make_input(rng, 0.4)
        codes = wl.run(inp)
        self.assertLess(wl.check(inp, codes)["boundary.project.err_max"], 1e-3)
        with open(wl.out("projected.csv"), "a") as fh:
            fh.write("0,0,nan,0\n")
        with self.assertRaises(workloads.OpFailure):
            wl.check(inp, codes)
        with self.assertRaises(workloads.OpFailure):
            wl.check(inp, [("project", 3)])
        wl.cokernel_scale = 0.0  # a pure range element: the verdict must flip
        inp = wl.make_input(rng, 0.4)
        with self.assertRaises(workloads.VerdictFailure):
            wl.check(inp, wl.run(inp))

    def test_self_times_cover_the_wall(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("basis", "inner", lambda: time.sleep(0.02))

        def outer_fn():
            time.sleep(0.01)
            inner()

        outer = tracer.wrap("xray", "outer", outer_fn)
        tracer.begin_op(0)
        t0 = time.perf_counter()
        outer()
        wall = time.perf_counter() - t0
        tracer.end_op()
        per_layer, per_span = tracer.layer_self()
        self.assertAlmostEqual(per_layer["xray"] + per_layer["basis"], wall, delta=1e-3)
        self.assertGreater(per_span["basis.inner"], 0.019)
        self.assertEqual(tracer.counters["xray.calls"], 1)
        self.assertEqual(tracer.counters["basis.calls"], 1)
        self.assertEqual([s[3] for s in tracer.spans], [None, 0])

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", "range_check", "--seed", "0",
                             "--seconds", "1", "--trace", str(trace))
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want)

    def test_refuses_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.copytree(BENCH, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare, "--workload", "backproject", "--seed", "0",
                         "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
