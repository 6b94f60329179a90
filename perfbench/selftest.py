"""Self-test of the benchmark at smoke size (a few seconds).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that the names the benchmark emits are well formed and are
the ones ``BENCHMARK.json`` lists, that times are scaled by the
reference's speed, that each output check fires on a
tampered fingerprint, a NaN estimate and a truncated checkpoint file,
that the traced self times and ``unattributed_s`` add up to the traced
wall time, and that the command fails, printing no result, without the
library source next to it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from repro.api import MaxSamples  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SCRATCH = ROOT / ".perfbench" / "selftest"

SMOKE_LR = dataclasses.replace(
    wl.WORKLOADS["lr_clustered"], size=10_000, samples=6, seeds_per_loop=2)
SMOKE_FANOUT = dataclasses.replace(
    wl.WORKLOADS["fanout_ckpt"], size=10_000, samples=10, runs=2, rounds=1, state_every=5)


def setUpModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


def traced(workload, seed=1):
    tally = wl.Tally()
    items = workload.items(seed)
    prep = workload.setup(SCRATCH)
    loop = wl.closed_loop(workload, prep, items, 0.0, tally, min_steps=len(items))
    untraced_s = [loop["scaled"][pos][0] for pos in range(len(items))]
    tracer = spans.Tracer(workload.name)
    setup_totals, records, refs = wl.traced_pass(workload, SCRATCH, items, tally, tracer)
    return tally, records, wl.per_layer(workload, setup_totals, records, refs, untraced_s)


class Names(unittest.TestCase):
    def test_emitted_names_are_well_formed_and_listed(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        tally = wl.Tally()
        prep = SMOKE_LR.setup(SCRATCH)
        loop = wl.closed_loop(SMOKE_LR, prep, SMOKE_LR.items(1), 0.0, tally, min_steps=2)
        end_to_end = wl.end_to_end([0.1], [[0.02], [0.02]], loop)
        _tally, _records, per_layer = traced(SMOKE_LR)
        for name in [*wl.WORKLOADS, *end_to_end, *per_layer]:
            self.assertRegex(name, NAME)
        self.assertEqual(list(wl.WORKLOADS), [w["name"] for w in bench["workloads"]])
        self.assertEqual(list(end_to_end), [m["name"] for m in bench["end_to_end"]])
        self.assertEqual(list(per_layer), [m["name"] for m in bench["per_layer"]])
        self.assertEqual(list(per_layer), list(metrics.MOVES))


class ReferenceScaling(unittest.TestCase):
    def test_each_time_is_scaled_by_the_reference_times_around_it(self):
        r = wl.REF_S
        got = wl.scaled([1.0, 4.0], [[r], [r, 3 * r], [3 * r]])
        self.assertEqual(len(got), 2)
        self.assertAlmostEqual(got[0], 1.0)
        self.assertAlmostEqual(got[1], 4.0 / 3)
        loop = {"scaled": {0: [1.0, 3.0], 1: [4.0]},
                "last": {0: wl.Step(1.0, [], 10), 1: wl.Step(4.0, [], 10)}}
        values = wl.end_to_end([0.4, 0.2, 0.3], [[r / 2]] * 4, loop)
        self.assertAlmostEqual(values["setup_s"], 0.3 * 2)
        self.assertAlmostEqual(values["run_s"], (2.0 + 4.0) / 2)
        self.assertAlmostEqual(values["samples_per_s"], 20 / (2.0 + 4.0))


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.world = SMOKE_LR.world_spec().build()
        cls.paused = SMOKE_LR.session(cls.world).seed(7).start(MaxSamples(4))
        cls.result = cls.paused.run()

    def test_a_clean_run_passes(self):
        tally = wl.Tally()
        tally.record(7, self.result, wl.check_result(self.result, 4))
        tally.record(7, self.result, wl.check_result(self.result, 4))
        self.assertEqual((tally.attempted, tally.failed), (2, 0))

    def test_tampered_fingerprint_fails(self):
        tally = wl.Tally()
        tally.record(7, self.result, None)
        tampered = dataclasses.replace(self.result, queries=self.result.queries + 1)
        tally.record(7, tampered, None)
        self.assertEqual(tally.failed, 1)
        self.assertIn("differs", tally.errors[0])

    def test_nan_estimate_fails(self):
        nan = dataclasses.replace(self.result, estimate=math.nan)
        self.assertIsNotNone(wl.check_result(nan, 4))
        self.assertIsNotNone(wl.check_result(self.result, 5))  # stopping rule not reached

    def test_truncated_checkpoint_fails(self):
        path = SCRATCH / "run-000.state.json"
        path.write_text(json.dumps(self.paused.to_state()))
        self.assertIsNone(wl.check_checkpoint(self.world, path, self.result)[0])
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        error, _resumed = wl.check_checkpoint(self.world, path, self.result)
        self.assertIn("does not resume", error)


class Tracing(unittest.TestCase):
    def test_self_times_and_unattributed_add_up_to_wall(self):
        tally, records, values = traced(SMOKE_LR)
        self.assertEqual(tally.failed, 0)
        wall = statistics.fmean(step.wall for step in records)
        total = sum(values[name] for name in metrics.SELF_TIMES) + values["unattributed_s"]
        self.assertAlmostEqual(total, wall, delta=1e-9 * len(records) + 1e-12)
        self.assertGreater(values["voronoi_oracle.self_s"], 0.0)
        self.assertGreater(values["index.build_s"], 0.0)
        self.assertGreater(values["index.knn_calls"], 0.0)

    def test_worker_totals_come_back_from_the_fan_out(self):
        tally, _records, values = traced(SMOKE_FANOUT)
        self.assertEqual(tally.failed, 0)
        per_run = SMOKE_FANOUT.samples // SMOKE_FANOUT.state_every + 1
        self.assertEqual(values["api.checkpoints"], SMOKE_FANOUT.runs * per_run)
        self.assertEqual(values["parallel.progress_events"],
                         SMOKE_FANOUT.runs * SMOKE_FANOUT.samples)
        self.assertGreater(values["parallel.checkpoint_write_s"], 0.0)
        self.assertGreater(values["index.knn_calls"], 0.0)
        self.assertTrue(0.0 < values["parallel.busy_ratio"] <= 1.0)


class Checkout(unittest.TestCase):
    def test_fails_without_the_library_source(self):
        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lr_clustered",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
