"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

They use small jobs (the cyclic groups of order up to 12 and Q8 in check
mode), so they take a few seconds.  They are not part of the repository's
test suite, whose tests live under tests/.
"""

from __future__ import annotations

import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

cli = worker.import_crepant()


def small_jobs(seed: int) -> list[jobs.Job]:
    cyclic = jobs.make_jobs("cyclic_series", seed)[:11]
    return cyclic + jobs.make_jobs("graded_check", seed)[:1]


def namespace_snapshot() -> dict:
    snap = {}
    for mod in spans.crepant_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
            if isinstance(value, type):
                for name, member in vars(value).items():
                    snap[(mod.__name__, attr, name)] = member
    return snap


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for w in jobs.WORKLOADS:
            self.assertEqual(jobs.make_jobs(w, 7), jobs.make_jobs(w, 7))

    def test_seed_changes_presentation_only(self):
        texts = {jobs.make_jobs("block_groups", s)[1].text for s in range(6)}
        self.assertGreater(len(texts), 1)
        for seed in (1, 2):
            for job in small_jobs(seed):
                out = worker.run_jobs(cli, [job], "test")["jobs"][0]
                self.assertEqual(
                    oracle.problems(job.group, job.mode, out["status"],
                                    out["rendered"]), [], job.job_id)

    def test_diagonal_stays_diagonal(self):
        for job in jobs.make_jobs("block_groups", 3)[1:]:
            for m in json.loads(job.text)["generators"]:
                for i, row in enumerate(m):
                    for j, entry in enumerate(row):
                        if i != j:
                            self.assertEqual(entry, "0")


class OracleTest(unittest.TestCase):
    def test_cubed_free_rank(self):
        # compositions of n into 4 parts, less the 4 with a part equal to n
        for n in (5, 6):
            self.assertEqual(oracle.EXPECTED[f"C{n}^3"]["free_rank"],
                             math.comb(n + 3, 3) - 4)

    def test_wrong_answers_are_caught(self):
        job = jobs.make_jobs("cyclic_series", 1)[3]  # C5
        out = worker.run_jobs(cli, [job], "test")["jobs"][0]
        report = json.loads(out["rendered"])
        report["analyze"]["free_rank"] += 1
        self.assertTrue(oracle.problems(job.group, job.mode, 0,
                                        json.dumps(report)))
        self.assertTrue(oracle.problems(job.group, job.mode, 1,
                                        out["rendered"]))
        self.assertTrue(oracle.problems(job.group, job.mode, None,
                                        "ValueError: boom"))


class ReferenceTest(unittest.TestCase):
    def test_reference_is_timed_around_each_job(self):
        todo = small_jobs(2)[:3]
        plain = worker.run_jobs(cli, todo, "test")["jobs"]
        timed = worker.run_jobs(cli, todo, "test", with_reference=True)["jobs"]
        for a, b in zip(plain, timed):
            self.assertNotIn("reference_s", a)
            self.assertGreater(b["reference_s"], 0)
            self.assertEqual(a["rendered"], b["rendered"])


class TracingTest(unittest.TestCase):
    def test_passes_render_identical_reports_and_restore(self):
        todo = small_jobs(5)
        before = namespace_snapshot()
        plain = worker.run_jobs(cli, todo, "test")

        patches = spans.Patches()
        tracer = spans.Tracer()
        tracer.install(patches)
        try:
            traced = worker.run_jobs(cli, todo, "test", tracer)
        finally:
            patches.restore()
        self.assertEqual(namespace_snapshot(), before)

        counts = spans.install_counters(patches)
        try:
            counted = worker.run_jobs(cli, todo, "test")
        finally:
            patches.restore()
        self.assertEqual(namespace_snapshot(), before)

        for a, b, c in zip(plain["jobs"], traced["jobs"], counted["jobs"]):
            self.assertEqual(a["rendered"], b["rendered"], a["job"])
            self.assertEqual(a["rendered"], c["rendered"], a["job"])
        self.assertTrue(all(v[0] > 0 for v in counts.values()), counts)

        roots = [s for s in tracer.spans if s[1] is None]
        self.assertEqual(len(roots), len(todo))
        self.assertEqual([r[5]["order"] for r in roots],
                         [oracle.EXPECTED[j.group]["order"] for j in todo])
        for root, duration, total in spans.root_balance(tracer.spans):
            self.assertEqual(duration, total)
        totals = spans.layer_totals(tracer.spans)
        # rebinding reaches calls made from other modules: cli.run ->
        # classgroup -> mckay / matgrp, and the FiniteMatrixGroup method
        for name in ("cli.run", "classgroup.terminalization_class_group",
                     "mckay.age_records", "matgrp.commutator_subgroup",
                     "matgrp.conjugacy_classes", "invariants.relative_invariant"):
            self.assertGreater(totals.get(name, (0, 0))[1], 0, name)
        self.assertEqual(totals["cli.run"][1], len(todo))

    def test_self_time_arithmetic(self):
        # root 0..100 with children 10..40 and 50..90; 50..90 has 60..70
        tree = [[0, None, "job", 0, 100, {}], [1, 0, "a", 10, 40, None],
                [2, 0, "b", 50, 90, None], [3, 2, "a", 60, 70, None]]
        self.assertEqual(spans.self_times(tree), [30, 30, 30, 10])
        self.assertEqual(spans.layer_totals(tree)["a"], (40, 2))
        self.assertEqual(spans.root_balance(tree), [(0, 100, 100)])


if __name__ == "__main__":
    unittest.main()
