#!/usr/bin/env python3
"""Self-tests for perfbench/run.py's aggregation: how a run's instances
are seeded, how their failures add up, how their fingerprints are
checked, and that BENCHMARK.json names only metrics the runner makes.

    python3 perfbench/tests/test_run.py
"""

import importlib.util
import json
import re
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = importlib.util.spec_from_file_location("run", HERE.parent / "run.py")
run = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(run)


def report(seed, prints="aa", attempted=10, failed=0, mode="run",
           correct=True, error="", **metrics):
    r = {"seed": seed, "fingerprints": prints, "attempted": attempted,
         "failed": failed, "mode": mode, "correct": correct,
         "error": error}
    r.update(metrics)
    return r


class InstancePlan(unittest.TestCase):
    def test_count_depends_only_on_the_arguments(self):
        self.assertEqual(run.instance_count("batch_long", 20, False), 4)
        self.assertEqual(run.instance_count("batch_long", 1, False),
                         run.MIN_INSTANCES)
        self.assertEqual(run.instance_count("fed_storm", 20, True), 7)
        self.assertEqual(run.instance_count("qosd_epochs", 2, True), 2)

    def test_seeds_start_at_the_workload_seed_and_never_repeat(self):
        seeds = run.instance_seeds(42, 5)
        self.assertEqual(seeds[0], 42)
        self.assertEqual(len(set(seeds)), 5)
        self.assertEqual(seeds, run.instance_seeds(42, 5))
        self.assertFalse(set(seeds) & set(run.instance_seeds(43, 5)))


class FailureAccounting(unittest.TestCase):
    def test_counts_add_across_instances(self):
        attempted, failed, frac = run.tally(
            [report(1, attempted=1000, failed=1),
             report(2, attempted=1000, failed=0),
             report(3, attempted=48, failed=3)])
        self.assertEqual((attempted, failed), (2048, 4))
        self.assertAlmostEqual(frac, 4 / 2048)

    def test_nothing_attempted_is_no_failure(self):
        self.assertEqual(run.tally([]), (0, 0, 0.0))


class Aggregation(unittest.TestCase):
    def test_median_over_instances(self):
        rs = [report(1, x=3.0), report(2, x=1.0), report(3, x=2.0),
              report(4)]
        self.assertEqual(run.aggregate(rs, ["x", "y"]),
                         {"x": 2.0, "y": None})


    def test_percentiles_print_their_sample_count(self):
        rs = [report(1, admit_n=1000, admit_p50_ms=1.0),
              report(2, admit_n=998, admit_p50_ms=2.0)]
        self.assertEqual(run.sample_note("admit_tail_ms", rs, None),
                         "median of 2 instances, >= 998 samples each")
        self.assertEqual(run.sample_note("setup_s", rs, None),
                         "median of 2 instances")
        self.assertEqual(
            run.sample_note("qos.probe_us", rs, {"qos.probe_us": 1.0}),
            "1 replay")


class FingerprintCheck(unittest.TestCase):
    def test_traced_and_untraced_must_agree(self):
        ok, _, prints = run.check(
            [report(1, "aa"), report(1, "aa", mode="traced"),
             report(2, "bb")], "batch_long")
        self.assertTrue(ok)
        self.assertEqual(prints, {1: "aa", 2: "bb"})
        ok, why, _ = run.check(
            [report(1, "aa"), report(1, "ab", mode="traced")],
            "batch_long")
        self.assertFalse(ok)
        self.assertIn("seed 1", why)

    def test_pinned_seed_must_match(self):
        seed = run.PINNED["seed"]
        for name, pinned in run.PINNED["workloads"].items():
            ok, _, _ = run.check([report(seed, ",".join(pinned))], name)
            self.assertTrue(ok, name)
            ok, why, _ = run.check([report(seed, "0" * 16)], name)
            self.assertFalse(ok, name)
            self.assertIn("pinned", why)

    def test_an_incorrect_instance_fails_the_run(self):
        ok, why, _ = run.check(
            [report(1), report(2, correct=False, error="oracle")],
            "fed_storm")
        self.assertFalse(ok)
        self.assertIn("oracle", why)


class SourceDigest(unittest.TestCase):
    def test_digest_follows_the_source_tree(self):
        scratch = run.ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            root = Path(d)
            (root / "src" / "sim").mkdir(parents=True)
            source = root / "src" / "sim" / "a.cc"
            source.write_text("int a;\n")
            first = run.source_digest(root)
            self.assertEqual(first, run.source_digest(root))
            source.write_text("int b;\n")
            edited = run.source_digest(root)
            self.assertNotEqual(first, edited)
            source.rename(root / "src" / "sim" / "b.cc")
            self.assertNotEqual(edited, run.source_digest(root))


class BenchmarkSpec(unittest.TestCase):
    """BENCHMARK.json names metrics the instances actually print."""

    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        sources = "".join(p.read_text()
                          for p in (HERE.parent / "src").glob("*.cc"))
        self.printed = set(re.findall(r'"([a-z_0-9.]+)"', sources))

    def test_every_metric_is_printed(self):
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            if m["name"] == "trace_overhead_frac":
                continue  # computed by run.py from run_s
            self.assertIn(m["name"], self.printed)

    def test_workloads_have_an_instance_time(self):
        names = {w["name"] for w in self.spec["workloads"]}
        self.assertEqual(names, set(run.INSTANCE_SECONDS))
        self.assertEqual(names, set(run.PINNED["workloads"]))


if __name__ == "__main__":
    unittest.main()
