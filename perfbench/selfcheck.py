"""Tests of the benchmark's own logic.  Run: ``python3 perfbench/selfcheck.py``.

Covers self-time arithmetic over nested spans, the layer split adding up
to the traced wall time, host-speed rescaling of timed steps, medians
over iterations, a perturbed result row
counting as a failure, and the metric names (pattern, and agreement
between ``BENCHMARK.json`` and what ``run.py`` emits).
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] > a [1, 6] > b [2, 3], c [4, 5.5]; root > d [7, 9]
        tree = [
            Span("root", "bench", 0.0, 10.0, -1),
            Span("a", "x", 1.0, 6.0, 0),
            Span("b", "y", 2.0, 3.0, 1),
            Span("c", "y", 4.0, 5.5, 1),
            Span("d", "x", 7.0, 9.0, 0),
        ]
        self.assertEqual(spans.self_times(tree), [3.0, 2.5, 1.0, 1.5, 2.0])
        result = spans.attribute(tree)
        self.assertEqual(result.traced_s, 10.0)
        self.assertEqual(result.unattributed_s, 3.0)
        self.assertEqual(result.layer_self, {"x": 4.5, "y": 2.5})
        self.assertEqual(result.layer_calls, {"x": 2, "y": 2})

    def test_overlapping_and_overhanging_children_count_once(self):
        tree = [
            Span("p", "bench", 0.0, 4.0, -1),
            Span("c1", "x", 1.0, 3.0, 0),
            Span("c2", "x", 2.0, 5.0, 0),  # overlaps c1, overhangs p
        ]
        self.assertEqual(spans.self_times(tree)[0], 1.0)

    def test_same_name_nesting_counted_once_inclusive(self):
        tree = [
            Span("root", "bench", 0.0, 4.0, -1),
            Span("put", "cache", 0.0, 3.0, 0),  # put_many
            Span("put", "cache", 1.0, 2.0, 1),  # put inside it
        ]
        result = spans.attribute(tree)
        self.assertEqual(result.name_inclusive["put"], 3.0)
        self.assertEqual(result.name_calls["put"], 2)
        self.assertEqual(result.name_self["put"], 3.0)


class ReconcileTest(unittest.TestCase):
    def test_layer_sum_reconciles_with_wall(self):
        clock = FakeClock()
        recorder = spans.Recorder(clock)

        def leaf():
            clock.advance(0.25)

        def middle():
            clock.advance(0.5)
            traced_leaf()
            traced_leaf()
            clock.advance(0.125)

        traced_leaf = recorder.wrap(leaf, "layer.b.leaf", "layer.b")
        traced_middle = recorder.wrap(middle, "layer.a.middle", "layer.a")
        traced_leaf()  # outside any root: not recorded
        with recorder.root("bench.run") as root:
            clock.advance(1.0)
            traced_middle()
            clock.advance(0.0625)
        run_spans = len(recorder)
        with recorder.root("bench.replay"):
            traced_leaf()
        every = recorder.spans()
        result = spans.attribute(every[:run_spans])
        wall = recorder.duration(root.index)
        total = sum(result.layer_self.values()) + result.unattributed_s
        self.assertEqual(wall, 1.0 + 1.125 + 0.0625)
        self.assertEqual(result.traced_s, wall)
        self.assertAlmostEqual(total, wall, places=12)
        self.assertEqual(result.layer_self["layer.a"], 0.625)
        self.assertEqual(result.layer_self["layer.b"], 0.5)
        self.assertEqual(result.unattributed_s, 1.0625)
        # The replay's calls still count toward per-name totals.
        whole = spans.attribute(every)
        self.assertEqual(whole.name_inclusive["layer.b.leaf"], 0.75)

    def test_grafted_child_process_spans(self):
        recorder = spans.Recorder(FakeClock())
        with recorder.root("bench.run") as root:
            recorder.clock.advance(5.0)
        child = [Span("child", "bench", 1.0, 4.0, -1),
                 Span("import.total", "import", 1.0, 3.0, 0)]
        recorder.graft(child, parent=root.index)
        result = spans.attribute(recorder.spans())
        self.assertEqual(result.traced_s, 5.0)
        self.assertEqual(result.layer_self, {"import": 2.0})
        self.assertEqual(result.unattributed_s, 3.0)


class RescaleTest(unittest.TestCase):
    def setUp(self):
        self.original = calibrate.probe

    def tearDown(self):
        calibrate.probe = self.original

    def test_neighbouring_steps_share_a_probe(self):
        reference = calibrate.REFERENCE_S
        probes = iter([reference, 3 * reference, 2 * reference])
        calibrate.probe = lambda: next(probes)
        outputs, raw, scaled = calibrate.timed_steps(
            [("a", lambda: "x"), ("b", lambda: "y")], probing=True)
        self.assertEqual(outputs, {"a": "x", "b": "y"})
        # Probes twice and 2.5 times the reference: the host ran slower.
        self.assertAlmostEqual(scaled["a"], raw["a"] / 2.0, places=15)
        self.assertAlmostEqual(scaled["b"], raw["b"] / 2.5, places=15)

    def test_no_probing_keeps_wall_clock(self):
        calibrate.probe = lambda: self.fail("probed")
        _, raw, scaled = calibrate.timed_steps([("a", lambda: 1)],
                                               probing=False)
        self.assertEqual(raw, scaled)

    def test_a_host_at_reference_speed_is_not_rescaled(self):
        reference = calibrate.REFERENCE_S
        self.assertEqual(calibrate.rescale(1.5, reference, reference), 1.5)
        self.assertEqual(calibrate.rescale(1.5, reference / 2,
                                           reference / 2), 3.0)


class SummaryTest(unittest.TestCase):
    def test_setup_and_part_walls_are_medians_over_iterations(self):
        samples = [
            {"wall": wall, "replay": [], "demands": 10, "rss": 1.0,
             "setup": setup, "parts": {"a": wall / 4, "b": 3 * wall / 4}}
            for wall, setup in ((1.0, 0.5), (2.0, 0.75), (4.0, 0.625))
        ]
        e2e = run.end_to_end(samples)
        self.assertEqual(e2e["setup_s"]["value"], 0.625)
        self.assertEqual(e2e["setup_s"]["n"], 3)
        # No cache on the path: a replay is a re-run.
        self.assertEqual(e2e["replay_s"]["value"], 2.0)
        parts = run.part_walls(samples)
        self.assertEqual(parts["a"]["value"], 0.5)
        self.assertEqual(parts["b"]["value"], 1.5)


class PerturbedResultTest(unittest.TestCase):
    def setUp(self):
        from repro.experiments import event_sim, paper_params

        self.results = [
            event_sim.run_release_pair_simulation(
                paper_params.correlated_model(1), timeout=1.5, requests=50,
                seed=3, backend="columnar",
            )
        ]

    def test_consistent_rows_pass(self):
        self.assertEqual(workloads.consistency_failures(self.results), [])

    def test_perturbed_row_raises_error_ratio(self):
        tally = run.Tally()
        tally.record(workloads.consistency_failures(self.results))
        before = workloads.digest(workloads.system_rows(self.results))
        self.results[0].system.counts.correct += 1
        after = workloads.digest(workloads.system_rows(self.results))
        tally.record(workloads.consistency_failures(self.results))
        self.assertNotEqual(before, after)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_perturbed_digest_fails_reference_on_default_seed(self):
        workload = workloads.Modes(workloads.DEFAULT_SEED)
        reference = workload.references["modes.results"]
        self.assertEqual(workload.reference_failures("results", reference), [])
        self.assertTrue(workload.reference_failures("results", "0" * 64))
        held_out = workloads.Modes(workloads.HELD_OUT_SEED)
        self.assertEqual(held_out.reference_failures("results", "0" * 64), [])


class MetricNameTest(unittest.TestCase):
    def setUp(self):
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
            self.config = json.load(handle)

    def test_names_match_the_pattern(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in self.config[key]]
        names += [w["name"] for w in self.config["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, METRIC_NAME)
        self.assertIsNone(METRIC_NAME.match("bad name"))
        self.assertIsNone(METRIC_NAME.match("layer/self"))

    def test_config_matches_what_run_emits(self):
        sample = {
            "wall": 2.0, "replay": [], "rss": 100.0, "demands": 10,
            "setup": 1.0, "parts": {},
            "cold": workloads.Outcome("d", 10), "replayed": None,
            "cache_bytes": 0, "store_bytes": 0,
        }
        e2e = run.end_to_end([sample, sample])
        self.assertEqual(set(run.declared_units("end_to_end")), set(e2e))
        root = spans.attribute([Span("r", "bench", 0.0, 2.0, -1)])
        layer = run.layer_metrics(sample, root, root,
                                  run.import_breakdown(""))
        layer["untraced_wall_s"] = layer["tracing_overhead_s"] = 0.0
        self.assertEqual(set(run.declared_units("per_layer")), set(layer))
        self.assertLessEqual({w["name"] for w in self.config["workloads"]},
                             set(workloads.WORKLOADS))


class ImportTimeTest(unittest.TestCase):
    def test_outermost_imports_sum(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | site",
            "import time:       200 |     100000 |       scipy.stats._a",
            "import time:       100 |      50000 |         scipy.stats._c",
            "import time:       200 |     200000 |       scipy.stats._b",
            "import time:       200 |     250000 |       numpy",
            "import time:       300 |     800000 |     repro.bayes",
            "import time:       400 |     900000 |   repro.experiments",
            "import time:       400 |    1000000 | repro.experiments.cli",
            "import time:        50 |         50 | repro.common",
        ])
        tree = spans.importtime_tree(stderr)
        self.assertEqual([n.name for n in tree],
                         ["site", "repro.experiments.cli", "repro.common"])
        self.assertAlmostEqual(spans.import_seconds(tree, "repro"), 1.00005)
        self.assertAlmostEqual(spans.import_seconds(tree, "repro.bayes"), 0.8)
        # scipy.stats has no line of its own; _c nests under _b.
        self.assertAlmostEqual(spans.import_seconds(tree, "scipy.stats"), 0.3)
        self.assertEqual(spans.import_seconds(tree, "absent"), 0.0)


if __name__ == "__main__":
    unittest.main()
