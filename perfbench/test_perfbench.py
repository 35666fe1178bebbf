"""Self-tests of the benchmark.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import unittest
from collections import Counter
from pathlib import Path
from unittest import mock

import run
import tracing
import workloads
from ballwidth import certificates, poset, sweep

# canonical CSV of sweep_range(1, 1, n_max=2), a sweep over the one tuple (1, 1, 1)
ONE_TUPLE_CSV_SHA256 = "4b9705221b9d1aa0a2d43cee64130553144c9be37dd6d2fbfc47bc42b134751c"

SMALL = {
    "sweep_desk": workloads.SweepDesk(1, 1, 2, ONE_TUPLE_CSV_SHA256),
    "element_ladder": workloads.ElementLadder([(1, 1, 1)]),
    "quotient_certify": workloads.QuotientCertify(pq_max=1),
}


def one_pass(workload, items):
    with tempfile.TemporaryDirectory() as scratch:
        return workload.run_pass(items, Path(scratch))


class ReferenceTest(unittest.TestCase):
    """The independent layer count reproduces the values pinned at definition."""

    def test_ladder_widths(self):
        self.assertEqual(workloads.reference_layer(9, 9, 5), (3357, True))
        self.assertEqual(workloads.reference_layer(12, 12, 4), (4501, False))

    def test_desk_statuses(self):
        items = workloads.WORKLOADS["sweep_desk"].generate(workloads.DEFAULT_SEED)
        self.assertEqual(len(items), 161)
        ties = Counter(workloads.reference_layer(*t)[1] for t in items)
        self.assertEqual(ties, {False: 149, True: 12})

    def test_quotient_statuses(self):
        items = workloads.WORKLOADS["quotient_certify"].generate(workloads.DEFAULT_SEED)
        ties = Counter(workloads.reference_layer(g.p, g.q, g.r)[1] for g in items)
        self.assertEqual(ties, {False: 2760, True: 110})


class SeedTest(unittest.TestCase):
    def test_other_seeds_redraw_quotient_tuples_per_radius(self):
        workload = workloads.WORKLOADS["quotient_certify"]
        default = workload.generate(workloads.DEFAULT_SEED)
        drawn = workload.generate(7)
        key = lambda g: (g.p, g.q, g.r)
        self.assertEqual([key(g) for g in drawn], [key(g) for g in workload.generate(7)])
        self.assertEqual(len(set(map(key, drawn))), len(default))
        self.assertEqual(Counter(g.r for g in drawn), Counter(g.r for g in default))
        self.assertLessEqual(max(max(g.p, g.q) for g in drawn), 30)
        self.assertGreater(max(max(g.p, g.q) for g in drawn), 20)

    def test_other_seeds_permute_the_ladder(self):
        workload = workloads.WORKLOADS["element_ladder"]
        self.assertEqual(workload.generate(workloads.DEFAULT_SEED), workload.tuples)
        self.assertEqual(sorted(workload.generate(3)), sorted(workload.tuples))


class CheckTest(unittest.TestCase):
    def test_each_workload_runs_on_a_one_item_list(self):
        for name, workload in SMALL.items():
            with self.subTest(name):
                items = workload.generate(workloads.DEFAULT_SEED)
                self.assertEqual(len(items), 1)
                outcome = one_pass(workload, items)
                attempted, failed = workload.check(items, outcome)
                self.assertEqual(failed, 0)
                self.assertEqual(attempted, 2 if name == "sweep_desk" else 1)

    def test_corrupted_sweep_record_or_digest_fails(self):
        workload = SMALL["sweep_desk"]
        items = workload.generate(workloads.DEFAULT_SEED)
        records, csv = one_pass(workload, items)
        bad = [dataclasses.replace(records[0], status=sweep.COUNTEREXAMPLE)]
        self.assertEqual(workload.check(items, (bad, csv)), (2, 1))
        self.assertEqual(workload.check(items, (records, csv + "\n")), (2, 1))
        self.assertEqual(workload.check(items, ([], csv)), (2, 1))

    def test_corrupted_ladder_record_fails(self):
        workload = SMALL["element_ladder"]
        items = workload.generate(workloads.DEFAULT_SEED)
        (record,) = one_pass(workload, items)
        bad = dataclasses.replace(record, width=str(int(record.width) + 1))
        self.assertEqual(workload.check(items, [bad]), (1, 1))

    def test_corrupted_verdict_fails(self):
        workload = SMALL["quotient_certify"]
        items = workload.generate(workloads.DEFAULT_SEED)
        ((verdict, size),) = one_pass(workload, items)
        bad = dataclasses.replace(verdict, status=certificates.CERTIFIED)
        self.assertEqual(workload.check(items, [(bad, size)]), (1, 1))
        self.assertEqual(workload.check(items, [(verdict, size + 1)]), (1, 1))

    def test_internal_consistency_error_fails_its_item(self):
        def broken(*args, **kwargs):
            raise workloads.ballwidth.InternalConsistencyError("engines disagree")

        for name, module, target in (
            ("sweep_desk", sweep, "verify_instance"),
            ("element_ladder", sweep, "verify_instance"),
            ("quotient_certify", certificates, "certified_width"),
        ):
            workload = SMALL[name]
            items = workload.generate(workloads.DEFAULT_SEED)
            with self.subTest(name), mock.patch.object(module, target, broken), \
                    mock.patch("traceback.print_exc"):
                outcome = one_pass(workload, items)
                attempted, failed = workload.check(items, outcome)
                self.assertEqual(failed, attempted)


class TracingTest(unittest.TestCase):
    def test_self_times_sum_to_the_traced_pass(self):
        workload = workloads.QuotientCertify(pq_max=8)
        items = workload.generate(workloads.DEFAULT_SEED)
        tracer = tracing.Tracer()
        timed = run.timed_pass(workload, items, tracer.installed())
        self.assertEqual(timed.failed, 0)
        roots_ms = sum((end - start) * 1000 for _, start, end, parent in tracer.spans if parent < 0)
        covered_ms = sum(tracer.self_ms())
        self.assertAlmostEqual(covered_ms, roots_ms, delta=1e-6 * roots_ms)
        pass_ms = timed.wall_s * 1000
        self.assertLessEqual(covered_ms, pass_ms)
        # what the spans miss is the benchmark's own loop around the calls
        self.assertGreater(covered_ms, 0.9 * pass_ms)

    def test_tracing_restores_every_binding_site(self):
        before = sweep.width, poset.PosetInstance.up_masks
        with tracing.Tracer().installed():
            self.assertIsNot(sweep.width, before[0])
            self.assertIsNot(poset.PosetInstance.up_masks, before[1])
        self.assertEqual((sweep.width, poset.PosetInstance.up_masks), before)

    def test_a_missing_wrapped_name_fails_loudly(self):
        original = poset.build_sphere
        del poset.build_sphere
        try:
            with self.assertRaises(LookupError):
                with tracing.Tracer().installed():
                    pass
        finally:
            poset.build_sphere = original
        self.assertIs(sweep.build_sphere, original)


class BenchmarkFileTest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics a run prints."""

    def setUp(self):
        self.spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        run.SCRATCH.mkdir(exist_ok=True)

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))

    def test_end_to_end_metrics(self):
        workload = SMALL["quotient_certify"]
        metrics, _ = run.measure_end_to_end(workload, workload.generate(0), 0)
        names = {"setup_s", *metrics}
        self.assertEqual(names, {m["name"] for m in self.spec["end_to_end"]})
        for m in self.spec["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END_UNITS[m["name"]])

    def test_per_layer_metrics(self):
        workload = SMALL["quotient_certify"]
        metrics, *_ = run.measure_layers(workload, workload.generate(0), 0)
        self.assertEqual(set(metrics), {m["name"] for m in self.spec["per_layer"]})
        for m in self.spec["per_layer"]:
            self.assertEqual(m["unit"], run.layer_unit(m["name"]))


if __name__ == "__main__":
    unittest.main()
