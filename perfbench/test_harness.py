"""Fast tests of the benchmark's own arithmetic and reference routes.

    python3 -m unittest perfbench/test_harness.py

Run from the repository root; they start no child process.
"""

import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "tests"))
sys.path.insert(0, str(HERE.parent / "src"))

import common  # noqa: E402
import oracles  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def to_bytes(n):
    return n.to_bytes((n.bit_length() + 7) // 8 or 1, "big")


class GoodputTest(unittest.TestCase):
    def test_failed_units_earn_nothing_but_their_time_counts(self):
        units = [([1.0, 3.0, 2.0], [True, True, True], 10),
                 ([4.0, 4.0, 4.0], [False, False, False], 99)]
        # median times 2 + 4 = 6 s for one pass; only the first unit earns
        self.assertEqual(common.goodput(units), 10 / 6)

    def test_partial_success_earns_its_share(self):
        units = [([2.0, 2.0, 2.0, 2.0], [True, False, True, True], 8)]
        self.assertEqual(common.goodput(units), 8 * 3 / 4 / 2.0)

    def test_nothing_earned(self):
        self.assertEqual(common.goodput([([1.0], [False], 5)]), 0.0)
        self.assertEqual(common.goodput([]), 0.0)


class FailFracTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(common.fail_frac(26, 18), 18 / 26)
        self.assertEqual(common.fail_frac(5, 0), 0.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            common.fail_frac(0, 0)


class PercentileTest(unittest.TestCase):
    def test_at_least_ten_samples_beyond_the_tail(self):
        for count in range(20, 2001, 7):
            pct = common.tail_percentile(count)
            beyond = count - count * pct / 100
            self.assertGreaterEqual(beyond, 10, count)
            # one point higher would leave fewer than ten beyond it
            self.assertLess(count - count * (pct + 1) / 100, 10, count)

    def test_known_counts(self):
        self.assertEqual(common.tail_percentile(20), 50)
        self.assertEqual(common.tail_percentile(100), 90)
        self.assertEqual(common.tail_percentile(1000), 99)
        self.assertIsNone(common.tail_percentile(19))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(common.percentile(values, 90), 90)
        self.assertEqual(common.percentile(values, 50), 50)
        self.assertEqual(common.percentile([7], 99), 7)

    def test_quartile_spread_matches_the_acceptance_rule(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.4]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(common.quartile_spread(values),
                         (q3 - q1) / statistics.median(values))


class NominalTest(unittest.TestCase):
    def test_work_slowed_with_its_reference_reads_the_same(self):
        kind = "child"
        base = common.NOMINAL_S[kind]
        self.assertAlmostEqual(common.nominal(2.0, base, base, kind), 2.0)
        # the host runs 60% slower: work and references all take 1.6x
        self.assertAlmostEqual(common.nominal(3.2, 1.6 * base, 1.6 * base, kind), 2.0)

    def test_references_either_side_are_averaged(self):
        base = common.NOMINAL_S["spawn"]
        self.assertAlmostEqual(common.nominal(1.0, base, 3 * base, "spawn"), 0.5)


class FailureTest(unittest.TestCase):
    def test_only_the_digit_limit_is_a_known_defect(self):
        try:
            str(10 ** 5000)
        except ValueError as exc:
            reason, wrong = worker.failure(exc)
        self.assertIn("int/str digit limit", reason)
        self.assertFalse(wrong)
        for exc in (ValueError("bad run"), TypeError("not an int"), ZeroDivisionError()):
            self.assertTrue(worker.failure(exc)[1], exc)

    def test_a_dead_worker_fails_every_planned_op(self):
        for timed_out, wrong in ((False, 18), (True, 0)):
            bench = run.Run(HERE.parent, "small-terms", 1, 1, False)
            bench.child = lambda argv, path, t=timed_out: (1, 0.1, t)
            with tempfile.TemporaryDirectory() as folder:
                result = bench.worker("bigint", run.Pass(False), Path(folder), None, 18)
            self.assertIsNone(result)
            self.assertEqual((bench.attempted, bench.failed, bench.wrong), (18, 18, wrong))


class ReferenceTest(unittest.TestCase):
    def test_runs_of_bytes(self):
        for n in range(1, 600):
            self.assertEqual(tuple(common.runs_of(to_bytes(n))),
                             oracles.binary_run_lengths(n))

    def test_continuant_residue(self):
        for n in range(1, 600):
            runs = common.runs_of(to_bytes(n))
            want = oracles.cf_numerator(oracles.binary_run_lengths(n))
            self.assertEqual(common.continuant_residue(runs), want % common.MODULUS)
            self.assertEqual(common.small_continuant(n), want)

    def test_stern_residue(self):
        for n in range(0, 600):
            self.assertEqual(common.stern_residue(to_bytes(n)),
                             oracles.stern_naive(n) % common.MODULUS)

    def test_residues_of_a_value_past_the_modulus(self):
        # 400 ones: d = F(401), far larger than the modulus
        data = to_bytes(int("10" * 200, 2))
        self.assertEqual(common.continuant_residue(common.runs_of(data)),
                         oracles.fib(401) % common.MODULUS)

    def test_decimal_residue(self):
        for value in (0, 7, 10**17, 10**18 - 1, 3**500, 12345678901234567890123):
            self.assertEqual(common.decimal_residue(str(value)), value % common.MODULUS)


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_names_the_harness_metrics(self):
        with open(HERE.parent / "BENCHMARK.json") as handle:
            spec = json.load(handle)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(plan.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def test_same_seed_same_inputs(self):
        for workload in plan.WORKLOADS:
            self.assertEqual(plan.params(workload, 7), plan.params(workload, 7))
        self.assertNotEqual(plan.params("bigint", 1)["inputs"],
                            plan.params("bigint", 2)["inputs"])

    def test_every_cli_step_has_a_golden(self):
        with open(HERE / "goldens.json") as handle:
            goldens = json.load(handle)
        for workload in plan.WORKLOADS:
            steps = plan.cli_steps(workload, plan.params(workload, 7))
            for _kind, key, _argv in steps:
                self.assertIn(key, goldens)
        self.assertEqual(len(goldens), sum(len(plan.golden_steps(w))
                                           for w in plan.WORKLOADS))

if __name__ == "__main__":
    unittest.main()
