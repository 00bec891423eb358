"""Tests of the benchmark itself: seeded inputs and oracles that reject wrong answers.

    python3 -m pytest bench/test_bench.py      (or: cd bench && python3 -m unittest test_bench)
"""

from __future__ import annotations

import itertools
import json
import unittest

import hostspeed
import oracles
from run import Segment, tail
from workloads import WORKLOADS

# OEIS A002997 below 10^6
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657, 52633,
              62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461, 252601, 278545,
              294409, 314821, 334153, 340561, 399001, 410041, 449065, 488881, 512461, 530881,
              552721, 656601, 658801, 670033, 748657, 825265, 838201, 852841, 997633]


def first_inputs(name: str, seed: int, k: int = 40) -> list:
    return list(itertools.islice(WORKLOADS[name]().inputs(seed), k))


def brute_census(n: int) -> tuple[int, int, int, int, int]:
    fermat = euler = strong = 0
    for a in range(1, n):
        fermat += pow(a, n - 1, n) == 1
        euler += pow(a, (n - 1) // 2, n) in (1, n - 1)
        strong += oracles.is_strong_liar(n, a)
    return n, n - 1, fermat, euler, strong


class SeededInputs(unittest.TestCase):
    def test_inputs_are_a_pure_function_of_the_seed(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(first_inputs(name, 3), first_inputs(name, 3))
                self.assertNotEqual(first_inputs(name, 3), first_inputs(name, 4))

    def test_per_op_seeds_are_distinct_64_bit_values(self):
        seeds = first_inputs("gen-100", 0, 1000)
        self.assertEqual(len(set(seeds)), len(seeds))
        self.assertTrue(all(0 <= s < 2**64 for s in seeds))

    def test_tables_script_repeats_pass_after_pass(self):
        tables = WORKLOADS["tables"]()
        ops = first_inputs("tables", 5, 2 * tables.pass_len)
        self.assertEqual(ops[: tables.pass_len], ops[tables.pass_len :])


class OraclesRejectWrongAnswers(unittest.TestCase):
    def test_composite_passed_off_as_prime(self):
        # strong pseudoprime to bases 2, 3, 5 and 7
        self.assertTrue(oracles.check_generated_prime(3215031751, 10, 0.9999, 0.999))
        self.assertFalse(oracles.check_generated_prime(2**31 - 1, 10, 0.9999, 0.999))

    def test_composite_verdict_with_a_liar_for_witness(self):
        def problems(witness):
            report = json.dumps({"records": [{"number": 2047, "verdict": "COMPOSITE"}],
                                 "summary": {"prime_count": 0}})
            return oracles.check_batch([(2047, "COMPOSITE", witness, None)], report, 4, 1)

        self.assertTrue(problems(2))  # 2047 = 23 * 89 is a strong pseudoprime to base 2
        self.assertFalse(problems(3))

    def test_carmichael_list_with_an_entry_missing(self):
        self.assertFalse(oracles.check_carmichael("\n".join(map(str, CARMICHAEL)), 10**6))
        short = CARMICHAEL[:20] + CARMICHAEL[21:]
        self.assertTrue(oracles.check_carmichael("\n".join(map(str, short)), 10**6))

    def test_census_row_with_an_inflated_liar_count(self):
        rows = [brute_census(n) for n in range(91, 200, 2) if oracles.is_odd_composite(n)]
        self.assertFalse(oracles.check_census_rows(rows, 91, 199))
        n, total, fermat, euler, strong = rows[3]
        rows[3] = (n, total, fermat + 2, euler, strong)
        self.assertTrue(oracles.check_census_rows(rows, 91, 199))

    def test_sqrt_of_unity_with_a_root_missing(self):
        n = 3 * 5 * 7
        roots = [x for x in range(1, n) if x * x % n == 1]
        self.assertFalse(oracles.check_sqrt_of_unity(n, " ".join(map(str, roots))))
        self.assertTrue(oracles.check_sqrt_of_unity(n, " ".join(map(str, roots[1:]))))

    def test_confidence_with_a_wrong_bound(self):
        good = "\n".join(f"{k}: {v:.9f}" if isinstance(v, float) else f"{k}: {v}"
                         for k, v in oracles.confidence_fields(0.01, 10, None).items())
        self.assertFalse(oracles.check_confidence(good, "table", 0.01, 10, None))
        self.assertTrue(oracles.check_confidence(good, "table", 0.01, 11, None))


class TailPercentile(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        self.assertEqual(tail([float(x) for x in range(1, 101)]), (90.0, 90.0, 100))

    def test_few_samples_report_the_maximum(self):
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))


class HostScaling(unittest.TestCase):
    def test_each_op_is_scaled_by_the_probes_on_either_side(self):
        seg = Segment()
        seg.latencies = [0.3, 0.1, 0.2]
        seg.probes = [0.002, 0.004, 0.003]
        seg.probe_before = [0, 0, 1]
        ref = hostspeed.PROBE_REF_S
        expected = [0.3 * ref / 0.003, 0.1 * ref / 0.003, 0.2 * ref / 0.0035]
        for got, want in zip(seg.scaled, expected):
            self.assertAlmostEqual(got, want)


if __name__ == "__main__":
    unittest.main()
