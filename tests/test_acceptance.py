"""Acceptance suite: every exit criterion at its stated scale.

Each test prints one `ACCEPTANCE <criterion>: PASS/FAIL (elapsed)` line (run
with `pytest -s` to see them as they complete).  All comparisons are exact;
there are no numeric tolerances anywhere.  The stated runtime budgets are
printed for reference but not asserted, so a slow machine cannot turn a
correct build red.
"""

import math
import time
from functools import reduce

import pytest

from vasskit import verify
from vasskit.arith import divisibility_threshold

RESULTS = []


def report(name, passed, elapsed, budget):
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({elapsed:.1f}s, budget {budget})"
    print(line)
    RESULTS.append(line)
    assert passed, name


def run_suite(name, suite_result, budget):
    failures = [(c.name, c.detail) for c in suite_result.checks if not c.passed]
    if failures:
        print(f"  failures: {failures}")
    report(name, not failures, suite_result.elapsed_s, budget)


class TestAcceptance:
    def test_01_fraction_identity_k_1_to_16(self):
        run_suite("fraction identity (k = 1..16)", verify.suite_fractions(max_k=16), "<10s")

    def test_02_threshold_oracle(self):
        t0 = time.time()
        ok = True
        detail = ""
        for n in range(1, 101):
            # independent oracle: lcm by folding a*b // gcd(a,b)
            folded = reduce(lambda a, b: a * b // math.gcd(a, b), range(2, n + 2), 1)
            if divisibility_threshold(n) != folded // (n + 1) or folded % (n + 1) != 0:
                ok, detail = False, f"n={n}"
                break
        if ok:
            for n in range(1, 21):
                if divisibility_threshold(n) > math.factorial(n):
                    ok, detail = False, f"n={n} factorial bound"
                    break
        if detail:
            print(f"  failure: {detail}")
        report("threshold oracle (n <= 100, n! bound n <= 20)", ok, time.time() - t0, "<5s")

    def test_03_weak_multiplication_grid(self):
        run_suite(
            "weak multiplication grid (4 ratios, sums <= 30)",
            verify.suite_weak_mult(pairs=((2, 1), (3, 2), (5, 3), (7, 4)), max_sum=30),
            "<60s",
        )

    def test_04_weak_computation(self):
        run_suite("weak computation of b (b = 1..12)", verify.suite_weak(max_b=12), "<60s")

    def test_05_exponential_characterization(self):
        result = verify.suite_exp(max_n=4, trend_ns=())
        run_suite(
            "exponential family: halting iff divisible, unique run (n <= 4)", result, "<5min"
        )

    def test_06_exponential_trend(self):
        result = verify.suite_exp(max_n=0, trend_ns=(1, 2, 3))
        run_suite(
            "exponential family: shortest = canonical, strictly increasing (n = 1..3)",
            result,
            "<5min",
        )

    def test_07_weak_exponentiation_grid(self):
        run_suite(
            "weak exponentiation grid (ratio 3/2, sums <= 16, z0 <= 3)",
            verify.suite_hp(max_sum=16, max_z=3),
            "<2min",
        )

    def test_08_np_reduction_end_to_end(self):
        run_suite(
            "subset-sum reduction end to end (k <= 2, values <= 3)",
            verify.suite_np(),
            "<10min",
        )

    def test_09_double_exp_k1(self):
        run_suite(
            "doubly exponential family at k = 1 (pump sweep 1..32)",
            verify.suite_double_exp(flow_max_k=3, probe_max_k=2, pump_sweep=32),
            "<10min",
        )

    def test_10_size_claims(self):
        run_suite(
            "size growth: unary n^2 (n <= 8), binary k^3 (k <= 8)",
            verify.suite_sizes(max_n=8, max_k=8),
            "<5s",
        )

    def test_11_compiler_semantics(self):
        run_suite(
            "compiler semantics vs interpreter oracle (B = 20)",
            verify.suite_semantics(bound=20),
            "<2min",
        )

    def test_12_summary(self, capsys):
        with capsys.disabled():
            print()
            for line in RESULTS:
                print(line)
