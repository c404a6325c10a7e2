"""Acceptance suite: every suite of `vasskit verify all`, each run once at the
scale it states in its check names, plus an independent threshold oracle.

Each test prints one `ACCEPTANCE <criterion>: PASS/FAIL (elapsed)` line (run
with `pytest -s` to see them as they complete).  All comparisons are exact;
there are no numeric tolerances anywhere.  The stated runtime budgets are
printed for reference but not asserted, so a slow machine cannot turn a
correct build red.
"""

import math
import time
from functools import cache, reduce

from vasskit import verify
from vasskit.arith import divisibility_threshold

RESULTS = []


def report(name, passed, elapsed, budget):
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({elapsed:.1f}s, budget {budget})"
    print(line)
    RESULTS.append(line)
    assert passed, name


def run_suite(suite_result, budget):
    """One ACCEPTANCE line per suite, named by the suite; its check names
    state the scale it ran at."""
    for check in suite_result.checks:
        print(f"  [{'PASS' if check.passed else 'FAIL'}] {check.name}")
    failures = [(c.name, c.detail) for c in suite_result.checks if not c.passed]
    if failures:
        print(f"  failures: {failures}")
    report(suite_result.suite, not failures, suite_result.elapsed_s, budget)


@cache
def exp_result():
    """`suite_exp` run once; its two checks are reported by two tests."""
    return verify.suite_exp()


def exp_part(prefix):
    """The one `suite_exp` check whose name starts with `prefix`."""
    result = exp_result()
    checks = [c for c in result.checks if c.name.startswith(prefix)]
    assert len(checks) == 1, [c.name for c in result.checks]
    return verify.SuiteResult(f"{result.suite}: {prefix}", checks, result.elapsed_s)


class TestAcceptance:
    """Each test runs one suite of `vasskit verify all`, as the CLI does;
    `test_05` and `test_06` each report one check of the same `suite_exp` run."""

    def test_01_fraction_identity(self):
        run_suite(verify.suite_fractions(), "<10s")

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
        run_suite(verify.suite_weak_mult(), "<60s")

    def test_04_weak_computation(self):
        run_suite(verify.suite_weak(), "<60s")

    def test_05_exponential_characterization(self):
        run_suite(exp_part("halting iff threshold divides the pump"), "<5min")

    def test_06_exponential_trend(self):
        run_suite(exp_part("shortest = canonical length and strictly increasing"), "<5min")

    def test_06_threshold_divisibility(self):
        run_suite(verify.suite_arith(), "<5s")

    def test_07_weak_exponentiation_grid(self):
        run_suite(verify.suite_hp(), "<2min")

    def test_08_np_reduction_end_to_end(self):
        run_suite(verify.suite_np(), "<10min")

    def test_09_double_exp_k1(self):
        run_suite(verify.suite_double_exp(), "<10min")

    def test_10_size_claims(self):
        run_suite(verify.suite_sizes(), "<5s")

    def test_11_compiler_semantics(self):
        run_suite(verify.suite_semantics(), "<2min")

    def test_12_summary(self, capsys):
        with capsys.disabled():
            print()
            for line in RESULTS:
                print(line)
