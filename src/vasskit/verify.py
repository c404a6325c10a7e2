"""Machine checks for every construction-level claim, at desk scale.

Each suite returns a SuiteResult listing named checks with pass/fail and a
counterexample string on failure.  The CLI `verify` command drives these;
the acceptance tests call the same functions with the acceptance-scale
parameters.  All arithmetic is exact; no tolerances anywhere.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import families
from .arith import (
    bits_msb_first,
    bits_value,
    description_size,
    divisibility_threshold,
    lcm_range,
)
from .compiler import CompiledProgram, compile_counter_program
from .expand import expand
from .interp import reachable_line_configs
from .lang import CounterProgram, Sub
from .search import (
    SearchBudget,
    Verdict,
    count_halting_runs,
    final_vectors,
    halting_reachable,
    reachable_configs,
    replay_canonical,
    shortest_halting,
)
from .vass import is_flat, validate_run, vass_size


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _suite(name: str, checks: list[CheckResult], t0: float) -> SuiteResult:
    return SuiteResult(name, checks, time.perf_counter() - t0)


def _check(name: str, counterexample: str | None) -> CheckResult:
    return CheckResult(name, counterexample is None, counterexample or "")


# ---------------------------------------------------------------------------
# arith


def suite_arith(max_pair: int = 200, max_n: int = 100, trials: int = 300) -> SuiteResult:
    t0 = time.perf_counter()
    checks = []

    bad = None
    for a in range(1, max_pair + 1):
        for b in range(1, max_pair + 1):
            if math.lcm(a, b) * math.gcd(a, b) != a * b:
                bad = f"a={a}, b={b}"
                break
        if bad:
            break
    checks.append(_check(f"lcm*gcd == a*b for a,b <= {max_pair}", bad))

    bad = None
    for n in range(1, max_n + 1):
        value = divisibility_threshold(n) * (n + 1)
        for i in range(2, n + 2):
            if value % i != 0:
                bad = f"n={n}, divisor {i}"
                break
        if bad:
            break
    checks.append(_check(f"threshold(n)*(n+1) divisible by 2..n+1 for n <= {max_n}", bad))

    bad = None
    for n in range(1, 21):
        if divisibility_threshold(n) > math.factorial(n):
            bad = f"n={n}"
            break
    checks.append(_check("threshold(n) <= n! for n <= 20", bad))

    rng = random.Random(20240811)
    bad = None
    for _ in range(trials):
        a, b = rng.randint(1, 10**12), rng.randint(1, 10**12)
        c, d = rng.randint(1, 10**12), rng.randint(1, 10**12)
        prod = Fraction(a, b) * Fraction(c, d)
        if math.gcd(prod.numerator, prod.denominator) != 1 or prod != Fraction(a * c, b * d):
            bad = f"{a}/{b} * {c}/{d}"
            break
        power = Fraction(a, b) ** 3
        if power != Fraction(a**3, b**3):
            bad = f"({a}/{b})^3"
            break
    checks.append(_check("fraction products/powers stay reduced and exact", bad))

    bad = None
    for _ in range(trials):
        x = rng.randint(1, 10**30)
        if bits_value(bits_msb_first(x)) != x:
            bad = f"x={x}"
            break
        width = x.bit_length() + rng.randint(0, 5)
        if bits_value(bits_msb_first(x, width)) != x:
            bad = f"x={x}, width={width}"
            break
    checks.append(_check("bit strings evaluate back to their value", bad))

    checks.append(_check(
        "range lcm examples",
        None if (lcm_range(2, 2), lcm_range(2, 6), lcm_range(2, 7)) == (2, 60, 420) else "examples",
    ))
    return _suite("arith", checks, t0)


# ---------------------------------------------------------------------------
# weak multiplication (two-loop fragment)


def _weak_mult_runs(c: int, d: int, x0: int, y0: int):
    """Analytic enumeration of all runs of the two-loop fragment: `a` flash
    iterations then `b` rebuild iterations."""
    for a in range(x0 + 1):
        x_mid, y_mid = x0 - a, y0 + a
        for b in range(y_mid // d + 1):
            yield a, b, x_mid + c * b, y_mid - d * b, x_mid


def suite_weak_mult(
    pairs: tuple[tuple[int, int], ...] = ((2, 1), (3, 2), (5, 3), (7, 4)),
    max_sum: int = 30,
) -> SuiteResult:
    t0 = time.perf_counter()
    checks = []
    for c, d in pairs:
        bad = None
        for total in range(0, max_sum + 1):
            for x0 in range(total + 1):
                y0 = total - x0
                finals = set()
                for _a, _b, x1, y1, x_mid in _weak_mult_runs(c, d, x0, y0):
                    finals.add((x1, y1))
                    if d * (x1 + y1) > c * total:
                        bad = f"(x0,y0)=({x0},{y0}): run ends ({x1},{y1}) above bound"
                        break
                    exact = d * x1 == c * total
                    if exact != (x_mid == 0 and y1 == 0):
                        bad = (
                            f"(x0,y0)=({x0},{y0}): equality vs probe mismatch at "
                            f"final ({x1},{y1}), flash exit x'={x_mid}"
                        )
                        break
                if bad:
                    break
                # Cross-check the compiled fragment: BFS finals == analytic finals.
                prog = families.with_initial_values(
                    families.gen_weak_mult(c, d), {"x": x0, "y": y0}
                )
                compiled = compile_counter_program(prog)
                bound = (total * c) // d + c + d + 1
                got = final_vectors(
                    compiled.vass, SearchBudget(bound, 2_000_000), at_state=compiled.halt_state
                )
                if got != frozenset(finals):
                    bad = f"(x0,y0)=({x0},{y0}): BFS finals differ from analytic enumeration"
                    break
                # Canonical replay reaches the exact product when d | total.
                if total and total % d == 0:
                    out = replay_canonical(
                        compiled, families.maximal_policy(compiled.program), materialize=False
                    )
                    fx = dict(zip(compiled.program.counters, out.final.vector))
                    want = total * c // d
                    if fx["x"] != want or fx["y"] != 0:
                        bad = f"(x0,y0)=({x0},{y0}): canonical final {fx}, expected x={want}"
                        break
            if bad:
                break
        checks.append(_check(f"weak multiplication by {c}/{d}, sums <= {max_sum}", bad))
    return _suite("weakmult", checks, t0)


# ---------------------------------------------------------------------------
# weak computation of b


def suite_weak(max_b: int = 12) -> SuiteResult:
    t0 = time.perf_counter()
    checks = []
    bad = None
    for b in range(1, max_b + 1):
        compiled = compile_counter_program(families.gen_weak(b))
        values = sorted(
            vec[0]
            for vec in final_vectors(
                compiled.vass, SearchBudget(2 * b + 2, 2_000_000), at_state=compiled.halt_state
            )
        )
        if max(values) != b or any(v > b for v in values):
            bad = f"b={b}: final x values {values}"
            break
    checks.append(_check(f"weak(b) attains exactly b and never more, b <= {max_b}", bad))
    return _suite("weak", checks, t0)


# ---------------------------------------------------------------------------
# exponential family


def suite_exp(max_n: int = 4, trend_ns: tuple[int, ...] = (1, 2, 3)) -> SuiteResult:
    t0 = time.perf_counter()
    checks = []

    bad = None
    for n in range(1, max_n + 1):
        threshold = divisibility_threshold(n)
        for x0 in range(1, 4 * threshold + 1):
            compiled = compile_counter_program(families.gen_exp_fixed(n, x0))
            budget = SearchBudget((n + 2) * x0, 20_000_000)
            count = count_halting_runs(compiled.vass, budget)
            if count > 1:
                bad = f"n={n}, x0={x0}: {count} halting runs"
                break
            if (count == 1) != (x0 % threshold == 0):
                bad = f"n={n}, x0={x0}: halting={count == 1}, divisible={x0 % threshold == 0}"
                break
        if bad:
            break
    checks.append(_check(
        f"halting iff threshold divides the pump, at most one run (n <= {max_n})", bad
    ))

    bad = None
    lengths = []
    for n in trend_ns:
        compiled = compile_counter_program(families.gen_exp(n))
        pump = divisibility_threshold(n)
        out = replay_canonical(
            compiled, families.exp_canonical_policy(compiled.program, pump)
        )
        if not out.halting:
            bad = f"n={n}: canonical run does not halt"
            break
        report = validate_run(compiled.vass, out.run)
        if not (report.ok and report.halting):
            bad = f"n={n}: canonical run fails validation ({report.reason})"
            break
        bound = 2 * max(out.probe.peak)
        result = shortest_halting(compiled.vass, SearchBudget(bound, 8_000_000))
        if result.verdict != Verdict.FOUND or len(result.run) != out.probe.length:
            bad = f"n={n}: shortest {result.verdict.value} vs canonical {out.probe.length}"
            break
        lengths.append(out.probe.length)
    if bad is None and any(a >= b for a, b in zip(lengths, lengths[1:])):
        bad = f"lengths not strictly increasing: {lengths}"
    checks.append(_check(
        f"shortest = canonical length and strictly increasing for n in {trend_ns}", bad
    ))
    return _suite("exp", checks, t0)


# ---------------------------------------------------------------------------
# fraction sequences


def suite_fractions(max_k: int = 16) -> SuiteResult:
    t0 = time.perf_counter()
    checks = []
    bad = None
    for k in range(1, max_k + 1):
        seq = families.fraction_sequence(k)
        fs = seq.factors
        if not all(f > 1 for f in fs) or any(a >= b for a, b in zip(fs, fs[1:])):
            bad = f"k={k}: factors not strictly increasing above 1"
            break
        if fs[-1] != 1 + Fraction(1, 4**k):
            bad = f"k={k}: last factor {fs[-1]}"
            break
        size_bound = 4 ** (k * k + k)
        if any(description_size(f) > size_bound for f in fs):
            bad = f"k={k}: factor description size exceeds 4^(k^2+k)"
            break
        if description_size(seq.product) > size_bound**2:
            bad = f"k={k}: product description size exceeds 4^(2(k^2+k))"
            break
        lhs_num = math.prod(f.numerator ** (2**i) for i, f in enumerate(fs, start=1))
        lhs_den = math.prod(f.denominator ** (2**i) for i, f in enumerate(fs, start=1))
        if lhs_num * seq.product.denominator != seq.product.numerator * lhs_den:
            bad = f"k={k}: tower product identity fails"
            break
    checks.append(_check(f"sequence invariants for k <= {max_k}", bad))

    seq1 = families.fraction_sequence(1)
    seq2 = families.fraction_sequence(2)
    examples_ok = (
        seq1.ratios == (Fraction(5, 4),)
        and seq1.factors == (Fraction(5, 4),)
        and seq1.product == Fraction(25, 16)
        and seq1.factors[0] ** 2 == seq1.product
        and seq2.ratios == (Fraction(9, 8), Fraction(17, 16))
        and seq2.factors == (Fraction(18, 17), Fraction(17, 16))
        and seq2.product == Fraction(23409, 16384)
        and seq2.factors[0] ** 2 * seq2.factors[1] ** 4 == seq2.product
    )
    checks.append(_check("worked examples at k = 1, 2", None if examples_ok else "values differ"))
    return _suite("fractions", checks, t0)


# ---------------------------------------------------------------------------
# Hopcroft-Pansiot gadget


def suite_hp(max_sum: int = 16, max_z: int = 3, c: int = 3, d: int = 2) -> SuiteResult:
    t0 = time.perf_counter()
    checks = []
    bad = None
    fragment = families.gen_hp(c, d)
    for z0 in range(0, max_z + 1):
        for total in range(0, max_sum + 1):
            for x0 in range(total + 1):
                y0 = total - x0
                prog = families.with_initial_values(fragment, {"x": x0, "y": y0, "z": z0})
                compiled = compile_counter_program(prog)
                peak = total * c**z0 // d**z0 + c + d + 1
                finals = final_vectors(
                    compiled.vass,
                    SearchBudget(max(peak, z0), 4_000_000),
                    at_state=compiled.halt_state,
                )
                exact = total * c**z0  # == (x0+y0) (c/d)^z0 * d^z0
                exact_final = None
                for x1, y1, z1 in finals:
                    if (x1 + y1) * d ** (z0 - z1) > total * c ** (z0 - z1):
                        bad = f"(x0,y0,z0)=({x0},{y0},{z0}): final ({x1},{y1},{z1}) above bound"
                        break
                    if x1 * d**z0 == exact and z1 == 0:
                        exact_final = (x1, y1, z1)
                    if total and x1 * d**z0 == exact and (y1 or z1):
                        bad = (
                            f"(x0,y0,z0)=({x0},{y0},{z0}): exact final ({x1},{y1},{z1}) "
                            "with nonzero y or z"
                        )
                        break
                if bad:
                    break
                # Exact power reachable iff d^z0 divides x0+y0 (z0 >= 1; at
                # z0 = 0 the outer loop cannot complete an iteration, so only
                # the untouched initial values are final).
                if z0 >= 1:
                    want = total % (d**z0) == 0
                    if (exact_final is not None) != want:
                        bad = (
                            f"(x0,y0,z0)=({x0},{y0},{z0}): exact-power final "
                            f"{'missing' if want else 'unexpected'}"
                        )
                        break
                elif finals != frozenset({(x0, y0, z0)}):
                    bad = f"(x0,y0,z0)=({x0},{y0},{z0}): z0=0 finals {sorted(finals)}"
                    break
            if bad:
                break
        if bad:
            break
    checks.append(_check(
        f"weak exponentiation by {c}/{d}: bound, exactness iff divisibility "
        f"(sums <= {max_sum}, z0 <= {max_z})",
        bad,
    ))
    return _suite("hp", checks, t0)


# ---------------------------------------------------------------------------
# NP reduction


def check_np_instance(
    inst: families.NpInstance,
    program: CounterProgram | None = None,
    max_configs: int = 30_000_000,
) -> str | None:
    """Bounded halting of the compiled reduction vs the Subset-Sum oracle.
    Returns a counterexample string, or None.  `program` overrides the
    generated program (used by the mutation control)."""
    if program is None:
        program, meta = families.gen_np(inst)
    else:
        meta = families.gen_np(inst)[1]
    compiled = compile_counter_program(program)
    if compiled.vass.dimension != 7:
        return f"{inst}: dimension {compiled.vass.dimension} != 7"
    flat_report = is_flat(compiled.vass)
    if not flat_report.is_flat:
        return f"{inst}: compiled reduction is not flat (state {flat_report.witness_state})"
    bound = 8 * meta.threshold * (len(inst.values) + 1)
    result = halting_reachable(compiled.vass, SearchBudget(bound, max_configs))
    if result.verdict == Verdict.BUDGET_EXCEEDED:
        return f"{inst}: search budget exceeded"
    want = families.subset_sum_brute(inst.target, inst.values)
    got = result.verdict == Verdict.FOUND
    if got != want:
        return f"{inst}: halting={got} but subset-sum={want}"
    return None


def _component_spans(compiled: CompiledProgram, meta: families.NpMeta):
    labels = compiled.program.labels
    starts = [labels[c.label] for c in meta.components]
    ends = starts[1:] + [labels["end"]]
    return list(zip(meta.components, starts, ends))


def check_np_run_accounting(
    inst: families.NpInstance, run, compiled: CompiledProgram, meta: families.NpMeta
) -> str | None:
    """Verify on a concrete halting run that every visited component moved f
    down by exactly the threshold and touched u exactly `amount` times."""
    counters = compiled.program.counters
    f_ix = counters.index("f")
    u_ix = counters.index("u")
    spans = _component_spans(compiled, meta)
    f_drop = {info.label: 0 for info, _s, _e in spans}
    u_hits = {info.label: 0 for info, _s, _e in spans}
    visited = set()
    for t in run.steps:
        line = compiled.line_of_state[t.src]
        for info, start, end in spans:
            if start <= line < end:
                visited.add(info.label)
                f_drop[info.label] -= t.delta[f_ix]
                if t.delta[u_ix]:
                    u_hits[info.label] += 1
                break
    for info, _s, _e in spans:
        if info.label not in visited:
            continue
        if f_drop[info.label] != meta.threshold:
            return (
                f"{inst}: component {info.label} moved f by {f_drop[info.label]}, "
                f"expected {meta.threshold}"
            )
        expected_hits = info.amount if info.active else 0
        if u_hits[info.label] != expected_hits:
            return (
                f"{inst}: component {info.label} touched u {u_hits[info.label]} times, "
                f"expected {expected_hits}"
            )
    return None


def suite_np(max_value: int = 3, max_k: int = 2, deep_n: int = 4) -> SuiteResult:
    t0 = time.perf_counter()
    checks = []

    # Initializer: canonical run computes the threshold exactly (e, f) and
    # clears the scratch counters; checked via the final drain-loop probes.
    bad = None
    for n in range(1, deep_n + 1):
        for k in (1, 2):
            compiled = compile_counter_program(families.gen_np_init(n, k))
            out = replay_canonical(
                compiled, families.maximal_policy(compiled.program), materialize=False
            )
            if not out.halting:
                bad = f"n={n}, k={k}: canonical initializer run does not halt"
                break
            last_loop = compiled.program.loops[-1]
            exit_vec = out.probe.loops[last_loop.entry].exit_vectors[-1]
            values = dict(zip(compiled.program.counters, exit_vec))
            threshold = divisibility_threshold(n)
            want = {"x": 0, "x'": 0, "y": 0, "z": 0, "e": threshold, "f": threshold * (k + 1)}
            if values != want:
                bad = f"n={n}, k={k}: initializer leaves {values}, expected {want}"
                break
        if bad:
            break
    checks.append(_check(f"initializer computes the threshold exactly (n <= {deep_n})", bad))

    bad = None
    for n in (1, 2):
        compiled = compile_counter_program(families.gen_np_init(n, 1))
        threshold = divisibility_threshold(n)
        budget = SearchBudget(4 * threshold * (n + 1) + 4, 8_000_000)
        count = count_halting_runs(compiled.vass, budget)
        if count != 1:
            bad = f"n={n}: initializer has {count} halting runs"
            break
    checks.append(_check("initializer halting run is unique (n <= 2)", bad))

    bad = None
    grid = []
    for k in range(1, max_k + 1):
        for target in range(1, max_value + 1):
            grid.extend(
                families.NpInstance(target, values)
                for values in itertools.product(range(1, max_value + 1), repeat=k)
            )
    for inst in grid:
        bad = check_np_instance(inst)
        if bad:
            break
    checks.append(_check(
        f"halting iff subset-sum on the full grid (k <= {max_k}, values <= {max_value}); "
        "flat and 7-dimensional",
        bad,
    ))

    # Per-component accounting on runs found by search (small instances) and
    # on canonical runs (all positive instances in the small grid).
    bad = None
    for inst in grid:
        chosen = families.subset_sum_witness(inst.target, inst.values)
        if chosen is None:
            continue
        program, meta = families.gen_np(inst)
        compiled = compile_counter_program(program)
        out = replay_canonical(compiled, families.np_canonical_policy(compiled.program, chosen))
        if not out.halting:
            bad = f"{inst}: canonical subset run does not halt"
            break
        report = validate_run(compiled.vass, out.run)
        if not (report.ok and report.halting):
            bad = f"{inst}: canonical subset run fails validation"
            break
        bad = check_np_run_accounting(inst, out.run, compiled, meta)
        if bad:
            break
        if max(inst.target, *inst.values) <= 2:
            bound = 8 * meta.threshold * (len(inst.values) + 1)
            result = shortest_halting(compiled.vass, SearchBudget(bound, 8_000_000))
            if result.verdict != Verdict.FOUND:
                bad = f"{inst}: BFS finds no run but oracle is positive"
                break
            bad = check_np_run_accounting(inst, result.run, compiled, meta)
            if bad:
                break
    checks.append(_check("per-component f/u accounting on halting runs", bad))
    return _suite("np", checks, t0)


# ---------------------------------------------------------------------------
# doubly exponential family


def suite_double_exp(flow_max_k: int = 3, probe_max_k: int = 2, pump_sweep: int = 32) -> SuiteResult:
    t0 = time.perf_counter()
    checks = []

    # Tower-exponent maximality: under the suffix-sum constraints the
    # fraction tower is maximized exactly by the full iteration counts.
    bad = None
    for k in range(1, flow_max_k + 1):
        seq = families.fraction_sequence(k)
        full = tuple(2**i for i in range(1, k + 1))
        # Suffix-constrained exponent vectors: for every i,
        # n_i + ... + n_k <= 2^i + ... + 2^k.
        suffixes: list[tuple[int, ...]] = [()]
        for i in range(k, 0, -1):
            budget_i = sum(2**j for j in range(i, k + 1))
            suffixes = [
                (v,) + rest
                for rest in suffixes
                for v in range(budget_i - sum(rest) + 1)
            ]
        target = seq.product
        for vec in suffixes:
            prod = math.prod(
                (f**e for f, e in zip(seq.factors, vec)), start=Fraction(1)
            )
            if prod > target:
                bad = f"k={k}: exponents {vec} exceed the tower product"
                break
            if (prod == target) != (vec == full):
                bad = f"k={k}: equality mismatch at exponents {vec}"
                break
        if bad:
            break
    checks.append(_check(
        f"tower product maximal exactly at full exponents (k <= {flow_max_k})", bad
    ))

    # Canonical run exists and matches the per-stage closed form.
    bad = None
    for k in range(1, probe_max_k + 1):
        program, meta = families.gen_double_exp(k)
        compiled = compile_counter_program(program)
        policy = families.double_exp_canonical_policy(compiled.program, meta.canonical_pump)
        out = replay_canonical(compiled, policy, materialize=False)
        if not out.halting:
            bad = f"k={k}: canonical run does not halt"
            break
        outer_entries = [
            span.entry
            for span in compiled.program.loops
            if isinstance(compiled.program.line(span.back - 1), Sub)
            and compiled.program.line(span.back - 1).counter == "z"
        ]
        x_ix = compiled.program.counters.index("x")
        value = Fraction(meta.canonical_pump)
        stage_values = []
        for i in range(k, 0, -1):
            value *= meta.fractions.factors[i - 1] ** (2**i)
            stage_values.append(value)
        for entry, want in zip(outer_entries, stage_values):
            got = out.probe.loops[entry].exit_vectors[-1][x_ix]
            if want.denominator != 1 or got != want.numerator:
                bad = f"k={k}: stage exit x={got}, closed form {want}"
                break
        if bad:
            break
    checks.append(_check(
        f"canonical run halts and stage exits match the closed form (k <= {probe_max_k})", bad
    ))

    # k = 1 behavior: not flat, halting exists, pump divisibility, shortest
    # equals canonical.
    bad = None
    program, meta = families.gen_double_exp(1)
    compiled = compile_counter_program(program)
    if is_flat(compiled.vass).is_flat:
        bad = "k=1: compiled program is flat"
    if bad is None:
        numer = meta.fractions.product.numerator
        denom = meta.fractions.product.denominator
        bound = 2 * (meta.canonical_pump * numer // denom) + 4
        res = halting_reachable(compiled.vass, SearchBudget(bound, 8_000_000))
        if res.verdict != Verdict.FOUND:
            bad = f"k=1: no halting run found ({res.verdict.value})"
    if bad is None:
        for pump in range(1, pump_sweep + 1):
            fixed, _ = families.gen_double_exp_fixed(1, pump)
            cf = compile_counter_program(fixed)
            bound = 2 * (pump * numer // denom) + 4
            res = halting_reachable(cf.vass, SearchBudget(bound, 8_000_000))
            want = pump % meta.forced_divisor == 0
            if (res.verdict == Verdict.FOUND) != want:
                bad = f"k=1, pump={pump}: halting={res.verdict.value}, divisible={want}"
                break
    if bad is None:
        fixed, _ = families.gen_double_exp_fixed(1, meta.canonical_pump)
        cf = compile_counter_program(fixed)
        out = replay_canonical(cf, families.maximal_policy(cf.program), materialize=False)
        res = shortest_halting(cf.vass, SearchBudget(2 * max(out.probe.peak), 8_000_000))
        if res.verdict != Verdict.FOUND or len(res.run) != out.probe.length:
            bad = f"k=1: shortest != canonical ({res.verdict.value} vs {out.probe.length})"
    checks.append(_check(
        "k=1: not flat; halting iff pump divisible by the forced divisor; "
        "shortest equals canonical",
        bad,
    ))
    return _suite("2exp", checks, t0)


# ---------------------------------------------------------------------------
# size metrics and compiler semantics


def suite_sizes(max_n: int = 8, max_k: int = 8) -> SuiteResult:
    t0 = time.perf_counter()
    checks = []

    bad = None
    base = vass_size(compile_counter_program(families.gen_exp(1)).vass, "unary")
    for n in range(1, max_n + 1):
        size = vass_size(compile_counter_program(families.gen_exp(n)).vass, "unary")
        if size > base * n * n:
            bad = f"n={n}: unary size {size} > {base}*n^2"
            break
    checks.append(_check(
        f"exponential family: unary size within {base}*n^2 for n <= {max_n}", bad
    ))

    bad = None
    base_k = vass_size(compile_counter_program(families.gen_double_exp(1)[0]).vass, "binary")
    for k in range(1, max_k + 1):
        size = vass_size(compile_counter_program(families.gen_double_exp(k)[0]).vass, "binary")
        if size > base_k * k**3:
            bad = f"k={k}: binary size {size} > {base_k}*k^3"
            break
    checks.append(_check(
        f"doubly exponential family: binary size within {base_k}*k^3 for k <= {max_k}", bad
    ))
    return _suite("sizes", checks, t0)


def _semantics_corpus() -> list[tuple[str, CounterProgram]]:
    corpus: list[tuple[str, CounterProgram]] = []
    for b in (1, 2, 3, 6):
        corpus.append((f"weak({b})", families.gen_weak(b)))
    for (c, d), init in (((2, 1), {"x": 3}), ((3, 2), {"x": 2, "y": 3}), ((5, 3), {"x": 4, "y": 2})):
        corpus.append(
            (f"weak_mult({c},{d}) from {init}",
             families.with_initial_values(families.gen_weak_mult(c, d), init))
        )
    for (c, d), init in (((3, 2), {"x": 4, "z": 2}), ((2, 1), {"x": 2, "y": 1, "z": 2})):
        corpus.append(
            (f"hp({c},{d}) from {init}",
             families.with_initial_values(families.gen_hp(c, d), init))
        )
    return corpus


def check_compiler_semantics(program: CounterProgram, bound: int) -> str | None:
    """Interpreter reachable set == compiled-VASS reachable set on line states."""
    flat = expand(program)
    compiled = compile_counter_program(program)
    want = reachable_line_configs(flat, bound)
    reach = reachable_configs(
        compiled.vass,
        SearchBudget(bound, 4_000_000),
        absorbing=frozenset({compiled.halt_state}),
    )
    got = set()
    for state, vectors in reach.items():
        line = compiled.line_of_state[state]
        for vec in vectors:
            got.add((line, vec))
    if got != want:
        missing = list(want - got)[:3]
        extra = list(got - want)[:3]
        return f"sets differ; interpreter-only {missing}, compiled-only {extra}"
    return None


def suite_semantics(bound: int = 20) -> SuiteResult:
    t0 = time.perf_counter()
    checks = []
    for name, program in _semantics_corpus():
        bad = check_compiler_semantics(program, bound)
        checks.append(_check(f"interpreter == compiled VASS on {name} (B={bound})", bad))
    return _suite("semantics", checks, t0)


# ---------------------------------------------------------------------------
# dispatch

SUITES = {
    "arith": suite_arith,
    "weakmult": suite_weak_mult,
    "weak": suite_weak,
    "exp": suite_exp,
    "np": suite_np,
    "fractions": suite_fractions,
    "hp": suite_hp,
    "2exp": suite_double_exp,
    "sizes": suite_sizes,
    "semantics": suite_semantics,
}


def run_suites(names: list[str]) -> list[SuiteResult]:
    expanded: list[str] = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    return [SUITES[name]() for name in expanded]
