"""Machine checks for every construction-level claim, at desk scale.

Each suite returns a SuiteResult listing named checks with pass/fail and a
counterexample string on failure.  The CLI `verify` command drives these;
the acceptance tests run the same suites.  Each suite states its scale once
and names it in its checks.  All arithmetic is exact; no tolerances anywhere.

A check is a function that returns its first counterexample string, or None
when the claim holds.  A check over a grid of instances is `_first` of the
per-instance results, so it stops at the first failing instance.  A suite
is a list of `_check(name, check, *args)`, which runs one check and records
its outcome; a VasskitError raised while a check runs fails that check,
with the error as its counterexample, and the suite goes on.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import time
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import families
from .arith import description_size, divisibility_threshold
from .compiler import CompiledProgram, compile_counter_program, compile_program
from .errors import VasskitError
from .expansion import expand
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
        return {**asdict(self), "passed": self.passed, "elapsed_s": round(self.elapsed_s, 3)}


def _suite(name: str, t0: float, checks: list[CheckResult]) -> SuiteResult:
    return SuiteResult(name, checks, time.perf_counter() - t0)


def _check(name: str, check: Callable[..., str | None], *args) -> CheckResult:
    """Run `check(*args)`; a VasskitError it raises is its counterexample."""
    try:
        counterexample = check(*args)
    except VasskitError as e:
        counterexample = f"raised {type(e).__name__}: {e}"
    return CheckResult(name, counterexample is None, counterexample or "")


def _first(counterexamples: Iterable[str | None]) -> str | None:
    """The first counterexample that is not None, or None."""
    return next((c for c in counterexamples if c is not None), None)


# ---------------------------------------------------------------------------
# arith


def _threshold_divisible(n: int) -> str | None:
    """threshold(n) * (n+1) is a multiple of each of 2 .. n+1."""
    value = divisibility_threshold(n) * (n + 1)
    return _first(f"n={n}, divisor {i}" for i in range(2, n + 2) if value % i)


def suite_arith() -> SuiteResult:
    t0 = time.perf_counter()
    max_n = 100
    return _suite("arith", t0, [
        _check(f"threshold(n)*(n+1) divisible by 2..n+1 for n <= {max_n}",
               _first, map(_threshold_divisible, range(1, max_n + 1))),
        _check("threshold(n) <= n! for n <= 20", _first, (
            f"n={n}" for n in range(1, 21) if divisibility_threshold(n) > math.factorial(n)
        )),
    ])


# ---------------------------------------------------------------------------
# weak multiplication (two-loop fragment)


def _weak_mult_runs(c: int, d: int, x0: int, y0: int):
    """Analytic enumeration of all runs of the two-loop fragment: `a` flash
    iterations then `b` rebuild iterations."""
    for a in range(x0 + 1):
        x_mid, y_mid = x0 - a, y0 + a
        for b in range(y_mid // d + 1):
            yield a, b, x_mid + c * b, y_mid - d * b, x_mid


def _weak_mult_start(c: int, d: int, x0: int, y0: int) -> str | None:
    """From (x0, y0): analytic runs obey the bound and are exact iff maximal,
    BFS finals equal the analytic ones, and canonical replay is exact."""
    total = x0 + y0
    finals = set()
    for _a, _b, x1, y1, x_mid in _weak_mult_runs(c, d, x0, y0):
        finals.add((x1, y1))
        if d * (x1 + y1) > c * total:
            return f"(x0,y0)=({x0},{y0}): run ends ({x1},{y1}) above bound"
        exact = d * x1 == c * total
        if exact != (x_mid == 0 and y1 == 0):
            return (
                f"(x0,y0)=({x0},{y0}): equality vs probe mismatch at "
                f"final ({x1},{y1}), flash exit x'={x_mid}"
            )
    prog = families.with_initial_values(families.gen_weak_mult(c, d), {"x": x0, "y": y0})
    compiled = compile_counter_program(prog)
    bound = (total * c) // d + c + d + 1
    got = final_vectors(compiled.vass, SearchBudget(bound, 2_000_000), at_state=compiled.halt_state)
    if got != frozenset(finals):
        return f"(x0,y0)=({x0},{y0}): BFS finals differ from analytic enumeration"
    if total and total % d == 0:
        policy = families.maximal_policy(compiled.program)
        out = replay_canonical(compiled, policy, materialize=False)
        fx = dict(zip(compiled.program.counters, out.final.vector))
        want = total * c // d
        if fx["x"] != want or fx["y"] != 0:
            return f"(x0,y0)=({x0},{y0}): canonical final {fx}, expected x={want}"
    return None


def suite_weak_mult() -> SuiteResult:
    t0 = time.perf_counter()
    max_sum = 30
    return _suite("weakmult", t0, [
        _check(f"weak multiplication by {c}/{d}, sums <= {max_sum}", _first, (
            _weak_mult_start(c, d, x0, total - x0)
            for total in range(max_sum + 1) for x0 in range(total + 1)
        ))
        for c, d in ((2, 1), (3, 2), (5, 3), (7, 4))
    ])


# ---------------------------------------------------------------------------
# weak computation of b


def _weak_attains(b: int) -> str | None:
    """weak(b) ends with x = b on some run and never above b."""
    compiled = compile_counter_program(families.gen_weak(b))
    finals = final_vectors(
        compiled.vass, SearchBudget(2 * b + 2, 2_000_000), at_state=compiled.halt_state
    )
    values = sorted(vec[0] for vec in finals)
    if max(values) != b or any(v > b for v in values):
        return f"b={b}: final x values {values}"
    return None


def suite_weak() -> SuiteResult:
    t0 = time.perf_counter()
    max_b = 12
    return _suite("weak", t0, [
        _check(f"weak(b) attains exactly b and never more, b <= {max_b}",
               _first, map(_weak_attains, range(1, max_b + 1))),
    ])


# ---------------------------------------------------------------------------
# exponential family


def _exp_fixed_start(n: int, x0: int) -> str | None:
    """gen_exp_fixed(n, x0) has at most one halting run, one iff threshold(n) | x0."""
    compiled = compile_counter_program(families.gen_exp_fixed(n, x0))
    count = count_halting_runs(compiled.vass, SearchBudget((n + 2) * x0, 20_000_000))
    if count > 1:
        return f"n={n}, x0={x0}: {count} halting runs"
    divisible = x0 % divisibility_threshold(n) == 0
    if (count == 1) != divisible:
        return f"n={n}, x0={x0}: halting={count == 1}, divisible={divisible}"
    return None


def _exp_trend(trend_ns: tuple[int, ...]) -> str | None:
    """Canonical runs of gen_exp(n) halt, validate and are shortest; lengths grow."""
    lengths = []
    for n in trend_ns:
        compiled = compile_counter_program(families.gen_exp(n))
        pump = divisibility_threshold(n)
        out = replay_canonical(compiled, families.exp_canonical_policy(compiled.program, pump))
        if not out.halting:
            return f"n={n}: canonical run does not halt"
        report = validate_run(compiled.vass, out.run)
        if not (report.ok and report.halting):
            return f"n={n}: canonical run fails validation ({report.reason})"
        bound = 2 * max(out.probe.peak)
        result = shortest_halting(compiled.vass, SearchBudget(bound, 8_000_000))
        if result.verdict != Verdict.FOUND or len(result.run) != out.probe.length:
            return f"n={n}: shortest {result.verdict.value} vs canonical {out.probe.length}"
        lengths.append(out.probe.length)
    if any(a >= b for a, b in zip(lengths, lengths[1:])):
        return f"lengths not strictly increasing: {lengths}"
    return None


def suite_exp() -> SuiteResult:
    t0 = time.perf_counter()
    max_n = 5
    return _suite("exp", t0, [
        _check(f"halting iff threshold divides the pump, at most one run (n <= {max_n})", _first, (
            _exp_fixed_start(n, x0)
            for n in range(1, max_n + 1) for x0 in range(1, 4 * divisibility_threshold(n) + 1)
        )),
        _check(f"shortest = canonical length and strictly increasing (n <= {max_n})",
               _exp_trend, tuple(range(1, max_n + 1))),
    ])


# ---------------------------------------------------------------------------
# fraction sequences


def _fraction_invariants(k: int) -> str | None:
    """fraction_sequence(k): monotone factors above 1, the last factor's closed
    form, the description-size bounds and the exact tower-product identity."""
    seq = families.fraction_sequence(k)
    fs = seq.factors
    if not all(f > 1 for f in fs) or any(a >= b for a, b in zip(fs, fs[1:])):
        return f"k={k}: factors not strictly increasing above 1"
    if fs[-1] != 1 + Fraction(1, 4**k):
        return f"k={k}: last factor {fs[-1]}"
    size_bound = 4 ** (k * k + k)
    if any(description_size(f) > size_bound for f in fs):
        return f"k={k}: factor description size exceeds 4^(k^2+k)"
    if description_size(seq.product) > size_bound**2:
        return f"k={k}: product description size exceeds 4^(2(k^2+k))"
    # Cross-multiplied to avoid normalizing huge fractions.
    lhs_num = math.prod(f.numerator ** (2**i) for i, f in enumerate(fs, start=1))
    lhs_den = math.prod(f.denominator ** (2**i) for i, f in enumerate(fs, start=1))
    if lhs_num * seq.product.denominator != seq.product.numerator * lhs_den:
        return f"k={k}: tower product identity fails"
    return None


def _fraction_examples() -> str | None:
    """The sequences at k = 1 and 2, worked out by hand."""
    seq1, seq2 = families.fraction_sequence(1), families.fraction_sequence(2)
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
    return None if examples_ok else "values differ"


def suite_fractions() -> SuiteResult:
    t0 = time.perf_counter()
    max_k = 16
    return _suite("fractions", t0, [
        _check(f"sequence invariants for k <= {max_k}",
               _first, map(_fraction_invariants, range(1, max_k + 1))),
        _check("worked examples at k = 1, 2", _fraction_examples),
    ])


# ---------------------------------------------------------------------------
# Hopcroft-Pansiot gadget


def _hp_start(fragment: CounterProgram, c: int, d: int, x0: int, y0: int, z0: int) -> str | None:
    """From (x0, y0, z0): finals obey the (c/d)^z0 bound, exact finals clear y
    and z, and the exact power is reachable iff d^z0 divides x0+y0."""
    total = x0 + y0
    compiled = compile_counter_program(
        families.with_initial_values(fragment, {"x": x0, "y": y0, "z": z0})
    )
    peak = total * c**z0 // d**z0 + c + d + 1
    budget = SearchBudget(max(peak, z0), 4_000_000)
    finals = final_vectors(compiled.vass, budget, at_state=compiled.halt_state)
    exact = total * c**z0  # == (x0+y0) (c/d)^z0 * d^z0
    exact_final = None
    for x1, y1, z1 in finals:
        if (x1 + y1) * d ** (z0 - z1) > total * c ** (z0 - z1):
            return f"(x0,y0,z0)=({x0},{y0},{z0}): final ({x1},{y1},{z1}) above bound"
        if x1 * d**z0 == exact and z1 == 0:
            exact_final = (x1, y1, z1)
        if total and x1 * d**z0 == exact and (y1 or z1):
            return (
                f"(x0,y0,z0)=({x0},{y0},{z0}): exact final ({x1},{y1},{z1}) "
                "with nonzero y or z"
            )
    # Exact power reachable iff d^z0 divides x0+y0 (z0 >= 1; at z0 = 0 the
    # outer loop cannot complete an iteration, so only the untouched initial
    # values are final).
    if z0 >= 1:
        want = total % (d**z0) == 0
        if (exact_final is not None) != want:
            return (
                f"(x0,y0,z0)=({x0},{y0},{z0}): exact-power final "
                f"{'missing' if want else 'unexpected'}"
            )
    elif finals != frozenset({(x0, y0, z0)}):
        return f"(x0,y0,z0)=({x0},{y0},{z0}): z0=0 finals {sorted(finals)}"
    return None


def suite_hp() -> SuiteResult:
    t0 = time.perf_counter()
    c, d, max_sum, max_z = 3, 2, 16, 3
    fragment = families.gen_hp(c, d)
    return _suite("hp", t0, [
        _check(
            f"weak exponentiation by {c}/{d}: bound, exactness iff divisibility "
            f"(sums <= {max_sum}, z0 <= {max_z})",
            _first, (
                _hp_start(fragment, c, d, x0, total - x0, z0)
                for z0 in range(max_z + 1)
                for total in range(max_sum + 1)
                for x0 in range(total + 1)
            ),
        ),
    ])


# ---------------------------------------------------------------------------
# NP reduction


def check_np_instance(inst: families.NpInstance) -> str | None:
    """Bounded halting of the compiled reduction vs the Subset-Sum oracle.
    Returns a counterexample string, or None."""
    program, meta = families.gen_np(inst)
    compiled = compile_counter_program(program)
    if compiled.vass.dimension != 7:
        return f"{inst}: dimension {compiled.vass.dimension} != 7"
    flat_report = is_flat(compiled.vass)
    if not flat_report.is_flat:
        return f"{inst}: compiled reduction is not flat (state {flat_report.witness_state})"
    result = halting_reachable(compiled.vass, SearchBudget(meta.search_bound, 30_000_000))
    if result.verdict == Verdict.BUDGET_EXCEEDED:
        return f"{inst}: search budget exceeded"
    want = families.subset_sum_brute(inst.target, inst.values)
    got = result.verdict == Verdict.FOUND
    if got != want:
        return f"{inst}: halting={got} but subset-sum={want}"
    return None


def check_np_run_accounting(
    inst: families.NpInstance, run, compiled: CompiledProgram, meta: families.NpMeta
) -> str | None:
    """Verify on a concrete halting run that every visited component moved f
    down by exactly the threshold and touched u exactly `amount` times.
    Metered per block of the run: each transition of one copy counts its
    block's count times, for the component that holds its source line."""
    f_ix, u_ix = map(compiled.program.counters.index, ("f", "u"))
    labels = compiled.program.labels
    starts, end = [labels[c.label] for c in meta.components], labels["end"]
    f_drop, u_hits, visited = [0] * len(starts), [0] * len(starts), set()
    for ts, m in run.blocks:
        for t in ts:
            line = compiled.line_of_state[t.src]
            at = bisect.bisect_right(starts, line) - 1
            if m and at >= 0 and line < end:
                visited.add(at)
                f_drop[at] -= m * t.delta[f_ix]
                u_hits[at] += m * (t.delta[u_ix] != 0)
    for at, info in enumerate(meta.components):
        if at not in visited:
            continue
        if f_drop[at] != meta.threshold:
            return f"{inst}: component {info.label} moved f by {f_drop[at]}, expected {meta.threshold}"
        expected_hits = info.amount if info.active else 0
        if u_hits[at] != expected_hits:
            return (
                f"{inst}: component {info.label} touched u {u_hits[at]} times, "
                f"expected {expected_hits}"
            )
    return None


def _np_init_exact(n: int, k: int) -> str | None:
    """The canonical initializer run halts with e = threshold(n), f = (k+1)e and
    zero scratch counters, read from the exit probe of its last drain loop."""
    compiled = compile_counter_program(families.gen_np_init(n, k))
    out = replay_canonical(compiled, families.maximal_policy(compiled.program), materialize=False)
    if not out.halting:
        return f"n={n}, k={k}: canonical initializer run does not halt"
    last_loop = compiled.program.loops[-1]
    exit_vec = out.probe.loops[last_loop.entry].exit_vectors[-1]
    values = dict(zip(compiled.program.counters, exit_vec))
    threshold = divisibility_threshold(n)
    want = {"x": 0, "x'": 0, "y": 0, "z": 0, "e": threshold, "f": threshold * (k + 1)}
    if values != want:
        return f"n={n}, k={k}: initializer leaves {values}, expected {want}"
    return None


def _np_init_unique(n: int) -> str | None:
    """The initializer for n (one value) has exactly one halting run."""
    compiled = compile_counter_program(families.gen_np_init(n, 1))
    threshold = divisibility_threshold(n)
    budget = SearchBudget(4 * threshold * (n + 1) + 4, 8_000_000)
    count = count_halting_runs(compiled.vass, budget)
    if count != 1:
        return f"n={n}: initializer has {count} halting runs"
    return None


def _np_subset_run(
    inst: families.NpInstance, chosen: set[int], compiled: CompiledProgram, meta: families.NpMeta
) -> str | None:
    """The canonical run that takes the values at positions `chosen` halts,
    validates and meters f and u per component."""
    out = replay_canonical(compiled, families.np_canonical_policy(compiled.program, chosen))
    if not out.halting:
        return f"{inst}: canonical subset run does not halt"
    report = validate_run(compiled.vass, out.run)
    if not (report.ok and report.halting):
        return f"{inst}: canonical subset run fails validation"
    return check_np_run_accounting(inst, out.run, compiled, meta)


def _np_accounting(inst: families.NpInstance) -> str | None:
    """Positive instances: the canonical subset run and the run
    `shortest_halting` finds both meter f and u per component."""
    chosen = families.subset_sum_witness(inst.target, inst.values)
    if chosen is None:
        return None
    program, meta = families.gen_np(inst)
    compiled = compile_counter_program(program)
    counterexample = _np_subset_run(inst, chosen, compiled, meta)
    if counterexample is not None:
        return counterexample
    result = shortest_halting(compiled.vass, SearchBudget(meta.search_bound, 8_000_000))
    if result.verdict != Verdict.FOUND:
        return f"{inst}: BFS finds no run but oracle is positive"
    return check_np_run_accounting(inst, result.run, compiled, meta)


def _np_yes_instances(ks: Iterable[int], max_value: int) -> Iterable[str | None]:
    """Seeded yes-instances, one per k in `ks`: k values drawn below
    `max_value`, and as target the sum of a drawn nonempty subset of them,
    whose canonical run `_np_subset_run` checks."""
    rng = random.Random(2015)
    for k in ks:
        values = tuple(rng.randrange(1, max_value) for _ in range(k))
        chosen = set(rng.sample(range(1, k + 1), rng.randint(1, k)))
        inst = families.NpInstance(sum(values[i - 1] for i in chosen), values)
        program, meta = families.gen_np(inst)
        yield _np_subset_run(inst, chosen, compile_counter_program(program), meta)


def suite_np() -> SuiteResult:
    t0 = time.perf_counter()
    grid = [
        families.NpInstance(target, values)
        for k in (1, 2)
        for target in range(1, 4)
        for values in itertools.product(range(1, 4), repeat=k)
    ]
    yes_ks, value_bits = (2, 4, 8, 16), 12
    return _suite("np", t0, [
        _check("initializer computes the threshold exactly (n <= 4)",
               _first, (_np_init_exact(n, k) for n in range(1, 5) for k in (1, 2))),
        _check("initializer halting run is unique (n <= 2)", _first, map(_np_init_unique, (1, 2))),
        _check(
            "halting iff subset-sum on the full grid (k <= 2, values <= 3); flat and 7-dimensional",
            _first, map(check_np_instance, grid),
        ),
        _check("per-component f/u accounting on halting runs", _first, map(_np_accounting, grid)),
        _check(f"yes-instances: the canonical subset run halts, validates and meters f and u "
               f"(k <= {max(yes_ks)}, values < 2^{value_bits})",
               _first, _np_yes_instances(yes_ks, 2**value_bits)),
    ])


# ---------------------------------------------------------------------------
# doubly exponential family


def _tower_maximal(k: int) -> str | None:
    """Under n_i + ... + n_k <= 2^i + ... + 2^k for all i, the fraction tower
    is maximized exactly by the full iteration counts n_i = 2^i."""
    seq = families.fraction_sequence(k)
    full = tuple(2**i for i in range(1, k + 1))
    suffixes: list[tuple[int, ...]] = [()]
    for i in range(k, 0, -1):
        budget_i = sum(2**j for j in range(i, k + 1))
        suffixes = [(v,) + rest for rest in suffixes for v in range(budget_i - sum(rest) + 1)]
    for vec in suffixes:
        prod = math.prod((f**e for f, e in zip(seq.factors, vec)), start=Fraction(1))
        if prod > seq.product:
            return f"k={k}: exponents {vec} exceed the tower product"
        if (prod == seq.product) != (vec == full):
            return f"k={k}: equality mismatch at exponents {vec}"
    return None


def _double_exp_replay(k: int, materialize: bool):
    """gen_double_exp(k) compiled, its meta, and its canonical replay."""
    program, meta = families.gen_double_exp(k)
    compiled = compile_counter_program(program)
    policy = families.double_exp_canonical_policy(compiled.program, meta.canonical_pump)
    return compiled, meta, replay_canonical(compiled, policy, materialize)


def _stage_exits(k: int) -> str | None:
    """The canonical run of gen_double_exp(k) halts with x at each stage exit
    equal to the closed form pump * prod f_i^(2^i)."""
    compiled, meta, out = _double_exp_replay(k, materialize=False)
    if not out.halting:
        return f"k={k}: canonical run does not halt"
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
            return f"k={k}: stage exit x={got}, closed form {want}"
    return None


def _canonical_validates(k: int) -> str | None:
    """The canonical run of gen_double_exp(k), held as the replay's blocks,
    is a halting run of the compiled VASS, checked by `validate_run`."""
    compiled, _, out = _double_exp_replay(k, materialize=True)
    report = validate_run(compiled.vass, out.run)
    if not report.ok:
        return f"k={k}: canonical run fails validation: {report.reason}"
    if not report.halting:
        return f"k={k}: canonical run validates but does not halt"
    return None


def _double_exp_k1() -> str | None:
    """gen_double_exp(1) is not flat and halts; with a fixed pump it halts iff
    the forced divisor divides the pump; the canonical run is shortest."""
    program, meta = families.gen_double_exp(1)
    compiled = compile_counter_program(program)
    if is_flat(compiled.vass).is_flat:
        return "k=1: compiled program is flat"
    numer = meta.fractions.product.numerator
    denom = meta.fractions.product.denominator
    bound = 2 * (meta.canonical_pump * numer // denom) + 4
    res = halting_reachable(compiled.vass, SearchBudget(bound, 8_000_000))
    if res.verdict != Verdict.FOUND:
        return f"k=1: no halting run found ({res.verdict.value})"
    for pump in range(1, 33):
        fixed, _ = families.gen_double_exp_fixed(1, pump)
        cf = compile_counter_program(fixed)
        bound = 2 * (pump * numer // denom) + 4
        res = halting_reachable(cf.vass, SearchBudget(bound, 8_000_000))
        want = pump % meta.forced_divisor == 0
        if (res.verdict == Verdict.FOUND) != want:
            return f"k=1, pump={pump}: halting={res.verdict.value}, divisible={want}"
    fixed, _ = families.gen_double_exp_fixed(1, meta.canonical_pump)
    cf = compile_counter_program(fixed)
    out = replay_canonical(cf, families.maximal_policy(cf.program), materialize=False)
    res = shortest_halting(cf.vass, SearchBudget(2 * max(out.probe.peak), 8_000_000))
    if res.verdict != Verdict.FOUND or len(res.run) != out.probe.length:
        return f"k=1: shortest != canonical ({res.verdict.value} vs {out.probe.length})"
    return None


def suite_double_exp() -> SuiteResult:
    t0 = time.perf_counter()
    flow_max_k, probe_max_k = 3, 8
    return _suite("2exp", t0, [
        _check(f"tower product maximal exactly at full exponents (k <= {flow_max_k})",
               _first, map(_tower_maximal, range(1, flow_max_k + 1))),
        _check(f"canonical run halts and stage exits match the closed form (k <= {probe_max_k})",
               _first, map(_stage_exits, range(1, probe_max_k + 1))),
        _check(f"canonical run validates (k <= {probe_max_k})",
               _first, map(_canonical_validates, range(1, probe_max_k + 1))),
        _check("k=1: not flat; halting iff pump divisible by the forced divisor; "
               "shortest equals canonical", _double_exp_k1),
    ])


# ---------------------------------------------------------------------------
# size metrics and compiler semantics


def _size_within(gen, encoding: str, param: str, base: int, power: int, top: int) -> str | None:
    """The compiled gen(p) has size at most base * p^power for p = 1 .. top."""
    for p in range(1, top + 1):
        size = vass_size(compile_counter_program(gen(p)).vass, encoding)
        if size > base * p**power:
            return f"{param}={p}: {encoding} size {size} > {base}*{param}^{power}"
    return None


def suite_sizes() -> SuiteResult:
    t0 = time.perf_counter()
    max_n = max_k = 8
    exp, double_exp = families.gen_exp, lambda k: families.gen_double_exp(k)[0]
    base = vass_size(compile_counter_program(exp(1)).vass, "unary")
    base_k = vass_size(compile_counter_program(double_exp(1)).vass, "binary")
    return _suite("sizes", t0, [
        _check(f"exponential family: unary size within {base}*n^2 for n <= {max_n}",
               _size_within, exp, "unary", "n", base, 2, max_n),
        _check(f"doubly exponential family: binary size within {base_k}*k^3 for k <= {max_k}",
               _size_within, double_exp, "binary", "k", base_k, 3, max_k),
    ])


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
    compiled = compile_program(flat)
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


def suite_semantics() -> SuiteResult:
    t0 = time.perf_counter()
    bound = 20
    return _suite("semantics", t0, [
        _check(f"interpreter == compiled VASS on {name} (B={bound})",
               check_compiler_semantics, program, bound)
        for name, program in _semantics_corpus()
    ])


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
