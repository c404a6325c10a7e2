"""The four workloads: their instance lists, the pipeline each instance goes
through, and the independent answer each result is checked against.

An instance runs family generator -> expand -> compile_program -> is_flat ->
search or replay, then compares what it got with an answer computed without
the layer under test.  A workload's instances come in groups, and each
group runs in a process of its own: every instance is a group of one,
except on gadget_grid, whose three grids of small instances are a group
each.  The instance set of a workload is fixed; the seed and the round
number only fix the order in which groups and instances run, so every
round does the same work.
`small=True` gives a reduced instance set for the self-test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import vasskit as vk
from vasskit import families

from layers import Layers


class Gate:
    """Counts results attempted and failed.  A result fails when any of its
    checks differs from the independent answer, or when its pipeline raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._bad: str | None = None

    def run(self, label: str, body):
        self.attempted += 1
        self._bad = None
        try:
            body()
        except Exception as e:  # an errored result is a failed result; keep going
            self._bad = f"raised {type(e).__name__}: {e}"
        if self._bad is not None:
            self.failures.append(f"{label}: {self._bad}")

    def expect(self, what: str, got, want):
        if got != want and self._bad is None:
            self._bad = f"{what}: got {got!r}, expected {want!r}"


def _threshold(n: int) -> int:
    # lcm{2..n+1}/(n+1), recomputed here rather than taken from vasskit.arith
    return math.lcm(*range(2, n + 2)) // (n + 1)


def _front(L: Layers, program: vk.CounterProgram) -> vk.CompiledProgram:
    return L.compile_program(L.expand(program))


# ---------------------------------------------------------------------------
# np_reach: the seven-counter Subset-Sum reduction, existence BFS


def np_instance(L: Layers, gate: Gate, target: int, values: tuple[int, ...]):
    inst = vk.NpInstance(target, values)
    program, meta = L.gen(vk.gen_np, inst)
    v = _front(L, program).vass
    gate.expect("dimension", v.dimension, 7)
    gate.expect("flat", L.is_flat(v).is_flat, True)
    bound = 8 * meta.threshold * (len(values) + 1)
    result = L.halting_reachable(v, vk.SearchBudget(bound, 30_000_000))
    want = L.oracle(vk.subset_sum_brute, target, values)
    gate.expect("verdict", result.verdict, vk.Verdict.FOUND if want else vk.Verdict.EXHAUSTED)


def np_reach(small: bool):
    if small:
        pairs = [(1, (1,)), (2, (1,)), (2, (2,))]
    else:
        pairs = [(1, (1,)), (1, (2,)), (2, (1,)), (2, (2,)), (3, (3,)), (2, (1, 1))]
    return [[(f"NP({t};{list(vals)})", np_instance, (t, vals))] for t, vals in pairs]


# ---------------------------------------------------------------------------
# exp_runs: run counting and shortest runs on the exponential family


def exp_count(L: Layers, gate: Gate, n: int, x0: int):
    v = _front(L, L.gen(vk.gen_exp_fixed, n, x0)).vass
    gate.expect("flat", L.is_flat(v).is_flat, True)
    count = L.count_halting_runs(v, vk.SearchBudget((n + 2) * x0, 20_000_000))
    gate.expect("halting runs", count, L.oracle(lambda: int(x0 % _threshold(n) == 0)))


def exp_shortest(L: Layers, gate: Gate, n: int, x0: int | None):
    """Shortest halting run of gen_exp(n), or of gen_exp_fixed(n, x0), against
    the length of the canonical maximal-iteration replay."""
    if x0 is None:
        compiled = _front(L, L.gen(vk.gen_exp, n))
        policy = L.gen(families.exp_canonical_policy, compiled.program, _threshold(n))
    else:
        compiled = _front(L, L.gen(vk.gen_exp_fixed, n, x0))
        policy = L.gen(families.maximal_policy, compiled.program)
    v = compiled.vass
    gate.expect("flat", L.is_flat(v).is_flat, True)
    canonical = L.replay_canonical(compiled, policy)
    report = L.validate_run(v, canonical.run)
    gate.expect("canonical run", (canonical.halting, report.ok, report.halting), (True,) * 3)
    result = L.shortest_halting(v, vk.SearchBudget(2 * max(canonical.probe.peak), 8_000_000))
    gate.expect("verdict", result.verdict, vk.Verdict.FOUND)
    gate.expect("shortest length", len(result.run), canonical.probe.length)
    report = L.validate_run(v, result.run)
    gate.expect("shortest run", (report.ok, report.halting), (True, True))


def exp_runs(small: bool):
    if small:
        counts, shortest = (12, 13), [(2, None)]
    else:
        counts, shortest = (12, 13, 24), [(3, None), (4, 24)]
    return [[(f"count exp_fixed(4,{x0})", exp_count, (4, x0))] for x0 in counts] + [
        [(f"shortest exp({n})" if x0 is None else f"shortest exp_fixed({n},{x0})",
          exp_shortest, (n, x0))]
        for n, x0 in shortest
    ]


# ---------------------------------------------------------------------------
# gadget_grid: thousands of small collection-mode searches


def _hp_oracle(finals, c: int, d: int, x0: int, y0: int, z0: int) -> str | None:
    """The weak-exponentiation properties of one Hopcroft-Pansiot instance;
    returns the first one violated, or None."""
    total = x0 + y0
    if z0 == 0:
        # the outer loop cannot complete an iteration: only the initial values
        return None if finals == {(x0, y0, 0)} else f"finals {sorted(finals)}"
    for x1, y1, z1 in finals:
        if (x1 + y1) * d ** (z0 - z1) > total * c ** (z0 - z1):
            return f"final ({x1},{y1},{z1}) above the bound"
    exact = [f for f in finals if f[0] * d**z0 == total * c**z0]
    if total and any(y1 or z1 for _x1, y1, z1 in exact):
        return "exact final with nonzero y or z"
    reached = any(z1 == 0 for _x1, _y1, z1 in exact)
    if reached != (total % d**z0 == 0):
        return f"exact power {'reached' if reached else 'missing'}"
    return None


def hp_instance(L: Layers, gate: Gate, c: int, d: int, x0: int, y0: int, z0: int):
    program = L.gen(lambda: vk.with_initial_values(vk.gen_hp(c, d), {"x": x0, "y": y0, "z": z0}))
    compiled = _front(L, program)
    gate.expect("flat", L.is_flat(compiled.vass).is_flat, False)
    total = x0 + y0
    bound = max(total * c**z0 // d**z0 + c + d + 1, z0)
    reach = L.reachable_configs(
        compiled.vass, vk.SearchBudget(bound, 4_000_000), frozenset({compiled.halt_state})
    )
    finals = reach.get(compiled.halt_state, set())
    gate.expect("weak exponentiation", L.oracle(_hp_oracle, finals, c, d, x0, y0, z0), None)


def _weak_mult_finals(c: int, d: int, x0: int, y0: int) -> frozenset[tuple[int, int]]:
    """Analytic enumeration: `a` flash iterations, then `b` rebuild iterations."""
    finals = set()
    for a in range(x0 + 1):
        x_mid, y_mid = x0 - a, y0 + a
        for b in range(y_mid // d + 1):
            finals.add((x_mid + c * b, y_mid - d * b))
    return frozenset(finals)


def weak_mult_instance(L: Layers, gate: Gate, c: int, d: int, x0: int, y0: int):
    program = L.gen(lambda: vk.with_initial_values(vk.gen_weak_mult(c, d), {"x": x0, "y": y0}))
    compiled = _front(L, program)
    gate.expect("flat", L.is_flat(compiled.vass).is_flat, True)
    total = x0 + y0
    reach = L.reachable_configs(
        compiled.vass,
        vk.SearchBudget(total * c // d + c + d + 1, 2_000_000),
        frozenset({compiled.halt_state}),
    )
    finals = frozenset(reach.get(compiled.halt_state, ()))
    gate.expect("finals", finals, L.oracle(_weak_mult_finals, c, d, x0, y0))
    if total and total % d == 0:
        out = L.replay_canonical(compiled, L.gen(families.maximal_policy, compiled.program))
        gate.expect("canonical final", out.final.vector, (total * c // d, 0))


SEMANTICS_BOUND = 20


def _semantics_programs(small: bool) -> list[tuple[str, object]]:
    """The compiler-semantics corpus: (name, zero-argument generator)."""

    def closed(gen, c: int, d: int, init: dict[str, int]):
        name = f"{gen.__name__.removeprefix('gen_')}({c},{d}) from {init}"
        return name, lambda: vk.with_initial_values(gen(c, d), init)

    corpus = [(f"weak({b})", lambda b=b: vk.gen_weak(b)) for b in (1, 2, 3, 6)]
    corpus += [
        closed(vk.gen_weak_mult, 2, 1, {"x": 3}),
        closed(vk.gen_weak_mult, 3, 2, {"x": 2, "y": 3}),
        closed(vk.gen_weak_mult, 5, 3, {"x": 4, "y": 2}),
        closed(vk.gen_hp, 3, 2, {"x": 4, "z": 2}),
        closed(vk.gen_hp, 2, 1, {"x": 2, "y": 1, "z": 2}),
    ]
    return corpus[:2] if small else corpus


def semantics_instance(L: Layers, gate: Gate, make_program):
    """The interpreter's reachable line configurations equal the compiled
    VASS's, halt-completion drains excluded on both sides."""
    flat = L.expand(L.gen(make_program))
    compiled = L.compile_program(flat)
    reach = L.reachable_configs(
        compiled.vass, vk.SearchBudget(SEMANTICS_BOUND, 4_000_000), frozenset({compiled.halt_state})
    )
    got = {(compiled.line_of_state[s], vec) for s, vectors in reach.items() for vec in vectors}
    gate.expect("line configurations", got, L.reachable_line_configs(flat, SEMANTICS_BOUND))


def gadget_grid(small: bool):
    max_hp_sum, max_z, max_wm_sum = (2, 1, 3) if small else (10, 3, 20)
    hp_grid = [
        (f"hp(3,2) from ({x0},{total - x0},{z0})", hp_instance, (3, 2, x0, total - x0, z0))
        for z0 in range(max_z + 1)
        for total in range(max_hp_sum + 1)
        for x0 in range(total + 1)
    ]
    weak_mult_grid = [
        (f"weak_mult({c},{d}) from ({x0},{total - x0})", weak_mult_instance,
         (c, d, x0, total - x0))
        for c, d in (((2, 1), (3, 2)) if small else ((2, 1), (3, 2), (5, 3), (7, 4)))
        for total in range(max_wm_sum + 1)
        for x0 in range(total + 1)
    ]
    corpus = [(f"semantics {name}", semantics_instance, (make,))
              for name, make in _semantics_programs(small)]
    return [hp_grid, weak_mult_grid, corpus]


# ---------------------------------------------------------------------------
# construct: large members through every layer except the search kernels


def construct_np(L: Layers, gate: Gate, target: int, values: tuple[int, ...]):
    program, _meta = L.gen(vk.gen_np, vk.NpInstance(target, values))
    parsed = L.parse(L.pretty_print(program))
    gate.expect("text round trip", parsed, program)
    v = _front(L, parsed).vass
    gate.expect("flat", L.is_flat(v).is_flat, True)
    gate.expect("JSON round trip", L.json_roundtrip(v), v)


def construct_exp(L: Layers, gate: Gate, n: int):
    compiled = _front(L, L.gen(vk.gen_exp, n))
    v = compiled.vass
    gate.expect("flat", L.is_flat(v).is_flat, True)
    policy = L.gen(families.exp_canonical_policy, compiled.program, _threshold(n))
    out = L.replay_canonical(compiled, policy)
    report = L.validate_run(v, out.run)
    gate.expect("canonical run", (out.halting, report.ok, report.halting), (True,) * 3)
    gate.expect("materialized length", len(out.run), out.probe.length)


def _double_exp_stage_exits(meta: vk.DoubleExpMeta) -> list[Fraction]:
    """Closed form of x at each outer-stage exit: pump * f_k^(2^k) * ..."""
    value = Fraction(meta.canonical_pump)
    exits = []
    for i in range(meta.k, 0, -1):
        value *= meta.fractions.factors[i - 1] ** (2**i)
        exits.append(value)
    return exits


def construct_double_exp(L: Layers, gate: Gate, k: int):
    program, meta = L.gen(vk.gen_double_exp, k)
    compiled = _front(L, program)
    gate.expect("flat", L.is_flat(compiled.vass).is_flat, False)
    policy = L.gen(families.double_exp_canonical_policy, compiled.program, meta.canonical_pump)
    out = L.replay_canonical(compiled, policy, materialize=False)
    gate.expect("canonical run halts", out.halting, True)
    flat = compiled.program
    outer = [s.entry for s in flat.loops
             if isinstance(flat.line(s.back - 1), vk.Sub) and flat.line(s.back - 1).counter == "z"]
    x_ix = flat.counters.index("x")
    got = [Fraction(out.probe.loops[entry].exit_vectors[-1][x_ix]) for entry in outer]
    gate.expect("stage exits", got, L.oracle(_double_exp_stage_exits, meta))


def _tower_identity(seq: vk.FractionSequence) -> bool:
    fs = seq.factors
    num = math.prod(f.numerator ** (2**i) for i, f in enumerate(fs, start=1))
    den = math.prod(f.denominator ** (2**i) for i, f in enumerate(fs, start=1))
    return (
        num * seq.product.denominator == seq.product.numerator * den
        and all(1 < a < b for a, b in zip(fs, fs[1:]))
        and fs[-1] == 1 + Fraction(1, 4**seq.k)
    )


def construct_fractions(L: Layers, gate: Gate, k: int):
    seq = L.fraction_sequence(k)
    gate.expect("tower identity", L.oracle(_tower_identity, seq), True)


def construct(small: bool):
    np_inst = (3, (1, 2)) if small else (9, (1, 2, 3, 4, 5, 1, 2))
    exp_n, double_k, fractions_k = (4, 2, 4) if small else (10, 10, 14)
    return [
        [(f"front end NP({np_inst[0]};{list(np_inst[1])})", construct_np, np_inst)],
        [(f"materialized replay exp({exp_n})", construct_exp, (exp_n,))],
        [(f"fast-forward replay 2exp({double_k})", construct_double_exp, (double_k,))],
        [(f"fraction_sequence({fractions_k})", construct_fractions, (fractions_k,))],
    ]


WORKLOADS = {
    "np_reach": np_reach,
    "exp_runs": exp_runs,
    "gadget_grid": gadget_grid,
    "construct": construct,
}


def round_groups(workload: str, seed: int, round_ix: int, small: bool = False):
    """The workload's groups of instances, in the order the seed and round
    fix; each group's instances are in that order too.

    A round runs each group in a fresh process, because a process's peak
    memory depends on what ran in it before: the allocator keeps some of
    the freed memory of earlier instances.  On np_reach, NP(3;{3}) peaked
    at 119 or 132 MB depending on which instances preceded it."""
    rng = random.Random(f"{seed}/{round_ix}")
    groups = WORKLOADS[workload](small)
    rng.shuffle(groups)
    for group in groups:
        rng.shuffle(group)
    return groups
