"""Generators for the hard reachability families and their gadgets.

All generators are pure: they return counter-program ASTs (plus metadata
where useful) and never touch global state.  Fragments (weak multiplication,
the Hopcroft-Pansiot gadget) omit init/halt; close them with
`with_initial_values` before compiling.

Each gadget is written once and the families are assembled from them:
`gen_weak_mult` (flash x into y, rebuild x at c per d) is the doubling step
of `gen_weak` and the inner stage of `gen_hp`; `gen_hp` is one stage of the
doubly exponential tower (`gen_double_exp*`); the (i+1)/i cascade with its
joint x/y drain (`_cascade`) checks the pump of `gen_exp*` and the threshold
built by the NP initializer (`gen_np_init`, `gen_np`); `_pump` is the free
or fixed pump of `gen_exp*` and `gen_double_exp*`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import divisibility_threshold, threshold_index
from .errors import PolicyStuckError
from .expansion import FlatProgram
from .lang import (
    Add, BinOp, BitTest, Command, CounterProgram, For, Goto, Halt, If, Init,
    Labeled, Lit, Loop, Sub, Var,
)
from .search import CountedLoop, DrainLoop, LoopPolicy, TakeBranch


def with_initial_values(fragment: CounterProgram, values: dict[str, int]) -> CounterProgram:
    """Close a fragment into a runnable program: init, load the given
    initial counter values, then the fragment body."""
    body: list[Command] = [Init()]
    for c in fragment.counters:
        v = values.get(c, 0)
        if v < 0:
            raise ValueError(f"initial value of {c!r} must be >= 0")
        if v:
            body.append(Add(c, Lit(v)))
    body.extend(fragment.body)
    return CounterProgram(fragment.counters, tuple(body))


# ---------------------------------------------------------------------------
# Weak multiplication and weak computation of a constant


def gen_weak_mult(c: int, d: int) -> CounterProgram:
    """Fragment over x, y: flash x into y one by one, then rebuild x gaining
    c per d taken from y.  Runs multiply x+y by at most c/d, exactly c/d
    only when both loops are iterated maximally."""
    if d < 1 or c <= d:
        raise ValueError(f"weak multiplication needs c > d >= 1, got c={c}, d={d}")
    return CounterProgram(
        ("x", "y"),
        (
            Loop((Sub("x", Lit(1)), Add("y", Lit(1)))),
            Loop((Add("x", Lit(c)), Sub("y", Lit(d)))),
        ),
    )


def gen_weak(b: int) -> CounterProgram:
    """Program (init, no halt) that weakly computes b in x: every run ends
    with x <= b and the maximal schedule reaches exactly b.  Processes the
    bits of b from the most significant down, doubling x and adding 1-bits."""
    if b < 1:
        raise ValueError(f"weak computation needs b >= 1, got {b}")
    m = b.bit_length() - 1
    double = gen_weak_mult(2, 1).body
    return CounterProgram(
        ("x", "y"),
        (
            Init(),
            For(
                "i", Lit(m), Lit(0), True,
                (*double, If(BitTest(Lit(b), Var("i"), 1), (Add("x", Lit(1)),))),
            ),
        ),
    )


# ---------------------------------------------------------------------------
# Exponential-run three-counter family


def _pump(a: str, b: str, value: int | None) -> tuple[Command, ...]:
    # Load a = b = value, or with value None pump a = b = N for any N >= 1.
    if value is None:
        return (Add(a, Lit(1)), Add(b, Lit(1)), Loop((Add(a, Lit(1)), Add(b, Lit(1)))))
    return (Add(a, Lit(value)), Add(b, Lit(value)))


def _cascade(n: int) -> tuple[Command, ...]:
    # Multiply x by (i+1)/i for i = n .. 1 (so by n+1 overall when exact),
    # then require x = (n+1) * y via the joint drain.
    return (
        For(
            "i", Lit(n), Lit(1), True,
            (
                Loop((Sub("x", Lit(1)), Add("z", Lit(1)))),
                Loop((Add("x", BinOp("+", Var("i"), Lit(1))), Sub("z", Var("i")))),
            ),
        ),
        Loop((Sub("x", Lit(n + 1)), Sub("y", Lit(1)))),
    )


def _exp(n: int, x0: int | None) -> CounterProgram:
    return CounterProgram(
        ("x", "y", "z"), (Init(), *_pump("x", "y", x0), *_cascade(n), Halt(("y",)))
    )


def gen_exp(n: int) -> CounterProgram:
    """Three-counter program whose halting runs must pump a multiple of
    divisibility_threshold(n), which grows exponentially in n."""
    if n < 1:
        raise ValueError(f"gen_exp needs n >= 1, got {n}")
    return _exp(n, None)


def gen_exp_fixed(n: int, x0: int) -> CounterProgram:
    """Test-harness variant of gen_exp with the pump replaced by exact
    increments x = y = x0, exposing the per-initial-value halting behavior."""
    if n < 1:
        raise ValueError(f"gen_exp_fixed needs n >= 1, got {n}")
    if x0 < 1:
        raise ValueError(f"gen_exp_fixed needs x0 >= 1, got {x0}")
    return _exp(n, x0)


# ---------------------------------------------------------------------------
# Hopcroft-Pansiot weak exponentiation gadget


def gen_hp(c: int, d: int) -> CounterProgram:
    """Fragment over x, y, z: an outer loop that weakly multiplies x by c/d
    and decrements z once per iteration, so x is weakly multiplied by
    (c/d)^z overall; exact precisely when d^z divides x+y at entry."""
    if d < 1 or c <= d:
        raise ValueError(f"gen_hp needs c > d >= 1, got c={c}, d={d}")
    if math.gcd(c, d) != 1:
        raise ValueError(f"gen_hp needs an irreducible ratio, got {c}/{d}")
    return CounterProgram(("x", "y", "z"), (Loop((*gen_weak_mult(c, d).body, Sub("z", Lit(1)))),))


# ---------------------------------------------------------------------------
# Fraction sequences with single-exponential tower products


@dataclass(frozen=True)
class FractionSequence:
    """k increasing rationals just above 1 whose tower product
    factors[0]^2 * factors[1]^4 * ... * factors[k-1]^(2^k) stays of
    single-exponential description size."""

    k: int
    ratios: tuple[Fraction, ...]  # building blocks r_1..r_k
    factors: tuple[Fraction, ...]  # f_1..f_k, each reduced
    product: Fraction  # the tower product, reduced


def fraction_sequence(k: int) -> FractionSequence:
    """Construct the sequence from its ratios r_i = (4^k + 2^(k-i)) / 4^k:
    f_i = r_i / (r_{i+1} ... r_k), and the product is (r_1 ... r_k)^2.
    `verify.suite_fractions` checks its invariants: strict monotonicity
    above 1, the closed form of the last factor, the description-size
    bounds and the exact tower-product identity."""
    if k < 1:
        raise ValueError(f"fraction_sequence needs k >= 1, got {k}")
    base = 4**k
    ratios = tuple(Fraction(base + 2 ** (k - i), base) for i in range(1, k + 1))
    suffix = Fraction(1)
    factors_rev: list[Fraction] = []
    for r in reversed(ratios):
        factors_rev.append(r / suffix)
        suffix *= r
    factors = tuple(reversed(factors_rev))
    product = (math.prod(ratios)) ** 2
    return FractionSequence(k=k, ratios=ratios, factors=factors, product=product)


# ---------------------------------------------------------------------------
# Doubly-exponential-run four-counter family


@dataclass(frozen=True)
class DoubleExpMeta:
    k: int
    fractions: FractionSequence
    # product of denominator towers: one halting pump count, a multiple of
    # forced_divisor, but not the least one from k = 2 on
    canonical_pump: int
    forced_divisor: int  # last denominator ** 2^k; divides every halting pump count

    def __post_init__(self):
        assert self.forced_divisor >= 2 ** (2**self.k)


def _double_exp_meta(k: int) -> DoubleExpMeta:
    seq = fraction_sequence(k)
    pump = math.prod(f.denominator ** (2**i) for i, f in enumerate(seq.factors, start=1))
    divisor = seq.factors[-1].denominator ** (2**k)
    return DoubleExpMeta(k=k, fractions=seq, canonical_pump=pump, forced_divisor=divisor)


def _double_exp(k: int, pump_value: int | None) -> tuple[CounterProgram, DoubleExpMeta]:
    # Stage i loads z = 2^i and runs gen_hp for f_i; every f_i is reduced
    # and above 1, so gen_hp's checks pass.
    meta = _double_exp_meta(k)
    seq = meta.fractions
    cmds: list[Command] = [Init(), *_pump("t", "x", pump_value)]
    for i in range(k, 0, -1):
        f = seq.factors[i - 1]
        cmds.append(Add("z", Lit(2**i)))
        cmds.extend(gen_hp(f.numerator, f.denominator).body)
    cmds.append(Loop((Sub("t", Lit(seq.product.denominator)), Sub("x", Lit(seq.product.numerator)))))
    cmds.append(Halt(("t",)))
    return CounterProgram(("t", "x", "y", "z"), tuple(cmds)), meta


def gen_double_exp(k: int) -> tuple[CounterProgram, DoubleExpMeta]:
    """Four-counter program: pump t = x = N, weakly multiply x through the
    whole fraction tower using one Hopcroft-Pansiot stage per factor, then
    drain t and x jointly; halting forces N to be a multiple of the
    doubly-exponential forced_divisor.  Constants are meant to be read in
    binary (vass_size(..., "binary"))."""
    if k < 1:
        raise ValueError(f"gen_double_exp needs k >= 1, got {k}")
    return _double_exp(k, None)


def gen_double_exp_fixed(k: int, pump_value: int) -> tuple[CounterProgram, DoubleExpMeta]:
    """Test-harness variant of gen_double_exp with the pump replaced by exact
    increments t = x = pump_value."""
    if k < 1:
        raise ValueError(f"gen_double_exp_fixed needs k >= 1, got {k}")
    if pump_value < 1:
        raise ValueError(f"gen_double_exp_fixed needs pump_value >= 1, got {pump_value}")
    return _double_exp(k, pump_value)


# ---------------------------------------------------------------------------
# Subset Sum and the seven-counter NP-hardness reduction


def subset_sum_brute(target: int, values: list[int] | tuple[int, ...]) -> bool:
    """Independent oracle: does some subset of `values` sum to `target`?
    Enumerates achievable sums; the empty subset makes target 0 positive."""
    if len(values) > 25:
        raise ValueError(f"subset_sum_brute caps |values| at 25, got {len(values)}")
    if target < 0:
        raise ValueError("subset_sum_brute needs target >= 0")
    if any(v < 1 for v in values):
        raise ValueError("subset_sum_brute needs positive values")
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums if s + v <= target}
    return target in sums


def subset_sum_witness(target: int, values: list[int] | tuple[int, ...]) -> set[int] | None:
    """A subset of `values` summing to `target`, as 1-based positions (the
    `chosen` of np_canonical_policy), or None when there is none.  Takes the
    first in order of size, then lexicographic order of positions; the
    oracle rules out negative instances before any enumeration."""
    if not subset_sum_brute(target, values):
        return None
    positions = range(1, len(values) + 1)
    for r in range(len(values) + 1):
        for picks in itertools.combinations(positions, r):
            if sum(values[i - 1] for i in picks) == target:
                return set(picks)
    return None


@dataclass(frozen=True)
class NpInstance:
    """A Subset-Sum instance plus the derived reduction parameters."""

    target: int  # the sum to hit
    values: tuple[int, ...]

    def __post_init__(self):
        if self.target < 1:
            raise ValueError("instance target must be >= 1")
        if not self.values or any(v < 1 for v in self.values):
            raise ValueError("instance values must be a nonempty list of positive integers")

    @property
    def n(self) -> int:
        return threshold_index((self.target,) + self.values)

    @property
    def threshold(self) -> int:
        return divisibility_threshold(self.n)


@dataclass(frozen=True)
class ComponentInfo:
    label: str
    amount: int
    active: bool  # whether this component updates u at all


@dataclass(frozen=True)
class NpMeta:
    instance: NpInstance
    threshold: int
    components: tuple[ComponentInfo, ...]  # in program order

    @property
    def search_bound(self) -> int:
        """Per-counter bound for searching the reduction: eight times the
        work budget f = (k+1) * threshold that the initializer loads, for k
        values, with headroom above the peaks of the canonical runs."""
        return 8 * self.threshold * (len(self.instance.values) + 1)


def _np_init_commands(n: int, k: int) -> list[Command]:
    # Weakly build `threshold` in e (times k+1 in f) bit by bit, with x, x'
    # as the doubling scratch pair and y shadowing x; then verify exactness
    # with the (i+1)/i cascade and the joint x/y drain.  The oldest bit is
    # handled by the initial increments, so the bit loop covers m-1 .. 0.
    threshold = divisibility_threshold(n)
    m = threshold.bit_length() - 1
    cmds: list[Command] = [
        Init(),
        Add("x", Lit(1)),
        Add("y", Lit(1)),
        Add("e", Lit(1)),
        Add("f", Lit(k + 1)),
    ]
    if m >= 1:
        cmds.append(
            For(
                "i", Lit(m - 1), Lit(0), True,
                (
                    Loop(
                        (
                            Sub("x", Lit(1)),
                            Add("x'", Lit(1)),
                            Sub("y", Lit(1)),
                            Sub("e", Lit(1)),
                            Sub("f", Lit(k + 1)),
                        )
                    ),
                    Loop(
                        (
                            Add("x", Lit(2)),
                            Sub("x'", Lit(1)),
                            Add("y", Lit(2)),
                            Add("e", Lit(2)),
                            Add("f", Lit(2 * (k + 1))),
                        )
                    ),
                    If(
                        BitTest(Lit(threshold), Var("i"), 1),
                        (Add("x", Lit(1)), Add("y", Lit(1)), Add("e", Lit(1)), Add("f", Lit(k + 1))),
                    ),
                ),
            )
        )
    # Positivity guard: a run may flash x/y/e/f jointly to zero during a
    # 0-bit stage and then coast to the halt with every tested counter at
    # zero, never touching u.  Requiring y >= 1 here kills that run; since
    # x = y = e throughout the bit phase, the verified value is then a
    # positive multiple of the threshold, hence exactly the threshold.
    cmds.append(Sub("y", Lit(1)))
    cmds.append(Add("y", Lit(1)))
    cmds.extend(_cascade(n))
    return cmds


def gen_np_init(n: int, k: int) -> CounterProgram:
    """The initializer as a standalone program (halt testing y): its unique
    halting run leaves e = divisibility_threshold(n), f = (k+1) * e, and
    zeroes in x, x', y, z."""
    if n < 1 or k < 0:
        raise ValueError("gen_np_init needs n >= 1 and k >= 0")
    body = _np_init_commands(n, k) + [Halt(("y",))]
    return CounterProgram(("x", "x'", "y", "z", "e", "f"), tuple(body))


def _np_component(a: int, active: bool, positive: bool, threshold: int) -> list[Command]:
    # One budgeted adder: v (reusing x) is weakly doubled m times while e/f
    # meter the work against the threshold; u gains or loses `a` in total
    # when every loop is iterated maximally.  v' reuses x', e' reuses z.
    m = threshold.bit_length() - 1
    if not 1 <= a < 2 ** (m + 1):
        raise ValueError(f"component amount {a} needs 1 <= a < 2^{m + 1}")
    u_update = Add("u", Lit(1)) if positive else Sub("u", Lit(1))
    flash_body: list[Command] = [
        Sub("x", Lit(1)),
        Add("x'", Lit(1)),
        If(BitTest(Lit(threshold), Var("j"), 1), (Sub("e", Lit(1)), Add("z", Lit(1)), Sub("f", Lit(1)))),
    ]
    if active:
        flash_body.append(If(BitTest(Lit(a), Var("j"), 1), (u_update,)))
    cmds: list[Command] = [Add("x", Lit(1))]
    if m >= 1:
        cmds.append(
            For(
                "j", Lit(0), Lit(m - 1), False,
                (
                    Loop(tuple(flash_body)),
                    Loop((Add("x", Lit(2)), Sub("x'", Lit(1)))),
                ),
            )
        )
    final_body: list[Command] = [
        Sub("x", Lit(1)),
        Sub("e", Lit(1)),
        Add("z", Lit(1)),
        Sub("f", Lit(1)),
    ]
    if active and (a >> m) & 1:
        final_body.append(u_update)
    cmds.append(Loop(tuple(final_body)))
    cmds.append(Loop((Add("e", Lit(1)), Sub("z", Lit(1)))))
    return cmds


NP_COUNTERS = ("x", "x'", "y", "z", "e", "f", "u")


def gen_np(inst: NpInstance) -> tuple[CounterProgram, NpMeta]:
    """Reduction from Subset Sum to reachability of a flat seven-counter
    program: the initializer computes the work budget, a `load` component
    raises u by the target, and one `take<i>`/`skip<i>` component pair per
    value either removes value i from u or leaves it; halt tests y, u, f."""
    k = len(inst.values)
    threshold = inst.threshold

    body: list[Command] = _np_init_commands(inst.n, k)
    components: list[ComponentInfo] = []

    def emit_component(label: str, a: int, active: bool, positive: bool):
        cmds = _np_component(a, active, positive, threshold)
        body.append(Labeled(label, cmds[0]))
        body.extend(cmds[1:])
        components.append(ComponentInfo(label, a, active))

    emit_component("load", inst.target, True, True)
    body.append(Goto("skip1", "take1"))
    for i, s in enumerate(inst.values, start=1):
        for prefix, active in (("skip", False), ("take", True)):
            emit_component(f"{prefix}{i}", s, active, False)
            if i < k:
                body.append(Goto(f"skip{i + 1}", f"take{i + 1}"))
            elif prefix == "skip":
                body.append(Goto("end", "end"))
    body.append(Labeled("end", Halt(("y", "u", "f"))))

    program = CounterProgram(NP_COUNTERS, tuple(body))
    meta = NpMeta(inst, threshold, tuple(components))
    return program, meta


# ---------------------------------------------------------------------------
# Canonical (maximal-iteration) schedules


def _drain_policy(flat: FlatProgram) -> tuple[dict[int, LoopPolicy], list[int]]:
    """Default maximal-iteration policy: each loop exits when the counter its
    body decrements first (at top nesting level) reaches zero.  Also returns
    the entries of the loops whose bodies only increment (pump loops), which
    get no entry; callers supply those."""
    policy: dict[int, LoopPolicy] = {}
    for span in flat.loops:
        inner = [o for o in flat.loops if span.entry < o.entry and o.back < span.back]
        nested = {ln for o in inner for ln in range(o.entry, o.back + 1)}
        top = [flat.line(ln) for ln in range(span.body_start, span.back) if ln not in nested]
        sub = next((cmd for cmd in top if isinstance(cmd, Sub)), None)
        if sub is not None:
            policy[span.entry] = DrainLoop(sub.counter)
    return policy, [s.entry for s in flat.loops if s.entry not in policy]


def exp_canonical_policy(flat: FlatProgram, pump_value: int) -> dict[int, LoopPolicy]:
    """Maximal iteration for gen_exp (pump to x = y = pump_value) and
    gen_double_exp (pump to t = x = pump_value), then drain: every loop
    drains its decremented counter except the single pump loop, which has
    an increment-only body and iterates pump_value - 1 times."""
    if pump_value < 1:
        raise ValueError("pump_value must be >= 1")
    policy, undrained = _drain_policy(flat)
    if len(undrained) != 1:
        raise PolicyStuckError(f"expected exactly one pump loop, found entries {undrained}")
    policy[undrained[0]] = CountedLoop(pump_value - 1)
    return policy


double_exp_canonical_policy = exp_canonical_policy


def maximal_policy(flat: FlatProgram) -> dict[int, LoopPolicy]:
    """Maximal iteration for programs whose loops all drain some counter
    (weak, weak_mult, hp, gen_exp_fixed, gen_np_init)."""
    policy, undrained = _drain_policy(flat)
    if undrained:
        raise PolicyStuckError(f"loops at lines {undrained} have no draining counter")
    return policy


def np_canonical_policy(flat: FlatProgram, chosen: set[int]) -> dict[int, LoopPolicy]:
    """Maximal iteration for gen_np, taking component i exactly when i is in
    `chosen` (1-based positions into the instance's value list).  Each
    choice goto jumps to skip<i>/take<i>; there is one per predecessor
    component, so branches are resolved by target label, not position."""
    policy = maximal_policy(flat)
    entries = {s.entry for s in flat.loops}
    line_label = {line: label for label, line in flat.labels.items()}
    for ln, cmd in enumerate(flat.lines, start=1):
        if not isinstance(cmd, Goto) or cmd.first == cmd.second or ln in entries:
            continue
        take_label = line_label.get(cmd.second, "")
        if not take_label.startswith("take"):
            raise PolicyStuckError(f"line {ln}: choice goto does not target a take label")
        policy[ln] = TakeBranch(second=(int(take_label[4:]) in chosen))
    return policy
