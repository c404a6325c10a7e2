import importlib
import itertools
import math
import random
import re
import time
from collections import Counter, deque
from dataclasses import replace

import pytest

from vasskit.arith import divisibility_threshold
from vasskit.compiler import compile_counter_program
from vasskit.errors import BudgetExceededError, ConfigCycleError, PolicyStuckError
from vasskit.families import (
    NpInstance,
    exp_canonical_policy,
    gen_exp,
    gen_exp_fixed,
    gen_hp,
    gen_np,
    gen_weak,
    gen_weak_mult,
    maximal_policy,
    np_canonical_policy,
    subset_sum_witness,
    with_initial_values,
)
from vasskit.lang import Add, Goto, Halt, Sub, parse
from vasskit.search import (
    CountedLoop,
    DrainLoop,
    LoopObservation,
    RunProbe,
    SearchBudget,
    SearchStats,
    ReachResult,
    TakeBranch,
    Verdict,
    count_halting_runs,
    final_vectors,
    halting_reachable,
    reachable_configs,
    replay_canonical,
    shortest_halting,
    _explore,
    _Packed,
    _Replay,
)
from vasskit.vass import (
    Configuration, Run, RunReport, Transition, Vass, is_flat, validate_run,
)

search_module = importlib.import_module("vasskit.search")


def iddfs_shortest(v, bound, max_len):
    """Iterative-deepening oracle for shortest halting run length."""
    index = {s: i for i, s in enumerate(v.states)}
    adj = {}
    for t in v.transitions:
        adj.setdefault(t.src, []).append(t)

    def dfs(cfg, depth):
        if cfg == v.target:
            return True
        if depth == 0:
            return False
        for t in adj.get(cfg.state, []):
            vec = tuple(a + b for a, b in zip(cfg.vector, t.delta))
            if any(x < 0 or x > bound for x in vec):
                continue
            if dfs(Configuration(t.dst, vec), depth - 1):
                return True
        return False

    for limit in range(max_len + 1):
        if dfs(v.source, limit):
            return limit
    return None


class TestShortestHalting:
    def test_source_equals_target(self):
        v = Vass(1, ("p",), (), Configuration("p", (0,)), Configuration("p", (0,)))
        res = shortest_halting(v, SearchBudget(5))
        assert res.verdict == Verdict.FOUND and len(res.run) == 0

    def test_nonmultiple_pump_exhausts(self):
        compiled = compile_counter_program(gen_exp_fixed(2, 3))
        res = shortest_halting(compiled.vass, SearchBudget(20))
        assert res.verdict == Verdict.EXHAUSTED

    def test_multiple_pump_found_and_matches_canonical(self):
        compiled = compile_counter_program(gen_exp_fixed(2, 2))
        res = shortest_halting(compiled.vass, SearchBudget(20))
        assert res.verdict == Verdict.FOUND
        out = replay_canonical(compiled, maximal_policy(compiled.program))
        assert out.halting
        assert len(res.run) == out.probe.length
        report = validate_run(compiled.vass, res.run)
        assert report.ok and report.halting

    def test_found_run_validates_and_serializes(self):
        compiled = compile_counter_program(gen_exp_fixed(1, 2))
        v = compiled.vass
        res = shortest_halting(v, SearchBudget(12))
        assert res.verdict == Verdict.FOUND
        obj = res.to_json_obj(v)
        again = Run(v.source, tuple(v.transitions[i] for i in obj["run"]["steps"]))
        assert again == res.run
        assert validate_run(v, again).halting

    def test_budget_exceeded(self):
        compiled = compile_counter_program(gen_exp(2))
        res = shortest_halting(compiled.vass, SearchBudget(50, max_configs=10))
        assert res.verdict == Verdict.BUDGET_EXCEEDED

    def test_max_depth_cuts_off(self):
        compiled = compile_counter_program(gen_exp_fixed(2, 2))
        full = shortest_halting(compiled.vass, SearchBudget(20))
        res = shortest_halting(compiled.vass, SearchBudget(20), max_depth=len(full.run) // 2)
        assert res.verdict == Verdict.BUDGET_EXCEEDED

    @pytest.mark.parametrize(
        "args, message",
        [((-1,), "counter_bound must be >= 0"), ((0, 0), "max_configs must be >= 1")],
    )
    def test_budget_rejects_bad_values(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SearchBudget(*args)

    def test_target_met_past_the_bucket_rebuilds_through_unexpanded_keys(self):
        # s -> d -> b -> t is three one-step moves; s -> u -> c -> t a
        # two-step chain and one move.  c joins bucket 2 ahead of b, so c's
        # move meets t one step past it and the search stops with b
        # unexpanded, though b, on the least run, has a tight move to t too.
        # s -> a comes first, but a's chain a -> y -> b is one step too long
        ts = [("s", "a"), ("s", "d"), ("s", "u"), ("u", "c"), ("a", "y"), ("a", "z"),
              ("y", "b"), ("d", "b"), ("d", "z"), ("b", "t"), ("b", "z"), ("c", "t"), ("c", "z")]
        v = Vass(1, ("s", "a", "d", "u", "y", "b", "c", "t", "z"),
                 tuple(Transition(src, (0,), dst) for src, dst in ts),
                 Configuration("s", (0,)), Configuration("t", (0,)))
        res = shortest_halting(v, SearchBudget(1))
        assert res.stats == SearchStats(4, 2, 3)  # s, a, d and c expanded
        assert [(t.src, t.dst) for t in res.run.steps] == [("s", "d"), ("d", "b"), ("b", "t")]
        assert res.run == per_transition_shortest(v, SearchBudget(1))[1]

    def test_negative_max_depth_rejected(self):
        compiled = compile_counter_program(gen_exp_fixed(1, 1))
        with pytest.raises(ValueError, match="max_depth must be >= 0"):
            shortest_halting(compiled.vass, SearchBudget(10), max_depth=-1)
        # checked before the source-above-bound early return
        v = Vass(1, ("p",), (), Configuration("p", (3,)), Configuration("p", (0,)))
        with pytest.raises(ValueError, match="max_depth must be >= 0"):
            shortest_halting(v, SearchBudget(2), max_depth=-1)

    def test_determinism_including_stats(self):
        compiled = compile_counter_program(gen_exp(2))
        budget = SearchBudget(12, 500_000)
        a = shortest_halting(compiled.vass, budget)
        b = shortest_halting(compiled.vass, budget)
        assert a == b

    def test_bfs_minimal_against_iddfs(self):
        corpus = [
            (compile_counter_program(gen_exp_fixed(1, 1)).vass, 8),
            (compile_counter_program(gen_exp_fixed(1, 2)).vass, 10),
            (compile_counter_program(gen_exp_fixed(2, 2)).vass, 16),
            (compile_counter_program(parse("counters x\ninit\nx += 1\nx -= 1\nhalt x\n")).vass, 4),
        ]
        for v, bound in corpus:
            res = shortest_halting(v, SearchBudget(bound))
            want = iddfs_shortest(v, bound, max_len=70)
            if res.verdict == Verdict.FOUND:
                assert len(res.run) == want
            else:
                assert want is None

    @staticmethod
    def graph(edges):
        """A 1-counter VASS with a zero-effect transition along each edge,
        from s to m, both at counter 0; the edges of a state come in the
        order of their end states' names."""
        states = tuple({x for edge in edges for x in edge})
        ts = tuple(Transition(a, (0,), b) for a, b in edges)
        return Vass(1, states, ts, Configuration("s", (0,)), Configuration("m", (0,)))

    @staticmethod
    def edges(run):
        return [(t.src, t.dst) for t in run.steps]

    def test_closer_reach_after_a_long_chain(self):
        # the chain s -> c1 -> ... -> m queues m at distance 6 first; b, a
        # branch, then reaches m at distance 2
        long = [("s", "c1"), ("c1", "c2"), ("c2", "c3"), ("c3", "c4"), ("c4", "c5"), ("c5", "m")]
        v = self.graph(long + [("s", "b"), ("b", "m"), ("b", "z")])
        budget = SearchBudget(1)
        res = shortest_halting(v, budget)
        assert self.edges(res.run) == [("s", "b"), ("b", "m")]
        assert res.run == ref_shortest(v, budget)[1]
        assert res.stats == SearchStats(2, 1, 2)
        # with no halting run, the depth cap drops m at distance 6 but
        # stores it at 2, so every configuration is stored
        dead = replace(v, target=Configuration("m", (1,)))
        assert shortest_halting(dead, budget) == ReachResult(
            Verdict.EXHAUSTED, None, SearchStats(3, 1, 2)
        )
        assert shortest_halting(dead, budget, max_depth=5) == shortest_halting(dead, budget)
        assert shortest_halting(dead, budget, max_depth=1) == ReachResult(
            Verdict.BUDGET_EXCEEDED, None, SearchStats(2, 1, 1)
        )

    def test_equal_length_runs_take_the_least_first_chain(self):
        # s -> a -> u -> m and s -> p -> q -> m both take 3 steps; the first
        # starts with the lesser transition, though the search queues m
        # through the second chain, and never again at the same distance
        v = self.graph([("s", "a"), ("s", "p"), ("a", "u"), ("a", "z"), ("u", "m"),
                        ("p", "q"), ("q", "m")])
        budget = SearchBudget(1)
        res = shortest_halting(v, budget)
        assert self.edges(res.run) == [("s", "a"), ("a", "u"), ("u", "m")]
        assert res.run == ref_shortest(v, budget)[1] == per_transition_shortest(v, budget)[1]
        assert res.stats == SearchStats(2, 1, 3)

    def test_least_run_through_a_key_left_unexpanded(self):
        # k1 (through the chain s -> c1 -> c2) and k2 (through a -> x) share
        # the bucket at distance 3, k1 first; expanding k1 meets m one step
        # on, which ends the search before k2 is expanded, but the least run
        # goes through k2
        v = self.graph([("s", "a"), ("s", "c1"), ("c1", "c2"), ("c2", "k1"), ("a", "x"),
                        ("a", "y"), ("x", "k2"), ("k1", "m"), ("k1", "z"), ("k2", "m"),
                        ("k2", "z")])
        budget = SearchBudget(1)
        res = shortest_halting(v, budget)
        assert self.edges(res.run) == [("s", "a"), ("a", "x"), ("x", "k2"), ("k2", "m")]
        assert res.run == ref_shortest(v, budget)[1]
        assert res.stats == SearchStats(3, 2, 4)

    def test_halting_reachable_agrees(self):
        for program in (gen_exp_fixed(2, 2), gen_exp_fixed(2, 3), gen_exp_fixed(3, 4)):
            v = compile_counter_program(program).vass
            budget = SearchBudget(25)
            a, b = halting_reachable(v, budget), shortest_halting(v, budget)
            assert a.verdict == b.verdict
            if a.verdict != Verdict.FOUND:
                # it stores only the configurations at chain ends
                assert a.stats.expanded <= stored_configs(v, budget)


class TestFinalValues:
    def test_unknown_state_is_named(self):
        v = compile_counter_program(gen_exp_fixed(1, 1)).vass
        with pytest.raises(ValueError, match="'nowhere' is not a state"):
            final_vectors(v, SearchBudget(3), at_state="nowhere")

    def test_unknown_absorbing_state_is_named(self):
        # a misspelt halt state must not silently let its drains be collected
        v = Vass(1, ("p", "q"), (Transition("p", (1,), "q"),),
                 Configuration("p", (0,)), Configuration("q", (1,)))
        assert reachable_configs(v, SearchBudget(3), frozenset({"q"})) == {
            "p": {(0,)}, "q": {(1,)}
        }
        for source in ((0,), (4,)):  # named even when the source is above the bound
            w = replace(v, source=Configuration("p", source))
            with pytest.raises(ValueError, match="'nowhere' is not a state"):
                reachable_configs(w, SearchBudget(3), frozenset({"q", "nowhere"}))

    def test_weak_values(self):
        for b, want_max in ((1, 1), (2, 2)):
            compiled = compile_counter_program(gen_weak(b))
            values = {
                vec[0]
                for vec in final_vectors(
                    compiled.vass, SearchBudget(2 * b + 2), at_state=compiled.halt_state
                )
            }
            assert max(values) == want_max
            assert all(v <= want_max for v in values)

    def test_weak_range(self):
        for b in range(3, 11):
            compiled = compile_counter_program(gen_weak(b))
            values = {
                vec[0]
                for vec in final_vectors(
                    compiled.vass, SearchBudget(2 * b, 2_000_000), at_state=compiled.halt_state
                )
            }
            assert max(values) == b


class TestCountHaltingRuns:
    def test_exp_counts(self):
        cases = [
            (gen_exp_fixed(1, 1), 10, 1),
            (gen_exp_fixed(2, 3), 20, 0),
            (gen_exp_fixed(2, 2), 20, 1),
        ]
        for program, bound, want in cases:
            v = compile_counter_program(program).vass
            assert count_halting_runs(v, SearchBudget(bound)) == want

    def test_branching_counts_paths(self):
        # two distinct paths to the halt state
        text = (
            "counters x\n"
            "1: init\n"
            "2: goto 3 or 4\n"
            "3: goto 5 or 5\n"
            "4: goto 5 or 5\n"
            "5: halt x\n"
        )
        v = compile_counter_program(parse(text)).vass
        assert count_halting_runs(v, SearchBudget(3)) == 2

    def test_cycle_detected(self):
        # a zero-effect control cycle that can still reach the target
        text = (
            "counters x\n"
            "1: init\n"
            "2: goto 2 or 3\n"
            "3: halt x\n"
        )
        v = compile_counter_program(parse(text)).vass
        with pytest.raises(ConfigCycleError):
            count_halting_runs(v, SearchBudget(3))


def _canonical(name):
    if name == "exp(3)":
        compiled = compile_counter_program(gen_exp(3))
        return compiled, exp_canonical_policy(compiled.program, divisibility_threshold(3))
    if name == "weak(3)":
        compiled = compile_counter_program(gen_weak(3))
    elif name == "hp(3,2)":
        compiled = compile_counter_program(with_initial_values(gen_hp(3, 2), {"x": 4, "z": 2}))
    else:  # NP(3;{1,2}), taking both values
        compiled = compile_counter_program(gen_np(NpInstance(3, (1, 2)))[0])
        return compiled, np_canonical_policy(compiled.program, {1, 2})
    return compiled, maximal_policy(compiled.program)


CANONICAL = ["exp(3)", "weak(3)", "hp(3,2)", "NP(3;{1,2})"]


def per_step_replay(compiled, policy):
    """Reference for a materialized replay that shares no code with it: walk
    the flat program one line at a time, enter loops one iteration at a
    time and emit a fresh `Transition` per step.  Returns the steps, the
    probe (per loop, its activations and its last activation's count and
    exit), the final configuration and whether it is the target."""
    flat, vass = compiled.program, compiled.vass
    n, counters = len(flat.lines), flat.counters
    spans = {s.entry: s for s in flat.loops}
    vec, peak, steps = [0] * len(counters), [0] * len(counters), []
    observed, running, left = {}, {}, {}

    def state(line):
        return compiled.line_states[line - 1] if line <= n else compiled.halt_state

    def step(src, dst, counter=None, amount=0):
        delta = [0] * len(counters)
        if counter is not None:
            i = counters.index(counter)
            delta[i] = amount
            vec[i] += amount
            assert vec[i] >= 0
            peak[i] = max(peak[i], vec[i])
        steps.append(Transition(src, tuple(delta), dst))

    pc = 1
    while pc <= n and not isinstance(flat.line(pc), Halt):
        cmd = flat.line(pc)
        nxt = pc + 1
        if pc in spans:
            pol = policy[pc]
            if isinstance(pol, DrainLoop):
                again = vec[counters.index(pol.counter)] > 0
            else:
                again = left.setdefault(pc, pol.iterations) > 0
                left[pc] -= 1
            if again:
                running[pc] = running.get(pc, 0) + 1
                nxt = spans[pc].body_start
            else:
                left.pop(pc, None)
                activations = observed[pc][0] if pc in observed else 0
                observed[pc] = (activations + 1, running.pop(pc, 0), tuple(vec))
                nxt = spans[pc].exit
        elif isinstance(cmd, Goto):
            nxt = cmd.second if cmd.first != cmd.second and policy[pc].second else cmd.first
        if isinstance(cmd, (Add, Sub)):
            step(state(pc), state(nxt), cmd.counter, cmd.amount if isinstance(cmd, Add) else -cmd.amount)
        else:
            step(state(pc), state(nxt))
        pc = nxt
    here = state(pc)
    if pc <= n:  # halt completion: drain each untested counter in turn
        chain = compiled.drain_chain
        for ix, (at, counter) in enumerate(chain):
            while vec[counters.index(counter)] > 0:
                step(at, at, counter, -1)
            if ix + 1 < len(chain):
                here = chain[ix + 1][0]
                step(at, here)
    loops = {e: LoopObservation(e, (it,), (ex,), k) for e, (k, it, ex) in sorted(observed.items())}
    final = Configuration(here, tuple(vec))
    return steps, RunProbe(loops, tuple(peak), len(steps)), final, final == vass.target


class TestReplay:
    def test_weak_mult_probes(self):
        prog = with_initial_values(gen_weak_mult(3, 2), {"x": 4})
        compiled = compile_counter_program(prog)
        out = replay_canonical(compiled, maximal_policy(compiled.program))
        by_name = dict(zip(compiled.program.counters, out.final.vector))
        assert by_name == {"x": 6, "y": 0}
        # flash-loop exit: x' = 0 (x fully moved to y)
        flash_entry = compiled.program.loops[0].entry
        exit_vec = out.probe.loops[flash_entry].exit_vectors[0]
        assert exit_vec[0] == 0

    def test_hp_probes(self):
        prog = with_initial_values(gen_hp(3, 2), {"x": 4, "z": 2})
        compiled = compile_counter_program(prog)
        out = replay_canonical(compiled, maximal_policy(compiled.program))
        assert out.final.vector == (9, 0, 0)
        # outer loop ran twice
        outer = compiled.program.loops[0]
        assert out.probe.loops[outer.entry].iterations == (2,)

    def test_exp_probes_chain(self):
        # x values at each cascade exit follow pump * (n+1) / i
        n, pump = 2, divisibility_threshold(2)
        compiled = compile_counter_program(gen_exp(n))
        out = replay_canonical(compiled, exp_canonical_policy(compiled.program, pump))
        assert out.halting
        loops = compiled.program.loops
        # loops: pump, then (flash, rebuild) per stage, then the final drain
        rebuild_exits = [out.probe.loops[loops[2 * j + 2].entry].exit_vectors[0] for j in range(n)]
        xs = [vec[0] for vec in rebuild_exits]
        assert xs == [pump * (n + 1) // i for i in range(n, 0, -1)] == [3, 6]

    def test_run_matches_probe_length_and_validates(self):
        compiled = compile_counter_program(gen_exp_fixed(2, 2))
        out = replay_canonical(compiled, maximal_policy(compiled.program))
        assert len(out.run) == out.probe.length
        report = validate_run(compiled.vass, out.run)
        assert report.ok and report.halting
        assert out.run.final == compiled.vass.target

    @pytest.mark.parametrize("name", CANONICAL)
    def test_unmaterialized_matches_materialized(self, name):
        compiled, policy = _canonical(name)
        a = replay_canonical(compiled, policy, materialize=True)
        b = replay_canonical(compiled, policy, materialize=False)
        assert b.run is None
        assert (a.probe, a.final, a.halting) == (b.probe, b.final, b.halting)
        assert a.probe.length == len(a.run)

    def test_policy_stuck_on_bad_divisibility(self):
        # drain of x by 2 per iteration cannot land on zero from x = 3
        prog = parse("counters x\ninit\nx += 3\nloop\n  x -= 2\nendloop\nhalt x\n")
        compiled = compile_counter_program(prog)
        with pytest.raises(PolicyStuckError):
            replay_canonical(compiled, maximal_policy(compiled.program))

    def test_missing_policy(self):
        compiled = compile_counter_program(gen_exp(1))
        entry = compiled.program.loops[0].entry
        with pytest.raises(PolicyStuckError, match=f"^line {entry}: no policy for loop$"):
            replay_canonical(compiled, {})

    @pytest.mark.parametrize(
        "body, policy, message",
        [
            ("lbl: goto lbl or out\n", {}, "line 2: no branch policy for goto"),
            ("loop\n  x -= 1\nendloop\n", {2: TakeBranch(True)},
             r"line 2: policy TakeBranch\(second=True\) does not fit a loop"),
            # a straight-line body that never decreases the drained counter
            ("loop\n  x += 1\nendloop\n", {2: DrainLoop("x")}, "loop at line 2 does not decrease 'x'"),
        ],
    )
    def test_policy_that_does_not_fit_the_line(self, body, policy, message):
        compiled = compile_counter_program(parse(f"counters x\ninit\n{body}out: halt x\n"))
        with pytest.raises(PolicyStuckError, match=f"^{message}$"):
            replay_canonical(compiled, policy)

    def test_counted_loop_fast_forward_counts_steps(self):
        prog = parse("counters x\ninit\nloop\n  x += 1\nendloop\nhalt\n")
        compiled = compile_counter_program(prog)
        entry = compiled.program.loops[0].entry
        out = replay_canonical(compiled, {entry: CountedLoop(5)})
        # init + 5 * (enter + body + back) + exit + final drain of x (5 steps)
        assert out.probe.length == 1 + 5 * 3 + 1 + 5
        assert out.halting  # halt tests nothing; completion drains x
        assert validate_run(compiled.vass, out.run).halting

    @pytest.mark.parametrize("iterations", [-1, 2.0, "3"])
    def test_counted_loop_rejects_bad_iterations(self, iterations):
        with pytest.raises(ValueError, match="^iterations must be an int >= 0$"):
            CountedLoop(iterations)

    @pytest.mark.parametrize("pump", [0, -2])
    def test_exp_policy_rejects_pump_below_1(self, pump):
        # pump 0 would ask the pump loop for -1 iterations
        compiled = compile_counter_program(gen_exp(1))
        with pytest.raises(ValueError, match="^pump_value must be >= 1$"):
            exp_canonical_policy(compiled.program, pump)

    def test_probe_peak_tracks_maxima(self):
        compiled = compile_counter_program(gen_exp_fixed(2, 2))
        out = replay_canonical(compiled, maximal_policy(compiled.program))
        explicit_peak = [0] * compiled.vass.dimension
        for cfg in out.run.configurations():
            for i, value in enumerate(cfg.vector):
                explicit_peak[i] = max(explicit_peak[i], value)
        assert tuple(explicit_peak) == out.probe.peak

    def test_counted_outer_loop_with_nested_body(self):
        # counted loops with non-straight-line bodies walk stepwise
        text = (
            "counters x y\n"
            "init\n"
            "x += 4\n"
            "loop\n"
            "  loop\n"
            "    x -= 2\n"
            "    y += 2\n"
            "  endloop\n"
            "endloop\n"
            "halt x\n"
        )
        compiled = compile_counter_program(parse(text))
        outer, inner = compiled.program.loops[0], compiled.program.loops[1]
        assert outer.entry < inner.entry < outer.back
        from vasskit.search import DrainLoop

        out = replay_canonical(
            compiled, {outer.entry: CountedLoop(1), inner.entry: DrainLoop("x")}
        )
        assert out.halting
        assert out.final.vector == (0, 0)  # y drained by halt completion
        assert out.probe.loops[outer.entry].iterations == (1,)
        assert out.probe.loops[inner.entry].iterations == (2,)

    def test_stuck_stepwise_loop_raises_at_once(self):
        # the body leaves x unchanged, so draining x never ends
        text = "counters x y\ninit\nx += 1\nloop\n  y += 1\n  y -= 1\nendloop\nhalt x\n"
        compiled = compile_counter_program(parse(text))
        entry = compiled.program.loops[0].entry
        start = time.perf_counter()
        with pytest.raises(PolicyStuckError, match=f"loop at line {entry}: replay does not terminate"):
            replay_canonical(compiled, {entry: DrainLoop("x")})
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("materialize", [True, False])
    @pytest.mark.parametrize(
        "body, policy, where",
        [
            ("lbl: goto lbl or lbl\n", {}, "line 2"),
            ("lbl: goto lbl or out\n", {2: TakeBranch(False)}, "line 2"),
            # a straight-line loop whose entry a later goto reaches again
            ("lbl: loop\n  x -= 1\nendloop\ngoto lbl or lbl\n", {2: DrainLoop("x")}, "loop at line 2"),
        ],
    )
    def test_goto_cycle_without_change_raises_at_once(self, body, policy, where, materialize):
        compiled = compile_counter_program(parse(f"counters x\ninit\n{body}out: halt x\n"))
        start = time.perf_counter()
        with pytest.raises(PolicyStuckError, match=f"^{where}: replay does not terminate"):
            replay_canonical(compiled, policy, materialize=materialize)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("materialize", [True, False])
    def test_runaway_replay_stops_at_the_visit_guard(self, materialize, monkeypatch):
        # the goto re-enters the body, so y grows and no visit repeats
        monkeypatch.setattr(search_module, "_MAX_VISITS", 20_000)
        text = "counters x y\ninit\nx += 2\nloop\n  x -= 1\n  in: y += 1\nendloop\ngoto in or in\nhalt\n"
        compiled = compile_counter_program(parse(text))
        entry = compiled.program.loops[0].entry
        start = time.perf_counter()
        with pytest.raises(PolicyStuckError, match=r"^replay did not terminate \(policy loops\)$"):
            replay_canonical(compiled, {entry: DrainLoop("x")}, materialize=materialize)
        assert time.perf_counter() - start < 5

    def test_backward_goto_that_changes_counters_runs_on(self):
        # the goto takes line 3 round with x = 2, 1, 0, then its decrement underflows
        text = "counters x\ninit\nx += 3\ntop: x -= 1\ngoto top or out\nout: halt x\n"
        compiled = compile_counter_program(parse(text))
        with pytest.raises(PolicyStuckError, match="^line 3: counter 'x' would go below zero$"):
            replay_canonical(compiled, {4: TakeBranch(False)})
        out = replay_canonical(compiled, {4: TakeBranch(True)})
        assert (out.final.vector, out.halting, out.probe.length) == ((2,), False, 4)

    @pytest.mark.parametrize("body", ["  x -= 1\n", "  x -= 1\n  x += 1\n  x -= 1\n"])
    def test_drain_of_unknown_counter_is_named(self, body):
        # straight-line and stepwise bodies alike
        compiled = compile_counter_program(parse(f"counters x\ninit\nx += 2\nloop\n{body}endloop\nhalt x\n"))
        entry = compiled.program.loops[0].entry
        with pytest.raises(PolicyStuckError, match=f"^loop at line {entry}: .*'q'"):
            replay_canonical(compiled, {entry: DrainLoop("q")})

    def test_counted_loop_with_unchanged_counters_is_not_stuck(self):
        # same counters at every entry, but the iterations left differ
        text = "counters y\ninit\nloop\n  y += 1\n  y -= 1\nendloop\nhalt y\n"
        compiled = compile_counter_program(parse(text))
        entry = compiled.program.loops[0].entry
        out = replay_canonical(compiled, {entry: CountedLoop(3)})
        assert out.halting
        assert out.probe.loops[entry].iterations == (3,)

    def test_drain_policy_inference_skips_nested_loops(self):
        compiled = compile_counter_program(gen_hp(3, 2))
        flat = compiled.program
        outer = flat.loops[0]
        policies = maximal_policy(flat)
        # the outer loop drains z (its own top-level decrement), not the
        # x/y decrements owned by the nested loops
        assert policies[outer.entry] == DrainLoop("z")

    def test_maximal_policy_needs_a_draining_counter(self):
        # exp's pump loop only increments
        flat = compile_counter_program(gen_exp(1)).program
        with pytest.raises(PolicyStuckError, match=r"^loops at lines \[4\] have no draining counter$"):
            maximal_policy(flat)

    def test_np_policy_needs_take_labels(self):
        flat = compile_counter_program(
            parse("counters x\ninit\ngoto skip1 or other\nskip1: x += 1\nother: halt x\n")
        ).program
        with pytest.raises(PolicyStuckError, match="^line 2: choice goto does not target a take label$"):
            np_canonical_policy(flat, set())

    def test_final_values_budget_error(self):
        # on chains, weak(6) at bound 12 stores 41 configurations
        compiled = compile_counter_program(gen_weak(6))
        with pytest.raises(BudgetExceededError):
            final_vectors(
                compiled.vass, SearchBudget(12, max_configs=5), at_state=compiled.halt_state
            )


class TestReplaySharesTransitions:
    @pytest.mark.parametrize("name", CANONICAL)
    def test_steps_match_per_step_reference(self, name):
        compiled, policy = _canonical(name)
        out = replay_canonical(compiled, policy)
        steps, probe, final, halting = per_step_replay(compiled, policy)
        assert list(out.run.steps) == steps
        assert (out.probe, out.final, out.halting) == (probe, final, halting)
        own = {id(t) for t in compiled.vass.transitions}
        assert all(id(t) in own for t in out.run.steps)
        reference = Run(compiled.vass.source, tuple(steps))
        assert validate_run(compiled.vass, out.run) == validate_run(compiled.vass, reference)

    @pytest.mark.parametrize("name", CANONICAL)
    def test_step_missing_from_vass_is_emitted_and_rejected(self, name):
        # mutation control: replay must not borrow validity from the VASS
        compiled, policy = _canonical(name)
        steps = replay_canonical(compiled, policy).run.steps
        for gone in (steps[len(steps) // 2], steps[-1]):
            v = compiled.vass
            kept = tuple(t for t in v.transitions if t is not gone)
            crippled = replace(compiled, vass=Vass(v.dimension, v.states, kept, v.source, v.target))
            run = replay_canonical(crippled, policy).run
            assert run.steps == steps
            first = steps.index(gone)
            assert run.steps[first] == gone and run.steps[first] is not gone
            assert validate_run(crippled.vass, run) == RunReport(
                False, first, False, f"step {first} uses a transition not in the VASS"
            )


# Straight-line loops, one per fast-forward rule; each policy is keyed by the
# loop's index in `flat.loops`.
FAST_FORWARDS = {
    # drain by 1, with +-1 and non-unit amounts on the other counters
    "drain by 1": (
        "x += 3\nz += 7\nloop\n  y += 1\n  x -= 1\n  z -= 2\n  w += 3\nendloop\n",
        {0: DrainLoop("x")},
    ),
    # drain by 3, with +-1 and non-unit amounts on the other counters
    "drain by 3": (
        "x += 6\nz += 3\nloop\n  w += 2\n  x -= 3\n  y += 1\n  z -= 1\nendloop\n",
        {0: DrainLoop("x")},
    ),
    # the counted loop decrements x by 1 but stops before x is 0
    "counted, decrement 1": (
        "x += 5\nloop\n  x -= 1\n  y += 2\nendloop\n",
        {0: CountedLoop(3)},
    ),
    # drains by 1 and by 2 from 0 run no iteration
    "drain from 0": (
        "loop\n  x -= 1\n  y += 1\nendloop\nloop\n  y -= 2\n  x += 1\nendloop\n",
        {0: DrainLoop("x"), 1: DrainLoop("y")},
    ),
    # a drain activated three times by a stepwise counted outer loop, next
    # to a second fast-forward of another body length
    "repeated activations": (
        "loop\n  x += 2\n  loop\n    x -= 1\n    y += 3\n  endloop\nendloop\n"
        "loop\n  y -= 2\n  w += 1\n  z += 1\nendloop\n",
        {0: CountedLoop(3), 1: DrainLoop("x"), 2: DrainLoop("y")},
    ),
}


class TestFastForward:
    @staticmethod
    def _compiled(text, policy):
        compiled = compile_counter_program(parse(f"counters x y z w\ninit\n{text}halt\n"))
        loops = compiled.program.loops
        return compiled, {loops[i].entry: pol for i, pol in policy.items()}

    @pytest.mark.parametrize("materialize", [True, False])
    @pytest.mark.parametrize("name", FAST_FORWARDS)
    def test_matches_per_step_reference(self, name, materialize):
        compiled, policy = self._compiled(*FAST_FORWARDS[name])
        bodies = _Replay(compiled, policy, materialize).bodies
        assert any(bodies[entry] is not None for entry in policy)  # a fast path runs
        out = replay_canonical(compiled, policy, materialize=materialize)
        steps, probe, final, halting = per_step_replay(compiled, policy)
        assert (out.probe, out.final, out.halting) == (probe, final, halting)
        assert halting
        if materialize:
            # every step, so every intermediate exit, matches the reference
            assert list(out.run.steps) == steps
        else:
            # both modes walk alike, so they observe the same probe
            assert out.run is None
            assert out.probe == replay_canonical(compiled, policy).probe

    @pytest.mark.parametrize("materialize", [True, False])
    @pytest.mark.parametrize(
        "text, message",
        [
            # a second counter underflows, by 1 and by more
            ("x += 4\nz += 3\nloop\n  x -= 1\n  z -= 1\nendloop\n", "counter 'z' underflows after 4 iterations"),
            ("x += 6\nz += 5\nloop\n  z -= 2\n  x -= 2\nendloop\n", "counter 'z' underflows after 3 iterations"),
            ("x += 5\nloop\n  x -= 2\n  y += 1\nendloop\n", "'x'=5 not divisible by per-iteration decrement 2"),
        ],
    )
    def test_stuck_drain_names_its_counter(self, text, message, materialize):
        compiled, policy = self._compiled(text, {0: DrainLoop("x")})
        entry = compiled.program.loops[0].entry
        with pytest.raises(PolicyStuckError, match=f"^loop at line {entry}: {re.escape(message)}$"):
            replay_canonical(compiled, policy, materialize=materialize)


# ---------------------------------------------------------------------------
# Packed kernels against a tuple-keyed reference


def _ref_successors(v, bound, absorbing=frozenset()):
    """Per state, (transition index, successor function) in canonical order;
    configurations are plain (state, vector) tuples."""
    adj = {s: [] for s in v.states}
    for tix, t in enumerate(v.transitions):
        if t.src not in absorbing:
            adj[t.src].append((tix, t))

    def successors(cfg):
        state, vec = cfg
        for tix, t in adj[state]:
            nvec = tuple(a + b for a, b in zip(vec, t.delta))
            if all(0 <= x <= bound for x in nvec):
                yield tix, (t.dst, nvec)

    return successors


def ref_target_caps(v, bound):
    """Per state name, None if no path leads from it to the target state,
    else one cap per counter: the bound if some transition on such a path
    decreases the counter, else min(bound, target value).  A naive fixpoint
    over the transitions: a state's decreased counters are those of every
    transition from it into a state that reaches the target state, plus
    that state's own, until nothing changes."""
    decreased = {v.target.state: frozenset()}
    changed = True
    while changed:
        changed = False
        for t in v.transitions:
            if t.dst not in decreased:
                continue
            new = decreased[t.dst].union(
                decreased.get(t.src, ()), (i for i, d in enumerate(t.delta) if d < 0)
            )
            if decreased.get(t.src) != new:
                decreased[t.src] = new
                changed = True
    return {
        s: None if s not in decreased else tuple(
            bound if i in decreased[s] else min(bound, x) for i, x in enumerate(v.target.vector)
        )
        for s in v.states
    }


def ref_caps_rule(v, bound):
    """ref_target_caps as a rule on (state, vector): whether the
    configuration lies outside its state's caps."""
    caps = ref_target_caps(v, bound)

    def dead(cfg):
        state, vec = cfg
        return caps[state] is None or any(x > c for x, c in zip(vec, caps[state]))

    return dead


def reach_from(v, state):
    """The states a path of transitions leads to from `state`, itself
    included."""
    seen = {state}
    todo = [state]
    while todo:
        here = todo.pop()
        for t in v.transitions:
            if t.src == here and t.dst not in seen:
                seen.add(t.dst)
                todo.append(t.dst)
    return seen


def ref_cycle_nets(v):
    """The net effect of each strongly connected component with a
    transition inside it: for a flat VASS, of each simple cycle."""
    reach = {state: reach_from(v, state) for state in v.states}
    nets = []
    done = set()
    for state in v.states:
        if state in done:
            continue
        comp = {other for other in reach[state] if state in reach[other]}
        done |= comp
        inside = [t.delta for t in v.transitions if t.src in comp and t.dst in comp]
        if inside:
            nets.append(tuple(map(sum, zip(*inside))) if v.dimension else ())
    return nets


def ref_most_gain(v, weight):
    """Per state with a path to the target state, the most that
    `weight(delta)` summed along such a path can be; states with no path,
    and states from which a cycle of positive weight on such a path makes
    it unbounded, are left out.  Bellman-Ford for longest paths, then as
    many rounds again to find the states that can still gain."""
    gain = {v.target.state: 0}
    for _ in range(len(v.states)):
        changed = False
        for t in reversed(v.transitions):
            if t.dst in gain:
                g = weight(t.delta) + gain[t.dst]
                if t.src not in gain or g > gain[t.src]:
                    gain[t.src] = g
                    changed = True
        if not changed:
            return gain
    unbounded = set()
    for _ in range(len(v.states)):
        for t in v.transitions:
            if t.dst in gain and (
                t.dst in unbounded or t.src not in gain or weight(t.delta) + gain[t.dst] > gain[t.src]
            ):
                unbounded.add(t.src)
    return {state: g for state, g in gain.items() if state not in unbounded}


def ref_ratio_rule(v, bound):
    """ref_caps_rule plus ratio invariants, worked out over single
    transitions and without the search module: per cycle net that lowers
    counters i and j, w = |net_j|·e_i - |net_i|·e_j over their gcd (both
    orientations), and per state the most a path from it to the target
    state raises w·v (ref_most_gain).  A configuration at a state where
    w·v plus that gain is below w·target cannot halt, whatever w is, and
    it is dropped at every state, inside chains too."""
    capped = ref_caps_rule(v, bound)
    target = v.target.vector
    rules = set()
    for net in ref_cycle_nets(v):
        for i, j in itertools.permutations([k for k, x in enumerate(net) if x < 0], 2):
            g = math.gcd(net[i], net[j])
            rules.add((i, -net[j] // g, j, -net[i] // g))
    rules = [
        (i, a, j, b, a * target[i] - b * target[j],
         ref_most_gain(v, lambda d, i=i, a=a, j=j, b=b: a * d[i] - b * d[j]))
        for i, a, j, b in sorted(rules)
    ]

    def dead(cfg):
        state, vec = cfg
        return capped(cfg) or any(
            state in gain and a * vec[i] - b * vec[j] + gain[state] < low
            for i, a, j, b, low, gain in rules
        )

    return dead


class Passing:
    """The configurations a rule keeps, as a container for ref_count."""

    def __init__(self, dead):
        self.dead = dead

    def __contains__(self, cfg):
        return not self.dead(cfg)


def ref_shortest(v, budget, max_depth=None, dead=None):
    """Deque BFS on tuple keys: (verdict, run, expanded).  `expanded` counts
    configurations whose successors were generated; the node budget is
    checked before the target test, as in shortest_halting.  With `dead` (a
    rule on (state, vector), as `ref_caps_rule` and `ref_ratio_rule` give
    them), a configuration it holds for is never stored, and such a source
    is not searched."""

    def outside(cfg):
        return dead is not None and dead(cfg)

    bound = budget.counter_bound
    src = (v.source.state, v.source.vector)
    tgt = (v.target.state, v.target.vector)
    if max(v.source.vector, default=0) > bound or outside(src):
        return Verdict.EXHAUSTED, None, 0
    if src == tgt:
        return Verdict.FOUND, Run(v.source, ()), 0
    successors = _ref_successors(v, bound)
    parents = {src: None}
    dq = deque([(src, 0)])
    expanded = 0
    suppressed = False
    while dq:
        cfg, depth = dq.popleft()
        if max_depth is not None and depth >= max_depth:
            suppressed = True
            continue
        expanded += 1
        for tix, nxt in successors(cfg):
            if nxt in parents or outside(nxt):
                continue
            if len(parents) >= budget.max_configs:
                return Verdict.BUDGET_EXCEEDED, None, expanded
            parents[nxt] = (cfg, tix)
            if nxt == tgt:
                steps = []
                while parents[nxt] is not None:
                    nxt, tix = parents[nxt]
                    steps.append(v.transitions[tix])
                return Verdict.FOUND, Run(v.source, tuple(reversed(steps))), expanded
            dq.append((nxt, depth + 1))
    return (Verdict.BUDGET_EXCEEDED if suppressed else Verdict.EXHAUSTED), None, expanded


def per_transition_shortest(v, budget):
    """The breadth-first search one transition at a time and without the
    target rule, on packed keys: (verdict, run, stats).  It finds the
    lexicographically least shortest run: each stored key less the packed
    delta of the transition that first reached it is its parent."""
    packed = _Packed(v, budget.counter_bound)
    verdict, parent, stats = _explore(packed, packed.tgt, budget.max_configs)
    if verdict != Verdict.FOUND:
        return verdict, None, stats
    steps = []
    key = packed.tgt
    while key != packed.src:
        t = v.transitions[parent[key]]
        steps.append(t)
        key -= packed.index[t.dst] - packed.index[t.src] + packed._pack(t.delta)
    return verdict, Run(v.source, tuple(reversed(steps))), stats


def ref_reachable(v, budget, absorbing=frozenset()):
    bound = budget.counter_bound
    out = {}
    if max(v.source.vector, default=0) > bound:
        return out
    successors = _ref_successors(v, bound, absorbing)
    src = (v.source.state, v.source.vector)
    visited = {src}
    dq = deque([src])
    while dq:
        cfg = dq.popleft()
        out.setdefault(cfg[0], set()).add(cfg[1])
        for _tix, nxt in successors(cfg):
            if nxt not in visited:
                if len(visited) >= budget.max_configs:
                    raise BudgetExceededError("reference budget")
                visited.add(nxt)
                dq.append(nxt)
    return out


class TestReachableConfigsDecode:
    """`reachable_configs` decodes each counter vector once and shares it
    between states; compiled gadgets, whose goto and no-op lines repeat
    their neighbours' vectors, at the benchmark's gadget-grid bounds."""

    @staticmethod
    def members():
        for x0, y0, z0 in ((1, 0, 1), (2, 1, 1), (0, 3, 2), (4, 0, 2), (3, 2, 3)):
            program = with_initial_values(gen_hp(3, 2), {"x": x0, "y": y0, "z": z0})
            bound = max((x0 + y0) * 3**z0 // 2**z0 + 3 + 2 + 1, z0)
            yield program, SearchBudget(bound, 4_000_000)
        for c, d, x0, y0 in ((2, 1, 3, 1), (2, 1, 0, 2), (5, 3, 4, 2), (5, 3, 2, 5)):
            program = with_initial_values(gen_weak_mult(c, d), {"x": x0, "y": y0})
            yield program, SearchBudget((x0 + y0) * c // d + c + d + 1, 2_000_000)
        yield gen_weak(3), SearchBudget(20, 4_000_000)

    def test_matches_tuple_reference(self):
        for program, budget in self.members():
            compiled = compile_counter_program(program)
            v = compiled.vass
            for absorbing in (frozenset(), frozenset({compiled.halt_state})):
                got = reachable_configs(v, budget, absorbing)
                assert got == ref_reachable(v, budget, absorbing)
                shared: dict[tuple[int, ...], tuple[int, ...]] = {}
                for vectors in got.values():
                    for vec in vectors:
                        assert shared.setdefault(vec, vec) is vec
                # many states hold the same vector
                assert sum(map(len, got.values())) > 2 * len(shared)

    @staticmethod
    def assert_shared(got):
        """Every state holding a vector holds the same tuple object."""
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        for vectors in got.values():
            for vec in vectors:
                assert shared.setdefault(vec, vec) is vec

    def test_single_state_and_full_reads_in_either_order(self):
        unreached_seen = 0
        for program, budget in self.members():
            compiled = compile_counter_program(program)
            v, halt = compiled.vass, compiled.halt_state
            absorbing = frozenset({halt})
            want = ref_reachable(v, budget, absorbing)
            # halt-completion drain states lie past the absorbing halt state
            unreached = set(v.states) - set(want)
            unreached_seen += len(unreached)

            single_first = reachable_configs(v, budget, absorbing)
            assert single_first[halt] == want[halt]
            assert single_first.get(halt) == single_first[halt]
            for state in unreached:
                assert single_first.get(state) is None
                with pytest.raises(KeyError):
                    single_first[state]
            assert single_first == want
            self.assert_shared(single_first)

            full_first = reachable_configs(v, budget, absorbing)
            assert dict(full_first.items()) == want
            self.assert_shared(full_first)
            assert full_first[halt] == want[halt]
            assert full_first[halt] is dict(full_first.items())[halt]
            for state in unreached:
                assert state not in full_first
                with pytest.raises(KeyError):
                    full_first[state]
        assert unreached_seen

    def test_states_in_first_seen_order(self):
        # states sort as a, b, c, d; the search from c first reaches d, then a, then b
        v = Vass(
            1,
            ("a", "b", "c", "d"),
            (
                Transition("c", (1,), "a"),
                Transition("c", (0,), "d"),
                Transition("d", (1,), "b"),
                Transition("a", (1,), "b"),
            ),
            Configuration("c", (0,)),
            Configuration("b", (0,)),
        )
        got = reachable_configs(v, SearchBudget(2))
        assert list(got) == ["c", "d", "a", "b"]
        assert list(got.items()) == [
            ("c", {(0,)}), ("d", {(0,)}), ("a", {(1,)}), ("b", {(1,), (2,)}),
        ]
        assert len(got) == 4
        self.assert_shared(got)

    def test_chain_cut_off_by_the_bound_keeps_its_prefix(self):
        # the one chain p -> q -> r -> s ends above the bound; q and r are
        # its interior, and only part of it stays within the bound
        v = Vass(1, ("p", "q", "r", "s"), (
            Transition("p", (1,), "q"), Transition("q", (1,), "r"), Transition("r", (1,), "s"),
        ), Configuration("p", (0,)), Configuration("p", (0,)))
        for bound, want in ((1, [("p", {(0,)}), ("q", {(1,)})]),
                            (2, [("p", {(0,)}), ("q", {(1,)}), ("r", {(2,)})])):
            assert reachable_configs(v, SearchBudget(bound))["q"] == {(1,)}
            got = reachable_configs(v, SearchBudget(bound))
            assert list(got.items()) == want
            assert got == ref_reachable(v, SearchBudget(bound))

    def test_single_read_of_an_interior_state(self):
        program = with_initial_values(gen_weak_mult(2, 1), {"x": 3, "y": 1})
        compiled = compile_counter_program(program)
        v, budget = compiled.vass, SearchBudget(4 * 2 + 2 + 1 + 1, 2_000_000)
        absorbing = frozenset({compiled.halt_state})
        full = dict(reachable_configs(v, budget, absorbing).items())
        assert full == ref_reachable(v, budget, absorbing)
        # states where the search stores nothing: only a full read's
        # per-transition search reaches them
        packed = _Packed(v, budget.counter_bound, absorbing, chains=True)
        stored = _explore(packed, -1, budget.max_configs)[1]
        assert set(full) - {v.states[key & packed.smask] for key in stored}
        for state in full:
            assert reachable_configs(v, budget, absorbing)[state] == full[state], state

    def test_chain_end_that_is_another_chains_interior(self):
        # the chain s -> x -> y passes through x; the later chain s -> a -> x
        # would reverse x's direction at x -> y, so x becomes a cut there
        v = Vass(1, ("a", "s", "x", "y"), (
            Transition("s", (0,), "x"), Transition("s", (1,), "a"),
            Transition("a", (1,), "x"), Transition("x", (-1,), "y"),
        ), Configuration("s", (0,)), Configuration("y", (0,)))
        budget = SearchBudget(2)
        packed = _Packed(v, budget.counter_bound, chains=True)
        stored = _explore(packed, -1, budget.max_configs)[1]
        at = {(v.states[key & packed.smask], key >> packed.sbits) for key in stored}
        # (x, 2) ends the second chain and is stored; (x, 0) lies inside the first
        assert ("x", 2) in at and ("x", 0) not in at
        assert reachable_configs(v, budget)["x"] == {(0,), (2,)}
        assert reachable_configs(v, budget) == ref_reachable(v, budget)

    def test_full_read_is_not_held_to_the_node_budget(self):
        # one chain through ten states: the search stores its two ends, and a
        # full read searches again one transition at a time, with no budget
        states = tuple(f"s{i}" for i in range(10))
        v = Vass(1, states, tuple(Transition(a, (1,), b) for a, b in zip(states, states[1:])),
                 Configuration("s0", (0,)), Configuration("s9", (9,)))
        got = reachable_configs(v, SearchBudget(20, 2))
        assert got == ref_reachable(v, SearchBudget(20))
        assert sum(map(len, got.values())) == 10
        with pytest.raises(BudgetExceededError):
            reachable_configs(v, SearchBudget(20, 1))

    def test_read_only(self):
        got = reachable_configs(
            Vass(1, ("p",), (), Configuration("p", (0,)), Configuration("p", (0,))),
            SearchBudget(1),
        )
        assert got == {"p": {(0,)}}
        assert not hasattr(got, "__setitem__")
        with pytest.raises(TypeError):
            got["p"] = set()


def ref_count(v, budget, keep=None):
    """Recursive path count with the same cycle and budget checks; with
    `keep`, over the configurations in it alone."""
    bound = budget.counter_bound
    src = (v.source.state, v.source.vector)
    if max(v.source.vector, default=0) > bound or (keep is not None and src not in keep):
        return 0
    successors = _ref_successors(v, bound)
    tgt = (v.target.state, v.target.vector)
    counts, on_stack = {}, set()

    def count(cfg):
        on_stack.add(cfg)
        acc = 1 if cfg == tgt else 0
        for _tix, nxt in successors(cfg):
            if keep is not None and nxt not in keep:
                continue
            if nxt in counts:
                acc += counts[nxt]
                continue
            if nxt in on_stack:
                raise ConfigCycleError("reference cycle")
            if len(counts) + len(on_stack) >= budget.max_configs:
                raise BudgetExceededError("reference budget")
            acc += count(nxt)
        on_stack.discard(cfg)
        counts[cfg] = acc
        return acc

    return count(src)


def ref_live_count(v, budget):
    """ref_count over the configurations that can reach the target within
    the bound, with no node budget: the bounded reachable set, closed
    backwards from the target.  A cycle among them raises ConfigCycleError,
    since through it the count is infinite."""
    bound = budget.counter_bound
    if max(v.source.vector, default=0) > bound:
        return 0
    successors = _ref_successors(v, bound)
    src = (v.source.state, v.source.vector)
    preds = {src: set()}
    todo = [src]
    while todo:
        cfg = todo.pop()
        for _tix, nxt in successors(cfg):
            if nxt not in preds:
                preds[nxt] = set()
                todo.append(nxt)
            preds[nxt].add(cfg)
    tgt = (v.target.state, v.target.vector)
    live = {tgt} & preds.keys()
    todo = list(live)
    while todo:
        for cfg in preds[todo.pop()] - live:
            live.add(cfg)
            todo.append(cfg)
    return ref_count(v, SearchBudget(bound, len(preds) + 1), live)


def ref_finals(v, budget, state):
    """final_vectors on the reference: `state` is absorbing."""
    return frozenset(ref_reachable(v, budget, frozenset({state})).get(state, set()))


def stored_configs(v, budget):
    """How many configurations an exhaustive per-transition search stores:
    reachable_configs under an ample node budget."""
    ample = replace(budget, max_configs=max(budget.max_configs, 1_000_000))
    return sum(len(vectors) for vectors in reachable_configs(v, ample).values())


def check_count(v, budget):
    """count_halting_runs against the references, as its outcome: a count
    is the live reference's, a cycle is one the full reference meets too,
    and a cut is one the full reference cannot finish under the same node
    budget either (it stores every configuration the count stores)."""
    got = _outcome(count_halting_runs, v, budget)
    if got is ConfigCycleError:
        assert _outcome(ref_count, v, replace(budget, max_configs=1_000_000)) is got
    elif got is BudgetExceededError:
        assert isinstance(_outcome(ref_count, v, budget), type)
    else:
        assert got == _outcome(ref_live_count, v, budget)
    return got


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (BudgetExceededError, ConfigCycleError) as e:
        return type(e)


def random_vass(rng):
    states = tuple(f"q{i}" for i in range(rng.randint(1, 4)))
    dim = rng.randint(0, 3)
    transitions = tuple(
        Transition(rng.choice(states), tuple(rng.randint(-3, 3) for _ in range(dim)),
                   rng.choice(states))
        for _ in range(rng.randint(0, 8))
    )
    source = Configuration(rng.choice(states), tuple(rng.randint(0, 3) for _ in range(dim)))
    target = Configuration(rng.choice(states), tuple(rng.randint(0, 4) for _ in range(dim)))
    return Vass(dim, states, transitions, source, target)


def random_dag_vass(rng):
    """Transitions only go to higher-numbered states, so the configuration
    graph is acyclic and halting paths can be counted, often several."""
    states = tuple(f"q{i}" for i in range(rng.randint(2, 6)))
    dim = rng.randint(0, 2)
    transitions = []
    for _ in range(rng.randint(1, 12)):
        i = rng.randrange(len(states) - 1)
        j = rng.randrange(i + 1, len(states))
        delta = tuple(rng.randint(-2, 2) for _ in range(dim))
        transitions.append(Transition(states[i], delta, states[j]))
    source = Configuration(states[0], tuple(rng.randint(0, 3) for _ in range(dim)))
    target = Configuration(states[-1], tuple(rng.randint(0, 3) for _ in range(dim)))
    return Vass(dim, states, tuple(transitions), source, target)


def random_flat_vass(rng):
    """A flat VASS: components in a row, each one state or one simple cycle,
    a cycle with zero net effect about a third of the time, and transitions
    between components only from earlier ones to later ones."""
    dim = rng.randint(0, 2)
    comps = [
        [f"c{c}s{i}" for i in range(rng.randint(1, 3))] for c in range(rng.randint(1, 4))
    ]
    transitions = []
    for comp in comps:
        if len(comp) == 1 and rng.random() < 0.3:
            continue  # a trivial component
        deltas = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in comp]
        if rng.random() < 0.35:
            deltas[-1] = tuple(-sum(d[i] for d in deltas[:-1]) for i in range(dim))
        for a, b, d in zip(comp, comp[1:] + comp[:1], deltas):
            transitions.append(Transition(a, d, b))
    for _ in range(rng.randint(0, 6)):
        i = rng.randrange(len(comps))
        j = rng.randrange(i, len(comps))
        if i < j:
            delta = tuple(rng.randint(-2, 2) for _ in range(dim))
            transitions.append(Transition(rng.choice(comps[i]), delta, rng.choice(comps[j])))
    states = tuple(s for comp in comps for s in comp)
    source = Configuration(rng.choice(states), tuple(rng.randint(0, 3) for _ in range(dim)))
    target = Configuration(rng.choice(states), tuple(rng.randint(0, 3) for _ in range(dim)))
    return Vass(dim, states, tuple(transitions), source, target)


def random_lowering_vass(rng):
    """A flat VASS like random_flat_vass's, but each cycle moves every
    counter one way only, so it is one deterministic chain, and it often
    lowers two counters at once: the loops that ratio invariants come
    from."""
    dim = rng.randint(2, 3)
    comps = [
        [f"c{c}s{i}" for i in range(rng.randint(1, 3))] for c in range(rng.randint(2, 4))
    ]
    transitions = []
    for comp in comps:
        signs = [rng.choice((-1, -1, 0, 1)) for _ in range(dim)]
        for a, b in zip(comp, comp[1:] + comp[:1]):
            transitions.append(Transition(a, tuple(sg * rng.randint(0, 2) for sg in signs), b))
    for _ in range(rng.randint(1, 5)):
        i = rng.randrange(len(comps) - 1)
        j = rng.randrange(i + 1, len(comps))
        delta = tuple(rng.randint(-2, 2) for _ in range(dim))
        transitions.append(Transition(rng.choice(comps[i]), delta, rng.choice(comps[j])))
    states = tuple(s for comp in comps for s in comp)
    source = Configuration(rng.choice(comps[0]), tuple(rng.randint(0, 4) for _ in range(dim)))
    target = Configuration(rng.choice(comps[-1]), tuple(rng.randint(0, 2) for _ in range(dim)))
    return Vass(dim, states, tuple(transitions), source, target)


def random_budget(rng):
    """A node budget, and a depth cap for shortest_halting alone."""
    budget = SearchBudget(rng.randint(0, 5), rng.choice((1, 2, 5, 20, 1_000_000)))
    return budget, rng.choice((None, None, 0, 1, 3, 6))


def _chains_finish(got, want, ref, v, budget, *args):
    """The one way a chain kernel may differ from its per-transition
    reference: it stores only chain-end configurations, so where the
    reference runs out of `max_configs`, it can finish, and then it gives
    the reference's answer under an ample budget."""
    ample = replace(budget, max_configs=1_000_000)
    return (
        budget.max_configs < ample.max_configs
        and want is BudgetExceededError
        and got == _outcome(ref, v, ample, *args)
    )


# Subset-Sum members and bounds at which the plain tuple reference stays
# small: (target, values, bound)
NP_GRID = ((1, (1,), 4), (1, (1,), 16), (3, (1, 2), 4), (2, (1, 1), 4))


class TestAgainstTupleReference:
    @staticmethod
    def check_pruned_shortest(v, budget, depth):
        """shortest_halting returns the run that the reference with the
        target caps, and the plain reference, find whenever either finds one
        under the same budget and depth cap; a run it finds where they are
        cut is the plain reference's under an ample node budget; and it
        exhausts only where the plain reference without a depth cap does.
        Returns both references' (verdict, run, expanded), the pruned one
        first."""
        want = ref_shortest(v, budget, depth, ref_caps_rule(v, budget.counter_bound))
        plain = ref_shortest(v, budget, depth)
        res = shortest_halting(v, budget, depth)
        for verdict, run, _expanded in (want, plain):
            if verdict == Verdict.FOUND:
                assert (res.verdict, res.run) == (verdict, run)
        ample = replace(budget, max_configs=1_000_000)
        if res.verdict == Verdict.FOUND:
            assert res.run == ref_shortest(v, ample, depth)[1]
        elif res.verdict == Verdict.EXHAUSTED:
            assert ref_shortest(v, ample)[0] == Verdict.EXHAUSTED
        # the reference with the ratio rule keeps the plain reference's run
        ruled = ref_shortest(v, ample, None, ref_ratio_rule(v, budget.counter_bound))
        assert ruled[:2] == ref_shortest(v, ample)[:2]
        return want, plain

    @staticmethod
    def check_ratio_rule(v, bound):
        """Under an ample node budget: the reference with the ratio rule
        keeps the plain reference's verdict and least run, and so do
        shortest_halting and halting_reachable; count_halting_runs gives the
        live reference's count, and the count over what the reference rule
        keeps wherever that meets no cycle; and on a flat VASS, no chain end
        the plain reference reaches and the reference rule keeps is outside
        the caps of the searches.  Returns how many fewer configurations the
        reference rule expands, and how many ratio fields the searches
        carry."""
        budget = SearchBudget(bound, 2_000_000)
        dead = ref_ratio_rule(v, bound)
        plain = ref_shortest(v, budget)
        ruled = ref_shortest(v, budget, None, dead)
        assert ruled[:2] == plain[:2]
        res = shortest_halting(v, budget)
        assert (res.verdict, res.run) == plain[:2]
        assert halting_reachable(v, budget).verdict == plain[0]
        got = check_count(v, budget)
        pruned = _outcome(ref_count, v, budget, Passing(dead))
        if pruned is not ConfigCycleError:
            assert got == pruned
        packed = _Packed(v, bound, chains=True, prune=True)
        if is_flat(v).is_flat:
            # the chain ends the searches drop are ones the reference drops
            for state, vectors in ref_reachable(v, budget).items():
                if packed.caps[packed.index[state]] is not None:
                    for vec in vectors:
                        cfg = Configuration(state, vec)
                        assert dead((state, vec)) or packed.admits(cfg), cfg
        return plain[2] - ruled[2], len(packed.ratios)

    @staticmethod
    def family_members():
        """exp(n), n <= 3, at twice its canonical peak; exp_fixed members
        around their thresholds; Subset-Sum members at bounds where the
        plain reference stays small."""
        for n in (1, 2, 3):
            compiled = compile_counter_program(gen_exp(n))
            policy = exp_canonical_policy(compiled.program, divisibility_threshold(n))
            peak = replay_canonical(compiled, policy, materialize=False).probe.peak
            yield compiled.vass, 2 * max(peak)
        for n, x0 in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)):
            yield compile_counter_program(gen_exp_fixed(n, x0)).vass, (n + 2) * x0
        for target, values, bound in NP_GRID:
            yield compile_counter_program(gen_np(NpInstance(target, values))[0]).vass, bound

    def test_ratio_rule_on_random_flat_vass(self):
        rng = random.Random(20261021)
        seen = Counter()
        for _ in range(200):
            for v in (random_flat_vass(rng), random_lowering_vass(rng)):
                assert is_flat(v).is_flat
                for bound in range(5):
                    dropped, fields = self.check_ratio_rule(v, bound)
                    seen["the reference rule drops"] += dropped > 0
                    seen["ratio fields"] += fields > 0
        assert min(seen.values()) > 20, seen

    def test_ratio_rule_on_family_members(self):
        seen = Counter()
        for v, bound in self.family_members():
            dropped, fields = self.check_ratio_rule(v, bound)
            seen["the reference rule drops"] += dropped > 0
            seen["ratio fields"] += fields > 0
        assert seen == {"the reference rule drops": 13, "ratio fields": 13}, seen

    def test_widened_region_is_caught(self, monkeypatch):
        # mutation control: the first ratio invariant also holds, wrongly, at
        # one state with a move into its region
        real = search_module._invariants
        widened = []

        def wider(moves, tgt, target, bound):
            caps, ratios = real(moves, tgt, target, bound)
            for *_w, region in ratios[:1]:
                upstream = [
                    s for s, ms in enumerate(moves)
                    if caps[s] is not None and not region[s] and any(region[d] for _n, d, *_ in ms)
                ]
                if upstream:
                    region[upstream[0]] = True
                    widened.append(upstream[0])
            return caps, ratios

        monkeypatch.setattr(search_module, "_invariants", wider)
        with pytest.raises(AssertionError):
            for v, bound in self.family_members():
                self.check_ratio_rule(v, bound)
        assert widened

    def test_pruned_shortest_keeps_unpruned_runs(self):
        rng = random.Random(20261019)
        seen = Counter()
        for _ in range(300):
            for make in (random_vass, random_dag_vass, random_flat_vass):
                v = make(rng)
                budget, depth = random_budget(rng)
                (verdict, _run, expanded), plain = self.check_pruned_shortest(v, budget, depth)
                seen[make.__name__, verdict] += 1
                seen["pruned", expanded < plain[2]] += 1
        # every generator finds and exhausts, and the rule often drops work
        for make in (random_vass, random_dag_vass, random_flat_vass):
            assert seen[make.__name__, Verdict.FOUND] and seen[make.__name__, Verdict.EXHAUSTED]
        assert seen["pruned", True] > 50

    def test_random_vass(self):
        rng = random.Random(20200113)
        outcomes = set()
        for _ in range(600):
            v = random_vass(rng)
            budget, depth = random_budget(rng)

            (verdict, run, _expanded), _plain = self.check_pruned_shortest(v, budget, depth)
            if run is not None:
                assert validate_run(v, run).halting
            outcomes.add(verdict)

            # the collections step along chains
            absorbing = frozenset(s for s in v.states if rng.random() < 0.3)
            for drop in (frozenset(), absorbing):
                want = _outcome(ref_reachable, v, budget, drop)
                got = _outcome(reachable_configs, v, budget, drop)
                if got != want:
                    assert _chains_finish(got, want, ref_reachable, v, budget, drop)
                    outcomes.add("collection chains finish")
                outcomes.add(want if isinstance(want, type) else "collected")

            for state in v.states:
                want = _outcome(ref_finals, v, budget, state)
                got = _outcome(final_vectors, v, budget, state)
                if got != want:
                    assert _chains_finish(got, want, ref_finals, v, budget, state)
                    outcomes.add("chains finish")

            for w in (v, random_dag_vass(rng)):
                got = check_count(w, budget)
                if isinstance(got, type):
                    outcomes.add(got)
                elif got > 1:
                    outcomes.add("several runs")
        # the corpus reaches every outcome it is meant to pin
        assert outcomes >= {
            Verdict.FOUND, Verdict.EXHAUSTED, Verdict.BUDGET_EXCEEDED,
            BudgetExceededError, ConfigCycleError, "collected", "several runs", "chains finish",
            "collection chains finish",
        }

    def test_halting_reachable_agrees_with_shortest(self):
        rng = random.Random(7)
        for _ in range(600):
            v = random_vass(rng)
            budget, _depth = random_budget(rng)
            a = halting_reachable(v, budget)
            b = shortest_halting(v, budget)
            assert a.run is None
            if a.verdict != Verdict.FOUND:
                # chain ends are a subset of what a per-transition search
                # stores
                assert a.stats.expanded <= stored_configs(v, budget)
            if a.verdict != b.verdict:
                # both step along the same chains and count each
                # configuration against the node budget when they first meet
                # it, but the search by step count meets more of them before
                # it takes the target off its bucket
                assert (a.verdict, b.verdict) in {
                    (Verdict.FOUND, Verdict.BUDGET_EXCEEDED),
                    (Verdict.EXHAUSTED, Verdict.BUDGET_EXCEEDED),
                }


def test_target_after_a_full_node_budget_is_not_found():
    # the counter turns at every state, so every state ends a chain and both
    # searches store the same configurations: p0, p1, p2, then the target
    states = ("p0", "p1", "p2", "p3")
    v = Vass(1, states, tuple(
        Transition(a, (d,), b) for a, d, b in zip(states, (1, -1, 1), states[1:])
    ), Configuration("p0", (0,)), Configuration("p3", (1,)))
    full, ample = SearchBudget(1, 3), SearchBudget(1, 4)
    assert ref_shortest(v, full) == (Verdict.BUDGET_EXCEEDED, None, 3)
    for search in (halting_reachable, shortest_halting):
        assert search(v, full) == ReachResult(Verdict.BUDGET_EXCEEDED, None, SearchStats(3, 1, 3))
        assert search(v, ample).verdict == Verdict.FOUND


class TestPacking:
    """Field-width edge cases of the packed configuration encoding: every
    over- or underflow must land above the bound and be rejected."""

    @staticmethod
    def vass(transitions, source, target, dim=2):
        states = ("p", "q")
        ts = tuple(Transition(a, d, b) for a, d, b in transitions)
        return Vass(dim, states, ts, Configuration(*source), Configuration(*target))

    def check_all_kernels(self, v, budget):
        assert shortest_halting(v, budget).run == ref_shortest(v, budget)[1]
        assert halting_reachable(v, budget).verdict == ref_shortest(v, budget)[0]
        for absorbing in (frozenset(), frozenset({"q"})):
            assert reachable_configs(v, budget, absorbing) == ref_reachable(v, budget, absorbing)
        assert count_halting_runs(v, budget) == ref_count(v, budget)

    def test_largest_decrement_at_zero(self):
        # -7 is the largest amount; at 0 it must not borrow into the next field
        v = self.vass(
            [("p", (-7, 0), "q"), ("p", (0, -7), "q"), ("p", (0, 1), "q")],
            ("p", (0, 0)), ("q", (0, 1)),
        )
        budget = SearchBudget(3)
        assert reachable_configs(v, budget) == {"p": {(0, 0)}, "q": {(0, 1)}}
        self.check_all_kernels(v, budget)
        # the same decrement is fine when the counter holds exactly 7
        w = self.vass([("p", (-7, 0), "q")], ("p", (7, 2)), ("q", (0, 2)))
        assert reachable_configs(w, SearchBudget(7)) == {"p": {(7, 2)}, "q": {(0, 2)}}
        self.check_all_kernels(w, SearchBudget(7))

    def test_largest_increment_at_bound(self):
        # +7 at the bound must not carry into the next field
        v = self.vass(
            [("p", (7, 0), "q"), ("p", (0, 7), "q"), ("p", (-1, 0), "q")],
            ("p", (5, 5)), ("q", (4, 5)),
        )
        budget = SearchBudget(5)
        assert reachable_configs(v, budget) == {"p": {(5, 5)}, "q": {(4, 5)}}
        self.check_all_kernels(v, budget)
        # an increment landing exactly on the bound is kept
        w = self.vass([("p", (7, 0), "q")], ("p", (0, 5)), ("q", (7, 5)))
        assert reachable_configs(w, SearchBudget(7)) == {"p": {(0, 5)}, "q": {(7, 5)}}
        self.check_all_kernels(w, SearchBudget(7))

    def test_underflow_in_last_field(self):
        # the last field borrows from nothing: the packed int goes negative
        v = self.vass(
            [("p", (0, 0, -4), "q"), ("p", (2, 0, -3), "q"), ("q", (1, 0, 0), "p")],
            ("p", (0, 1, 3)), ("q", (2, 1, 0)), dim=3,
        )
        budget = SearchBudget(4)
        assert reachable_configs(v, budget) == {"p": {(0, 1, 3), (3, 1, 0)}, "q": {(2, 1, 0)}}
        res = shortest_halting(v, budget)
        assert res.verdict == Verdict.FOUND and [t.delta for t in res.run.steps] == [(2, 0, -3)]
        self.check_all_kernels(v, budget)

    def test_target_above_bound_is_not_aliased(self):
        # (0, 1) and (16, 0) would share a packed key if the target were
        # encoded with a field wider than its width
        v = self.vass([("p", (0, 1), "q")], ("p", (0, 0)), ("q", (16, 0)))
        for kernel in (shortest_halting, halting_reachable):
            assert kernel(v, SearchBudget(3)).verdict == Verdict.EXHAUSTED
        assert count_halting_runs(v, SearchBudget(3)) == 0

    def test_guard_test_matches_a_field_decode(self):
        # every move of random VASS, from random keys within the caps of the
        # move's start state: the guard test keeps a successor iff each
        # counter lands in [0, its cap at the move's end state] and each
        # ratio invariant whose region holds that state stays at or above its
        # target value, `nk & guard` is set iff some counter went below zero,
        # and every derived field of `nk` holds its exact value, top bit clear
        rng = random.Random(20261020)
        states = ("p", "q", "r")
        seen = Counter()
        for trial in range(300):
            dim = trial % 5
            bound = 0 if trial % 7 == 0 else rng.randint(1, 6)
            amount = rng.randint(0, 9)
            ts = tuple(
                Transition(rng.choice(states), tuple(rng.randint(-amount, amount) for _ in range(dim)),
                           rng.choice(states))
                for _ in range(6)
            )
            target = Configuration(rng.choice(states), tuple(rng.randint(0, bound) for _ in range(dim)))
            if trial % 4 == 3 and dim >= 2:
                # a loop at the target state that lowers two counters gives a
                # ratio invariant whose region holds at least the target state
                ts += (Transition(target.state, (-rng.randint(1, 3), -rng.randint(1, 3), *[0] * (dim - 2)),
                                  target.state),)
            v = Vass(dim, states, ts, Configuration("p", (0,) * dim), target)
            packed = _Packed(v, bound, prune=trial % 2 == 1)
            guard = packed.guard
            amounts = [abs(d) for ms in packed.adj for *_, tix, _n in ms for d in v.transitions[tix].delta]
            assert bound + max(amounts, default=0) <= packed.cmask >> 1
            fields = list(zip(packed.field_shifts, packed.field_tops))[dim:]
            for s, moves in enumerate(packed.adj):
                for pd, off, tix, _n in moves:
                    t = v.transitions[tix]
                    dst = packed.index[t.dst]
                    caps = packed.caps[dst][:dim]
                    for _ in range(8):
                        x = tuple(rng.choice((0, c, rng.randint(0, c))) for c in packed.caps[s][:dim])
                        nk = packed.encode(Configuration(v.states[s], x)) + pd
                        y = [a + d for a, d in zip(x, t.delta)]
                        within = all(0 <= b <= c for b, c in zip(y, caps))
                        ratios_hold = all(
                            a * y[i] - b * y[j] >= a * target.vector[i] - b * target.vector[j]
                            for i, a, j, b, region in packed.ratios if region[dst]
                        )
                        kept = within and ratios_hold
                        under = [b < 0 for b in y]
                        over = [b > c for b, c in zip(y, caps)]
                        assert ((nk | nk + off) & guard == 0) == kept
                        assert (nk & guard != 0) == any(under)
                        if dim and under[-1]:
                            assert nk < 0  # nothing above the top field to borrow from
                        for (i, a, j, b, _region), k, (sh, top) in zip(packed.ratios, packed.ks[dim:], fields):
                            assert (nk >> sh) & (2 * top + 1) == k + b * y[j] - a * y[i] <= top
                        if kept:
                            assert nk == packed.encode(Configuration(t.dst, tuple(y)))
                        seen["dimension 0"] += dim == 0
                        seen["bound 0"] += bound == 0
                        seen["kept"] += kept
                        seen["over a cap only"] += any(over) and not any(under)
                        seen["several underflows"] += sum(under) > 1
                        seen["underflow next to a field over its cap"] += any(
                            (under[i] and over[i + 1]) or (over[i] and under[i + 1])
                            for i in range(dim - 1)
                        )
                        seen["top field underflows"] += dim > 0 and under[-1]
                        seen["a ratio invariant alone rejects"] += within and not ratios_hold
                        seen["derived fields next to an underflow"] += bool(packed.ratios) and any(under)
        assert len(seen) == 9 and min(seen.values()) > 50, seen


class TestChains:
    """halting_reachable and shortest_halting step along maximal
    deterministic chains of transitions; each case is one way a chain could
    pass a configuration the per-transition reference rejects, or miss one
    it reaches."""

    @staticmethod
    def line(deltas, source, target_state, target_vector, extra=()):
        """States p0, p1, ... joined by one transition per delta, in order,
        plus the `extra` transitions among them."""
        states = tuple(f"p{i}" for i in range(len(deltas) + 1))
        ts = tuple(Transition(f"p{i}", d, f"p{i + 1}") for i, d in enumerate(deltas))
        ts += tuple(Transition(*t) for t in extra)
        return Vass(len(source), states, ts, Configuration("p0", source),
                    Configuration(target_state, target_vector))

    @staticmethod
    def check(v, bound, want):
        budget = SearchBudget(bound)
        assert ref_shortest(v, budget)[0] == want
        assert halting_reachable(v, budget).verdict == want
        assert shortest_halting(v, budget).verdict == want
        # the other chain kernels on the same case
        assert check_count(v, budget) == _outcome(ref_live_count, v, budget)
        assert final_vectors(v, budget) == ref_finals(v, budget, v.target.state)

    def test_eight_decrements_do_not_borrow(self):
        # a field sized for one -1 step is 3 bits wide: the chain's -8 from
        # x = 1 would borrow from y and read as (1, 0)
        v = self.line([(-1, 0)] * 8, (1, 1), "p8", (1, 0))
        self.check(v, 1, Verdict.EXHAUSTED)

    def test_zero_test_gadget_is_split(self):
        # y -= 1; y += 1 has net 0, but y = 0 blocks it
        v = self.line([(0, -1), (0, 1)], (0, 0), "p2", (0, 0))
        self.check(v, 3, Verdict.EXHAUSTED)
        self.check(self.line([(0, -1), (0, 1)], (0, 1), "p2", (0, 1)), 3, Verdict.FOUND)

    def test_up_then_down_is_split(self):
        # x += 3; x -= 3 passes bound + 1 on the way
        bound = 6
        v = self.line([(3,), (-3,)], (bound - 2,), "p2", (bound - 2,))
        self.check(v, bound, Verdict.EXHAUSTED)
        self.check(self.line([(3,), (-3,)], (bound - 3,), "p2", (bound - 3,)), bound,
                   Verdict.FOUND)

    def test_cycle_without_branch_terminates(self):
        # p0 -> p1 -> p2 -> p3 -> p1: a deterministic cycle with no cut state
        # on it, entered from the source; it pumps x up to the bound
        cycle = [("p3", (0,), "p1")]
        pump = self.line([(0,), (1,), (0,)], (0,), "p0", (1,), extra=cycle)
        self.check(pump, 4, Verdict.EXHAUSTED)
        idle = self.line([(0,), (0,), (0,)], (0,), "p0", (1,), extra=cycle)
        self.check(idle, 4, Verdict.EXHAUSTED)
        # the same cycle through the target state
        through = self.line([(0,), (1,), (0,)], (0,), "p3", (5,), extra=cycle)
        self.check(through, 4, Verdict.EXHAUSTED)
        self.check(through, 5, Verdict.FOUND)

    def test_target_mid_line_is_found(self):
        # every step increases, so no counter forces a cut at p3
        v = self.line([(1, 0), (0, 1), (1, 1), (1, 0), (0, 1)], (0, 0), "p3", (2, 2))
        self.check(v, 3, Verdict.FOUND)
        self.check(v, 2, Verdict.FOUND)  # the rest of the line leaves the bound
        self.check(v, 1, Verdict.EXHAUSTED)
        # with no counters at all, p1 is still a cut
        v = self.line([(), ()], (), "p1", ())
        self.check(v, 0, Verdict.FOUND)
        assert reachable_configs(v, SearchBudget(0)) == {"p0": {()}, "p1": {()}, "p2": {()}}

    def test_count_cuts_zero_effect_cycle(self):
        # p1 -> p2 -> p3 -> p1 has no effect and every state on it has
        # out-degree 1.  It runs through the target state p2, a cut, so it
        # can halt: the chain from p2 comes back to p2, a cycle among chain
        # ends
        v = self.line([(0,), (0,), (0,)], (0,), "p2", (0,), extra=[("p3", (0,), "p1")])
        budget = SearchBudget(3)
        for count in (ref_live_count, count_halting_runs):
            with pytest.raises(ConfigCycleError):
                count(v, budget)
        # with the target at p0, which the cycle cannot reach, it is dropped
        dead = replace(v, target=Configuration("p0", (1,)))
        assert count_halting_runs(dead, budget) == ref_live_count(dead, budget) == 0
        with pytest.raises(ConfigCycleError):
            ref_count(dead, budget)

    def test_final_vectors_mid_chain_state(self):
        # p0 -> p1 -> p0 pumps x; p1 -> p2 -> p3 is a chain through p2,
        # which is not the target: collecting at p2 makes it a cut
        v = self.line([(1,), (0,), (1,)], (0,), "p3", (3,), extra=[("p1", (0,), "p0")])
        budget = SearchBudget(5)
        for state, low in (("p2", 1), ("p3", 2)):
            want = {(x,) for x in range(low, 6)}
            assert final_vectors(v, budget, at_state=state) == want
            assert reachable_configs(v, budget, frozenset({state}))[state] == want
            assert ref_finals(v, budget, state) == want
        assert final_vectors(v, budget) == final_vectors(v, budget, at_state="p3")

    def test_chains_agree_with_per_transition_on_families(self):
        members = [
            (gen_exp_fixed(n, x0), (4, 10, 20, 30))
            for n, x0 in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 4), (3, 6))
        ]
        members += [
            (gen_np(NpInstance(1, (1,)))[0], (8, 16)),
            (gen_np(NpInstance(2, (1,)))[0], (8, 32)),
        ]
        members += [
            (with_initial_values(gen_weak_mult(c, d), {"x": x}), (3, 6, 12))
            for c, d in ((2, 1), (3, 2)) for x in (0, 1, 3)
        ]
        members += [
            (with_initial_values(gen_hp(3, 2), {"x": x, "z": z}), (4, 9, 16))
            for x, z in ((0, 0), (1, 1), (2, 1), (4, 2))
        ]
        seen = set()
        for program, bounds in members:
            v = compile_counter_program(program).vass
            for bound in bounds:
                budget = SearchBudget(bound, 2_000_000)
                chains = halting_reachable(v, budget)
                per_step = per_transition_shortest(v, budget)[0]
                assert chains.verdict == shortest_halting(v, budget).verdict == per_step
                assert per_step != Verdict.BUDGET_EXCEEDED
                if chains.verdict != Verdict.FOUND:
                    assert chains.stats.expanded <= stored_configs(v, budget)
                seen.add(chains.verdict)
        assert seen == {Verdict.FOUND, Verdict.EXHAUSTED}


def ref_coreachable(v, bound):
    """Every configuration within the bound from which the target can be
    reached within the bound: a brute-force backward search from the target
    over the reference successors of every configuration in the box."""
    tgt = (v.target.state, v.target.vector)
    if max(v.target.vector, default=0) > bound:
        return set()
    successors = _ref_successors(v, bound)
    preds = {}
    for state in v.states:
        for vec in itertools.product(range(bound + 1), repeat=v.dimension):
            for _tix, nxt in successors((state, vec)):
                preds.setdefault(nxt, []).append((state, vec))
    seen = {tgt}
    todo = [tgt]
    while todo:
        for cfg in preds.get(todo.pop(), ()):
            if cfg not in seen:
                seen.add(cfg)
                todo.append(cfg)
    return seen


class TestTargetCaps:
    """halting_reachable drops configurations that cannot reach the target:
    those at states with no path to the target state, those holding more
    than the target value in a counter nothing on such a path decreases, and
    those below the target in a ratio invariant."""

    @staticmethod
    def check_sound(v, bound):
        """At every state the source state reaches, the counter caps are
        ref_target_caps'.  The caps and ratio invariants reject no
        configuration that can reach the target, over single transitions
        and at chain ends; every configuration the pruned chain search
        stores passes them, and the verdict is the reference's.  Returns
        the counter caps by state, and how many configurations within them
        at the states the source state reaches a ratio invariant rejects."""
        reached = reach_from(v, v.source.state)
        want = ref_target_caps(v, bound)
        per_step = _Packed(v, bound, prune=True)
        chains = _Packed(v, bound, chains=True, prune=True)
        caps = {s: c and c[:v.dimension] for s, c in zip(v.states, per_step.caps)}
        assert {s: caps[s] for s in reached} == {s: want[s] for s in reached}
        for state, vec in ref_coreachable(v, bound):
            if state not in reached:
                continue
            assert per_step.admits(Configuration(state, vec)), (state, vec)
            if chains.caps[chains.index[state]] is not None:  # a live chain end
                assert chains.admits(Configuration(state, vec)), (state, vec)
        budget = SearchBudget(bound, 1_000_000)
        assert halting_reachable(v, budget).verdict == ref_shortest(v, budget)[0]
        if chains.src is not None:
            # exhaust the pruned chain search (no configuration is the target)
            _verdict, stored, _stats = _explore(chains, -1, budget.max_configs)
            for key in stored:
                vec = tuple((key >> sh) & chains.cmask for sh in chains.shifts)
                assert chains.admits(Configuration(v.states[key & chains.smask], vec))
        by_ratio = sum(
            not per_step.admits(Configuration(state, vec))
            for state in reached if caps[state] is not None
            for vec in itertools.product(*(range(c + 1) for c in caps[state]))
        )
        return caps, by_ratio

    def test_random_vass(self):
        rng = random.Random(20260118)
        rejected = {"dead": 0, "capped": 0, "ratio": 0}
        for _ in range(300):
            for v in (random_vass(rng), random_dag_vass(rng), random_flat_vass(rng)):
                bound = rng.randint(0, 4)
                caps, by_ratio = self.check_sound(v, bound)
                rejected["dead"] += sum(cap is None for cap in caps.values())
                rejected["capped"] += sum(c < bound for cap in caps.values() if cap for c in cap)
                rejected["ratio"] += by_ratio
        # the corpus exercises every part of the rule
        assert min(rejected.values()) > 50, rejected

    def test_state_that_cannot_reach_the_target_state(self):
        # r pumps x forever but never leads to q
        v = Vass(1, ("p", "q", "r"), (
            Transition("p", (1,), "r"), Transition("r", (1,), "r"),
            Transition("p", (1,), "q"), Transition("q", (-1,), "q"),
        ), Configuration("p", (0,)), Configuration("q", (0,)))
        for bound in (1, 3):
            assert self.check_sound(v, bound)[0] == {"p": (bound,), "q": (bound,), "r": None}
        # r's configurations are never stored
        assert halting_reachable(v, SearchBudget(3)).stats == SearchStats(2, 1, 2)
        # a source at a state that cannot reach the target is rejected at once
        dead = replace(v, source=Configuration("r", (0,)))
        assert halting_reachable(dead, SearchBudget(3)) == ReachResult(
            Verdict.EXHAUSTED, None, SearchStats(0, 0, 0)
        )

    def test_self_loop_at_the_target_state(self):
        # only the target state's own self-loop brings x back down to 0
        v = Vass(1, ("p", "q"), (Transition("p", (3,), "q"), Transition("q", (-1,), "q")),
                 Configuration("p", (0,)), Configuration("q", (0,)))
        assert self.check_sound(v, 3)[0] == {"p": (3,), "q": (3,)}
        assert halting_reachable(v, SearchBudget(3)).verdict == Verdict.FOUND

    def test_counter_that_only_increments_after_a_branch(self):
        # p pumps x; through a, x comes back down, through b it never does
        v = Vass(2, ("p", "a", "b", "t"), (
            Transition("p", (1, 0), "p"),
            Transition("p", (0, 0), "a"), Transition("a", (-1, 1), "t"),
            Transition("p", (0, 1), "b"),
            Transition("b", (1, 0), "t"), Transition("b", (0, 0), "t"),
        ), Configuration("p", (0, 0)), Configuration("t", (2, 1)))
        bound = 4
        caps = {"p": (4, 1), "a": (4, 1), "b": (2, 1), "t": (2, 1)}
        assert self.check_sound(v, bound)[0] == caps
        # the move p -> b leaves x alone but must still check it: b is
        # entered with x <= 2 only, so (b, (3, 1)) is never stored
        assert halting_reachable(v, SearchBudget(bound)) == ReachResult(
            Verdict.FOUND, None, SearchStats(7, 4, 3)
        )

    def test_shortest_runs_on_family_members(self):
        # shortest_halting against the per-transition search without the
        # rule: the same verdict and run, and no more configurations stored
        members = []
        for n in (1, 2, 3):
            compiled = compile_counter_program(gen_exp(n))
            policy = exp_canonical_policy(compiled.program, divisibility_threshold(n))
            peak = replay_canonical(compiled, policy, materialize=False).probe.peak
            members.append((compiled.vass, 2 * max(peak)))
        for n in (2, 3, 4):
            th = divisibility_threshold(n)
            for x0 in sorted({x for m in (th, 2 * th) for x in (m - 1, m, m + 1)}):
                members.append((compile_counter_program(gen_exp_fixed(n, x0)).vass, (n + 2) * x0))
        # the positive NP instances with entries <= 2, at the peak of their
        # canonical runs: the search without the rule stores up to 833,097
        # configurations there, and up to 1,582,900 at `meta.search_bound`
        for values in ((1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)):
            for target in (1, 2):
                chosen = subset_sum_witness(target, values)
                if chosen is None:
                    continue
                compiled = compile_counter_program(gen_np(NpInstance(target, values))[0])
                policy = np_canonical_policy(compiled.program, chosen)
                peak = replay_canonical(compiled, policy, materialize=False).probe.peak
                members.append((compiled.vass, max(peak)))
        seen = Counter()
        for v, bound in members:
            budget = SearchBudget(bound, 2_000_000)
            verdict, run, stats = per_transition_shortest(v, budget)
            assert verdict != Verdict.BUDGET_EXCEEDED
            res = shortest_halting(v, budget)
            assert (res.verdict, res.run) == (verdict, run)
            assert res.stats.expanded <= stats.expanded
            seen[verdict] += 1
        assert seen == {Verdict.FOUND: 18, Verdict.EXHAUSTED: 11}

    def test_np_search_keeps_only_live_configurations(self):
        # a per-chain search without the rule stores 458,748 configurations
        program, meta = gen_np(NpInstance(3, (3,)))
        v = compile_counter_program(program).vass
        res = halting_reachable(v, SearchBudget(meta.search_bound, 1_000_000))
        assert res.verdict == Verdict.FOUND
        assert res.stats.expanded <= 1_000


def test_halting_reachable_source_is_target_has_no_run():
    v = Vass(1, ("p",), (), Configuration("p", (2,)), Configuration("p", (2,)))
    res = halting_reachable(v, SearchBudget(5))
    assert res.verdict == Verdict.FOUND
    assert res.run is None
    assert res.stats == SearchStats(0, 1, 0)


class TestRunCountOverLiveConfigurations:
    """count_halting_runs over the configurations that can reach the
    target: it drops the others, counts the runs when the live ones form
    no cycle, and raises ConfigCycleError when they do.  A case is
    certified when the full reference meets no cycle either; there the
    count is the full reference's."""

    @staticmethod
    def corpus(seed):
        rng = random.Random(seed)
        for _ in range(300):
            for make in (random_vass, random_dag_vass, random_flat_vass):
                yield make, make(rng)

    def test_sound_against_brute_force(self):
        seen = Counter()
        for make, v in self.corpus(20261018):
            if make is random_flat_vass:
                assert is_flat(v).is_flat
            for bound in range(5):
                budget = SearchBudget(bound)
                got = _outcome(count_halting_runs, v, budget)
                full = _outcome(ref_count, v, budget)
                if got is ConfigCycleError:
                    assert full is got
                    seen["raises"] += 1
                else:
                    assert got == _outcome(ref_live_count, v, budget)
                    seen["counts where the full reference raises"] += full is ConfigCycleError
                    seen["several runs"] += got > 1
        # cycles that cannot halt are dropped, cycles that can still raise,
        # and paths are counted, not only found
        assert min(seen.values()) > 20, seen

    def test_count_equals_reference_when_certified(self):
        # where the full reference meets no cycle, no run repeats a
        # configuration, and dropping those that cannot reach the target
        # leaves the count of every run unchanged
        counts = Counter()
        for _make, v in self.corpus(20261019):
            for bound in range(6):
                budget = SearchBudget(bound)
                want = _outcome(ref_count, v, budget)
                if want is ConfigCycleError:
                    continue
                assert count_halting_runs(v, budget) == want
                counts[min(want, 2)] += 1
        assert min(counts.values()) > 20, counts  # no runs, one run, several runs

    def test_count_equals_reference_on_exp_family(self):
        for n, x0 in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)):
            v = compile_counter_program(gen_exp_fixed(n, x0)).vass
            budget = SearchBudget((n + 2) * x0, 1_000_000)
            want = ref_count(v, budget)
            assert want == (x0 % divisibility_threshold(n) == 0)
            assert count_halting_runs(v, budget) == want

    def test_pruned_count_fits_a_smaller_budget(self):
        # the full chain search stores 102,979 configurations here, and with
        # the counter caps alone 38,687; the ratio invariant x - 5y >= 0 at
        # the last loop leaves 7,215
        v = compile_counter_program(gen_exp_fixed(4, 24)).vass
        assert count_halting_runs(v, SearchBudget(144, 7_300)) == 1

    def test_cycle_that_cannot_halt_is_not_counted(self):
        # p and q pump x up and down, and from p the run ends at t with
        # x = 2, never at the target (t, 0): the one halting run is s -> t
        ts = [("s", (0,), "t"), ("s", (2,), "p"), ("p", (1,), "q"), ("q", (-1,), "p"),
              ("p", (0,), "t")]
        v = Vass(1, ("s", "p", "q", "t"), tuple(Transition(*t) for t in ts),
                 Configuration("s", (0,)), Configuration("t", (0,)))
        budget = SearchBudget(3)
        assert count_halting_runs(v, budget) == ref_live_count(v, budget) == 1
        with pytest.raises(ConfigCycleError):
            ref_count(v, budget)

    def test_parallel_moves_are_counted_twice(self):
        # p -> a -> q and p -> b -> q are two chains with the same net
        # effect between the same chain ends, and so are q -> c -> r and
        # q -> d -> r: four runs
        ts = [("p", "a"), ("p", "b"), ("a", "q"), ("b", "q"), ("q", "c"), ("q", "d"),
              ("c", "r"), ("d", "r")]
        v = Vass(1, ("p", "a", "b", "q", "c", "d", "r"),
                 tuple(Transition(src, (1,), dst) for src, dst in ts),
                 Configuration("p", (0,)), Configuration("r", (4,)))
        budget = SearchBudget(4)
        assert count_halting_runs(v, budget) == ref_count(v, budget) == 4

    def test_zero_effect_self_loop(self):
        # p can halt, so its cycle is kept
        v = Vass(1, ("p", "q"), (Transition("p", (0,), "p"), Transition("p", (0,), "q")),
                 Configuration("p", (0,)), Configuration("q", (0,)))
        with pytest.raises(ConfigCycleError):
            count_halting_runs(v, SearchBudget(3))

    def test_non_flat_cycles_that_move_counters_are_counted(self):
        # every cycle through p moves x, but p lies on two of them
        v = Vass(1, ("p", "q"), (
            Transition("p", (1,), "p"), Transition("p", (1,), "q"), Transition("q", (1,), "p"),
        ), Configuration("p", (0,)), Configuration("q", (3,)))
        assert not is_flat(v).is_flat
        assert count_halting_runs(v, SearchBudget(3)) == ref_count(v, SearchBudget(3)) == 2

    def test_cycle_without_counters_raises(self):
        v = Vass(0, ("p", "q"), (Transition("p", (), "q"), Transition("q", (), "p")),
                 Configuration("p", ()), Configuration("q", ()))
        assert is_flat(v).is_flat
        with pytest.raises(ConfigCycleError):
            count_halting_runs(v, SearchBudget(0))
        # without the cycle there is nothing to repeat
        assert count_halting_runs(replace(v, transitions=v.transitions[:1]), SearchBudget(0)) == 1

    def test_nonzero_self_loop_is_counted(self):
        # r can never reach q: its configurations are dropped, not counted
        v = Vass(1, ("p", "q", "r"), (
            Transition("p", (1,), "p"), Transition("p", (-2,), "q"), Transition("p", (0,), "r"),
        ), Configuration("p", (0,)), Configuration("q", (1,)))
        for bound in range(5):
            budget = SearchBudget(bound)
            assert count_halting_runs(v, budget) == ref_count(v, budget) == (bound >= 3)
        # a source outside its caps counts no runs
        assert count_halting_runs(replace(v, source=Configuration("r", (0,))), budget) == 0
