import itertools
import random
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
    run_from_indices,
    shortest_halting,
    _explore,
    _Packed,
    _target_caps,
)
from vasskit.vass import (
    Configuration, Run, RunReport, Transition, Vass, acyclic_configurations, is_flat, validate_run,
)


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
        again = run_from_indices(v, obj["run"]["steps"])
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

    def test_cutoff_saturates(self):
        text = "counters x\n" + "1: init\n" + "\n".join(
            f"{i}: goto {i + 1} or {i + 1}" for i in range(2, 6)
        ) + "\n6: halt x\n"
        # widen: several diamonds
        diamond = (
            "counters x\n"
            "1: init\n"
            "2: goto 3 or 4\n"
            "3: goto 5 or 6\n"
            "4: goto 5 or 6\n"
            "5: goto 7 or 7\n"
            "6: goto 7 or 7\n"
            "7: halt x\n"
        )
        v = compile_counter_program(parse(diamond)).vass
        assert count_halting_runs(v, SearchBudget(3)) == 4
        assert count_halting_runs(v, SearchBudget(3), cutoff=3) == 3
        # a count saturated at cutoff < 1 could read as the on-stack marker
        for cutoff in (0, -1):
            with pytest.raises(ValueError, match="cutoff"):
                count_halting_runs(v, SearchBudget(3), cutoff=cutoff)

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
    probe, the final configuration and whether it is the target."""
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
                iterations, exits = observed.setdefault(pc, ([], []))
                iterations.append(running.pop(pc, 0))
                exits.append(tuple(vec))
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
    loops = {e: LoopObservation(e, tuple(it), tuple(ex)) for e, (it, ex) in sorted(observed.items())}
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
        with pytest.raises(PolicyStuckError):
            replay_canonical(compiled, {})

    def test_counted_loop_fast_forward_counts_steps(self):
        prog = parse("counters x\ninit\nloop\n  x += 1\nendloop\nhalt\n")
        compiled = compile_counter_program(prog)
        entry = compiled.program.loops[0].entry
        out = replay_canonical(compiled, {entry: CountedLoop(5)})
        # init + 5 * (enter + body + back) + exit + final drain of x (5 steps)
        assert out.probe.length == 1 + 5 * 3 + 1 + 5
        assert out.halting  # halt tests nothing; completion drains x
        assert validate_run(compiled.vass, out.run).halting

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
    def test_runaway_replay_stops_at_the_visit_guard(self, materialize):
        # the goto re-enters the body, so y grows and no visit repeats
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
        from vasskit.search import DrainLoop, drain_policies

        compiled = compile_counter_program(gen_hp(3, 2))
        flat = compiled.program
        outer = flat.loops[0]
        policies = drain_policies(flat)
        # the outer loop drains z (its own top-level decrement), not the
        # x/y decrements owned by the nested loops
        assert policies[outer.entry] == DrainLoop("z")

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


def ref_shortest(v, budget, max_depth=None):
    """Deque BFS on tuple keys: (verdict, run, expanded).  `expanded` counts
    configurations whose successors were generated; the node budget is
    checked before the target test, as in shortest_halting."""
    bound = budget.counter_bound
    src = (v.source.state, v.source.vector)
    tgt = (v.target.state, v.target.vector)
    if max(v.source.vector, default=0) > bound:
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
            if nxt in parents:
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


def ref_count(v, budget, cutoff):
    """Recursive path count with the same cycle and budget checks."""
    bound = budget.counter_bound
    if max(v.source.vector, default=0) > bound:
        return 0
    successors = _ref_successors(v, bound)
    tgt = (v.target.state, v.target.vector)
    counts, on_stack = {}, set()

    def count(cfg):
        on_stack.add(cfg)
        acc = 1 if cfg == tgt else 0
        for _tix, nxt in successors(cfg):
            if nxt in counts:
                acc = min(acc + counts[nxt], cutoff)
                continue
            if nxt in on_stack:
                raise ConfigCycleError("reference cycle")
            if len(counts) + len(on_stack) >= budget.max_configs:
                raise BudgetExceededError("reference budget")
            acc = min(acc + count(nxt), cutoff)
        on_stack.discard(cfg)
        counts[cfg] = acc
        return acc

    return count((v.source.state, v.source.vector))


def ref_finals(v, budget, state):
    """final_vectors on the reference: `state` is absorbing."""
    return frozenset(ref_reachable(v, budget, frozenset({state})).get(state, set()))


def stored_configs(v, budget):
    """How many configurations an exhaustive per-transition search stores:
    reachable_configs under an ample node budget."""
    ample = replace(budget, max_configs=max(budget.max_configs, 1_000_000))
    return sum(len(vectors) for vectors in reachable_configs(v, ample).values())


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


class TestAgainstTupleReference:
    def test_random_vass(self):
        rng = random.Random(20200113)
        outcomes = set()
        for _ in range(600):
            v = random_vass(rng)
            budget, depth = random_budget(rng)

            verdict, run, expanded = ref_shortest(v, budget, depth)
            res = shortest_halting(v, budget, depth)
            assert (res.verdict, res.run, res.stats.expanded) == (verdict, run, expanded)
            if run is not None:
                assert validate_run(v, run).halting
            outcomes.add(verdict)

            absorbing = frozenset(s for s in v.states if rng.random() < 0.3)
            for drop in (frozenset(), absorbing):
                want = _outcome(ref_reachable, v, budget, drop)
                assert _outcome(reachable_configs, v, budget, drop) == want
                outcomes.add(want if isinstance(want, type) else "collected")

            # final_vectors steps along chains
            for state in v.states:
                want = _outcome(ref_finals, v, budget, state)
                got = _outcome(final_vectors, v, budget, state)
                if got != want:
                    assert _chains_finish(got, want, ref_finals, v, budget, state)
                    outcomes.add("chains finish")

            for w in (v, random_dag_vass(rng)):
                cutoff = rng.choice((1, 2, 3, 1_000_000))
                want = _outcome(ref_count, w, budget, cutoff)
                got = _outcome(count_halting_runs, w, budget, cutoff)
                if got != want:
                    assert _chains_finish(got, want, ref_count, w, budget, cutoff)
                    outcomes.add("chains finish")
                if isinstance(want, type):
                    outcomes.add(want)
                elif want > 1:
                    outcomes.add("several runs")
                elif want < _outcome(ref_count, w, budget, 1_000_000):
                    outcomes.add("saturated")
        # the corpus reaches every outcome it is meant to pin
        assert outcomes >= {
            Verdict.FOUND, Verdict.EXHAUSTED, Verdict.BUDGET_EXCEEDED,
            BudgetExceededError, ConfigCycleError, "collected", "several runs", "saturated",
            "chains finish",
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
                # both test the node budget before the target, but chains can
                # reach the target or exhaust a space on which the
                # per-transition search runs out of max_configs
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
        assert count_halting_runs(v, budget) == ref_count(v, budget, 1_000_000)

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


class TestChains:
    """halting_reachable steps along maximal deterministic chains of
    transitions; each case is one way a chain could pass a configuration the
    per-transition reference rejects, or miss one it reaches."""

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
        ref = _outcome(ref_count, v, budget, 1_000_000)
        assert _outcome(count_halting_runs, v, budget) == ref
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
        # out-degree 1: the chain from p0 must cut it, and the cut still
        # leaves a cycle among chain ends
        v = self.line([(0,), (0,), (0,)], (0,), "p0", (1,), extra=[("p3", (0,), "p1")])
        budget = SearchBudget(3)
        with pytest.raises(ConfigCycleError):
            ref_count(v, budget, 1_000_000)
        with pytest.raises(ConfigCycleError):
            count_halting_runs(v, budget)

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
                per_step = shortest_halting(v, budget)
                assert chains.verdict == per_step.verdict != Verdict.BUDGET_EXCEEDED
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


def cap_rejects(caps, index, cfg):
    state, vec = cfg
    cap = caps[index[state]]
    return cap is None or any(x > c for x, c in zip(vec, cap))


class TestTargetCaps:
    """halting_reachable drops configurations that cannot reach the target:
    those at states with no path to the target state, and those holding more
    than the target value in a counter nothing on such a path decreases."""

    @staticmethod
    def check_sound(v, bound):
        """The cap rule rejects no configuration that can reach the target,
        every configuration the pruned search stores passes it, and the
        verdict is the reference's.  Returns the caps by state."""
        index = {s: i for i, s in enumerate(v.states)}
        caps = _target_caps(v, index, bound)
        for cfg in ref_coreachable(v, bound):
            assert not cap_rejects(caps, index, cfg), cfg
        budget = SearchBudget(bound, 1_000_000)
        assert halting_reachable(v, budget).verdict == ref_shortest(v, budget)[0]
        source = (v.source.state, v.source.vector)
        if not cap_rejects(caps, index, source):
            # exhaust the pruned chain search (no configuration is the target)
            packed = _Packed(v, bound, chains=True, prune=True)
            _verdict, stored, _stats = _explore(packed, -1, budget.max_configs)
            for key in stored:
                vec = tuple((key >> sh) & packed.cmask for sh in packed.shifts)
                assert not cap_rejects(caps, index, (v.states[key & packed.smask], vec))
        return dict(zip(v.states, caps))

    def test_random_vass(self):
        rng = random.Random(20260118)
        rejected = {"dead": 0, "capped": 0}
        for _ in range(300):
            for v in (random_vass(rng), random_dag_vass(rng)):
                bound = rng.randint(0, 4)
                caps = self.check_sound(v, bound).values()
                rejected["dead"] += sum(cap is None for cap in caps)
                rejected["capped"] += sum(c < bound for cap in caps if cap for c in cap)
        # the corpus exercises both halves of the rule
        assert min(rejected.values()) > 50

    def test_state_that_cannot_reach_the_target_state(self):
        # r pumps x forever but never leads to q
        v = Vass(1, ("p", "q", "r"), (
            Transition("p", (1,), "r"), Transition("r", (1,), "r"),
            Transition("p", (1,), "q"), Transition("q", (-1,), "q"),
        ), Configuration("p", (0,)), Configuration("q", (0,)))
        for bound in (1, 3):
            assert self.check_sound(v, bound) == {"p": (bound,), "q": (bound,), "r": None}
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
        assert self.check_sound(v, 3) == {"p": (3,), "q": (3,)}
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
        assert self.check_sound(v, bound) == caps
        # the move p -> b leaves x alone but must still check it: b is
        # entered with x <= 2 only, so (b, (3, 1)) is never stored
        assert halting_reachable(v, SearchBudget(bound)) == ReachResult(
            Verdict.FOUND, None, SearchStats(7, 4, 3)
        )

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


def ref_has_cycle(v, bound):
    """Whether a configuration cycle within the bound is reachable from the
    source vector at any state: the reference count meets a back edge."""
    for state in v.states:
        try:
            ref_count(replace(v, source=replace(v.source, state=state)),
                      SearchBudget(bound), 1_000_000)
        except ConfigCycleError:
            return True
    return False


class TestAcyclicConfigurations:
    """`acyclic_configurations` certifies that no run repeats a
    configuration, and count_halting_runs then drops the configurations
    that cannot reach the target."""

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
            certified = acyclic_configurations(v)
            cycle = any(ref_has_cycle(v, bound) for bound in range(6))
            assert not (certified and cycle), v
            seen[make.__name__, certified, cycle] += 1
        # flat members with and without zero-effect cycles, and the other
        # generators both ways
        for name in ("random_vass", "random_flat_vass"):
            assert seen[name, True, False] and seen[name, False, True]
        assert seen["random_dag_vass", True, False]

    def test_count_equals_reference_when_certified(self):
        rng = random.Random(11)
        counts = Counter()
        for _make, v in self.corpus(20261019):
            if not acyclic_configurations(v):
                continue
            for bound in range(6):
                budget = SearchBudget(bound)
                cutoff = rng.choice((1, 2, 1_000_000))
                want = ref_count(v, budget, cutoff)
                assert count_halting_runs(v, budget, cutoff) == want
                counts[min(want, 2)] += 1
        assert min(counts.values()) > 20  # no runs, one run, several runs

    def test_count_equals_reference_on_exp_family(self):
        for n, x0 in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)):
            v = compile_counter_program(gen_exp_fixed(n, x0)).vass
            assert acyclic_configurations(v)
            budget = SearchBudget((n + 2) * x0, 1_000_000)
            want = ref_count(v, budget, 1_000_000)
            assert want == (x0 % divisibility_threshold(n) == 0)
            assert count_halting_runs(v, budget) == want

    def test_pruned_count_fits_a_smaller_budget(self):
        # the full chain search stores 102,979 configurations here
        v = compile_counter_program(gen_exp_fixed(4, 24)).vass
        assert count_halting_runs(v, SearchBudget(144, 50_000)) == 1

    def test_zero_effect_self_loop(self):
        v = Vass(1, ("p", "q"), (Transition("p", (0,), "p"), Transition("p", (0,), "q")),
                 Configuration("p", (0,)), Configuration("q", (0,)))
        assert not acyclic_configurations(v)
        with pytest.raises(ConfigCycleError):
            count_halting_runs(v, SearchBudget(3))

    def test_non_flat_is_not_certified(self):
        # every cycle through p moves x, but p lies on two of them
        v = Vass(1, ("p", "q"), (
            Transition("p", (1,), "p"), Transition("p", (1,), "q"), Transition("q", (1,), "p"),
        ), Configuration("p", (0,)), Configuration("q", (3,)))
        assert not is_flat(v).is_flat
        assert not acyclic_configurations(v)
        assert count_halting_runs(v, SearchBudget(3)) == ref_count(v, SearchBudget(3), 9) == 2

    def test_cycle_without_counters_is_not_certified(self):
        v = Vass(0, ("p", "q"), (Transition("p", (), "q"), Transition("q", (), "p")),
                 Configuration("p", ()), Configuration("q", ()))
        assert is_flat(v).is_flat
        assert not acyclic_configurations(v)
        with pytest.raises(ConfigCycleError):
            count_halting_runs(v, SearchBudget(0))
        # without the cycle there is nothing to repeat
        assert acyclic_configurations(replace(v, transitions=v.transitions[:1]))

    def test_nonzero_self_loop_is_certified(self):
        # r can never reach q: its configurations are dropped, not counted
        v = Vass(1, ("p", "q", "r"), (
            Transition("p", (1,), "p"), Transition("p", (-2,), "q"), Transition("p", (0,), "r"),
        ), Configuration("p", (0,)), Configuration("q", (1,)))
        assert acyclic_configurations(v)
        for bound in range(5):
            budget = SearchBudget(bound)
            assert count_halting_runs(v, budget) == ref_count(v, budget, 9) == (bound >= 3)
        # a source outside its caps counts no runs
        assert count_halting_runs(replace(v, source=Configuration("r", (0,))), budget) == 0
