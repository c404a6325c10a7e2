import random
from collections import deque
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
from vasskit.lang import Sub, parse
from vasskit.search import (
    CountedLoop,
    SearchBudget,
    SearchStats,
    Verdict,
    count_halting_runs,
    final_vectors,
    halting_reachable,
    reachable_configs,
    replay_canonical,
    run_from_indices,
    shortest_halting,
    _Replay,
)
from vasskit.vass import Configuration, Run, RunReport, Transition, Vass, validate_run


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

    def test_unmaterialized_matches_materialized(self):
        compiled = compile_counter_program(gen_exp_fixed(2, 4))
        a = replay_canonical(compiled, maximal_policy(compiled.program), materialize=True)
        b = replay_canonical(compiled, maximal_policy(compiled.program), materialize=False)
        assert b.run is None
        assert a.probe == b.probe
        assert a.final == b.final

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


class PerStepReplay(_Replay):
    """Reference emitter for materialized replay: every step is a fresh
    `Transition` appended on its own, with no shared objects and no
    block appends."""

    def _transition(self, src, delta, dst):
        return Transition(src, delta, dst)

    def _fast_forward(self, span, n_iter):
        straight, deltas, body_len = self.body_info[span.entry]
        assert straight
        if n_iter > 0:
            for ci, d in deltas.items():
                if d < 0 and self.vec[ci] + n_iter * d < 0:
                    raise PolicyStuckError("underflow")
            for _ in range(n_iter):
                self._emit(span.entry, self.zero, span.body_start)
                for ln in range(span.body_start, span.back):
                    cmd = self.flat.line(ln)
                    amount = -cmd.amount if isinstance(cmd, Sub) else cmd.amount
                    self._emit(ln, self._unit_delta(self.cix[cmd.counter], amount), ln + 1)
                self._emit(span.back, self.zero, span.entry)
            for ci, d in deltas.items():
                end = self.vec[ci] + n_iter * d
                self.peak[ci] = max(self.peak[ci], self.vec[ci], end)
                self.vec[ci] = end
            self.length += n_iter * (body_len + 2)
        self.iter_count[span.entry] = self.iter_count.get(span.entry, 0) + n_iter
        self._record_exit(span.entry)
        self._emit(span.entry, self.zero, span.exit)
        self.length += 1

    def _drain_completion(self):
        chain = self.compiled.drain_chain
        for ix, (state, counter) in enumerate(chain):
            ci = self.cix[counter]
            while self.vec[ci] > 0:
                self.steps.append(Transition(state, self._unit_delta(ci, -1), state))
                self.vec[ci] -= 1
                self.length += 1
            if ix + 1 < len(chain):
                self.steps.append(Transition(state, self.zero, chain[ix + 1][0]))
                self.length += 1


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


class TestReplaySharesTransitions:
    @pytest.mark.parametrize("name", CANONICAL)
    def test_steps_match_per_step_reference(self, name):
        compiled, policy = _canonical(name)
        out = replay_canonical(compiled, policy)
        ref = PerStepReplay(compiled, policy, materialize=True).run()
        assert out.run.steps == ref.run.steps
        assert (out.probe, out.final, out.halting) == (ref.probe, ref.final, ref.halting)
        own = {id(t) for t in compiled.vass.transitions}
        assert all(id(t) in own for t in out.run.steps)
        assert validate_run(compiled.vass, out.run) == validate_run(compiled.vass, ref.run)

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
                # the target is tested before the node budget only here, and
                # chains can exhaust a space on which the per-transition
                # search runs out of max_configs
                assert (a.verdict, b.verdict) in {
                    (Verdict.FOUND, Verdict.BUDGET_EXCEEDED),
                    (Verdict.EXHAUSTED, Verdict.BUDGET_EXCEEDED),
                }


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


def test_halting_reachable_source_is_target_has_no_run():
    v = Vass(1, ("p",), (), Configuration("p", (2,)), Configuration("p", (2,)))
    res = halting_reachable(v, SearchBudget(5))
    assert res.verdict == Verdict.FOUND
    assert res.run is None
    assert res.stats == SearchStats(0, 1, 0)
