import json
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from vasskit.compiler import compile_counter_program
from vasskit.errors import NegativeCounterError, WrongStateError
from vasskit.arith import divisibility_threshold
from vasskit.families import (
    NpInstance, exp_canonical_policy, gen_double_exp, gen_double_exp_fixed, gen_exp, gen_hp,
    gen_np, gen_weak, maximal_policy, np_canonical_policy, with_initial_values,
)
from vasskit.search import replay_canonical
from vasskit.vass import (
    Configuration, Run, RunReport, Transition, Vass, is_flat, step, validate_run, vass_size,
)


def ref_simple_cycles(v: Vass) -> list[tuple[Transition, ...]]:
    """Reference for `is_flat`: every simple cycle of the control graph by
    brute force over simple paths (parallel transitions count as distinct
    edges), each once, rotated to start at its earliest transition in
    `v.transitions`, sorted by transition positions.  Exponential; small
    graphs only."""
    found: set[tuple[int, ...]] = set()

    def walk(start, at, path, seen):
        for tix, t in enumerate(v.transitions):
            if t.src != at:
                continue
            if t.dst == start:
                cyc = path + [tix]
                i = cyc.index(min(cyc))
                found.add(tuple(cyc[i:] + cyc[:i]))
            elif t.dst not in seen:
                walk(start, t.dst, path + [tix], seen | {t.dst})

    for state in v.states:
        walk(state, state, [], {state})
    return [tuple(v.transitions[tix] for tix in cyc) for cyc in sorted(found)]


def tiny_vass(transitions, dimension=2, source=("p", (0, 0)), target=("q", (0, 0))):
    states = {t.src for t in transitions} | {t.dst for t in transitions}
    states |= {source[0], target[0]}
    return Vass(
        dimension=dimension,
        states=tuple(states),
        transitions=tuple(transitions),
        source=Configuration(*source),
        target=Configuration(*target),
    )


class TestStep:
    def test_moves_counters(self):
        t = Transition("p", (-1, 1), "q")
        assert step(Configuration("p", (2, 0)), t) == Configuration("q", (1, 1))

    def test_underflow_reports_component(self):
        t = Transition("p", (-1, 1), "q")
        with pytest.raises(NegativeCounterError) as err:
            step(Configuration("p", (0, 0)), t)
        assert err.value.component == 0

    def test_self_loop(self):
        t = Transition("p", (3, -1), "p")
        assert step(Configuration("p", (4, 1)), t) == Configuration("p", (7, 0))

    def test_wrong_state(self):
        with pytest.raises(WrongStateError):
            step(Configuration("q", (1, 1)), Transition("p", (0, 0), "q"))


class TestValidateRun:
    def test_empty_run_at_source_equals_target(self):
        v = tiny_vass([Transition("p", (0, 0), "q")], source=("p", (0, 0)), target=("p", (0, 0)))
        report = validate_run(v, Run(Configuration("p", (0, 0)), ()))
        assert report.ok and report.halting

    def test_foreign_transition_rejected_at_index(self):
        v = tiny_vass([Transition("p", (0, 0), "q")])
        alien = Transition("p", (1, 0), "q")
        report = validate_run(v, Run(v.source, (alien,)))
        assert not report.ok and report.failure_index == 0

    def test_wrong_initial(self):
        v = tiny_vass([Transition("p", (0, 0), "q")])
        report = validate_run(v, Run(Configuration("q", (0, 0)), ()))
        assert not report.ok and report.failure_index == -1

    def test_agrees_with_step_replay_on_random_walks(self):
        rng = random.Random(23)
        compiled = compile_counter_program(gen_weak(3))
        v = compiled.vass
        outgoing = {}
        for t in v.transitions:
            outgoing.setdefault(t.src, []).append(t)
        for _ in range(200):
            cfg = v.source
            steps = []
            for _ in range(rng.randint(0, 25)):
                options = outgoing.get(cfg.state, [])
                if not options:
                    break
                t = rng.choice(options)
                try:
                    cfg = step(cfg, t)
                except NegativeCounterError:
                    steps.append(t)  # deliberately keep the illegal step
                    break
                steps.append(t)
            run = Run(v.source, tuple(steps))
            # oracle: replay with step and see whether it survives
            ok = True
            c = v.source
            for t in steps:
                try:
                    c = step(c, t)
                except (NegativeCounterError, WrongStateError):
                    ok = False
                    break
            assert validate_run(v, run).ok == ok


def ref_validate_run(v: Vass, r: Run) -> RunReport:
    """Reference for `validate_run`: replay each step with `step`, which
    builds and checks a whole new configuration per step."""
    if r.initial != v.source:
        return RunReport(False, -1, False, "initial configuration differs from source")
    known = set(v.transitions)
    cfg = r.initial
    for i, t in enumerate(r.steps):
        if t not in known:
            return RunReport(False, i, False, f"step {i} uses a transition not in the VASS")
        try:
            cfg = step(cfg, t)
        except (WrongStateError, NegativeCounterError) as e:
            return RunReport(False, i, False, f"step {i}: {e}")
    return RunReport(True, None, cfg == v.target)


def _family_run(name):
    """A VASS and a canonical run of it.  The compiled family members use
    their canonical replay: the runs of exp(2) and NP(3;{1,2}) halt, those
    of weak(3) and hp(3,2) do not.  "loops(3)" is a hand-built VASS whose
    decrements can underflow every counter, some two at once."""
    if name == "loops(3)":
        up, down, out = (1, 1, 1), (-1, -1, -1), Transition("p", (0, 0, 0), "q")
        moves = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, -1, -1), (-2, 1, 0), up, down]
        v = tiny_vass([Transition("p", d, "p") for d in moves] + [out], dimension=3,
                      source=("p", (0, 0, 0)), target=("q", (0, 0, 0)))
        return v, Run(v.source, (Transition("p", up, "p"), Transition("p", down, "p"), out))
    if name == "exp(2)":
        compiled = compile_counter_program(gen_exp(2))
        policy = exp_canonical_policy(compiled.program, divisibility_threshold(2))
    elif name == "NP(3;{1,2})":
        compiled = compile_counter_program(gen_np(NpInstance(3, (1, 2)))[0])
        policy = np_canonical_policy(compiled.program, {1, 2})
    else:
        prog = gen_weak(3) if name == "weak(3)" else with_initial_values(
            gen_hp(3, 2), {"x": 4, "z": 2}
        )
        compiled = compile_counter_program(prog)
        policy = maximal_policy(compiled.program)
    return compiled.vass, replay_canonical(compiled, policy).run


def random_runs(rng, v, canonical, count):
    """Seeded runs of v: random walks whose steps come mostly from the
    current state's transitions but also from all of v's transitions (wrong
    state) and from transitions v lacks, plus prefixes of the canonical run
    and copies with one step swapped.  Walks keep going after a bad step."""
    outgoing = {}
    for t in v.transitions:
        outgoing.setdefault(t.src, []).append(t)
    known = set(v.transitions)
    foreign = [u for t in v.transitions
               for u in (Transition(t.src, t.delta[:-1] + (t.delta[-1] + 1,), t.dst),
                         Transition(t.src, t.delta, "nowhere"))
               if u not in known]
    yield Run(Configuration(v.source.state, (1,) * v.dimension), ())
    yield canonical
    for _ in range(count):
        kind = rng.random()
        if kind < 0.2:
            yield Run(v.source, canonical.steps[:rng.randint(0, len(canonical))])
            continue
        if kind < 0.4:
            steps = list(canonical.steps)
            steps[rng.randrange(len(steps))] = rng.choice(v.transitions + tuple(foreign))
            yield Run(v.source, tuple(steps))
            continue
        cfg, steps = v.source, []
        for _ in range(rng.randint(0, 40)):
            pick = rng.random()
            if pick < 0.8 and cfg.state in outgoing:
                t = rng.choice(outgoing[cfg.state])
            elif pick < 0.93:
                t = rng.choice(v.transitions)
            else:
                t = rng.choice(foreign)
            steps.append(t)
            try:
                cfg = step(cfg, t)
            except (WrongStateError, NegativeCounterError):
                pass
        yield Run(v.source, tuple(steps))


class TestValidateRunAgainstReference:
    @pytest.mark.parametrize("name", ["loops(3)", "weak(3)", "exp(2)", "hp(3,2)", "NP(3;{1,2})"])
    def test_random_runs(self, name):
        v, canonical = _family_run(name)
        reasons = Counter()
        for r in random_runs(random.Random(name), v, canonical, 1500):
            want = ref_validate_run(v, r)
            assert validate_run(v, r) == want
            if want.failure_index == -1:
                reasons["initial"] += 1
            elif not want.ok:
                reasons[re.sub(r"^step \d+:? ", "", want.reason).split(" but ")[0]] += 1
            reasons["off target" if want.ok and not want.halting else "other"] += 1
        kinds = {"initial", "off target", "uses a transition not in the VASS"}
        assert kinds <= set(reasons)
        assert any(k.startswith("transition leaves") for k in reasons)
        underflows = {k for k in reasons if k.endswith("would become negative")}
        assert underflows
        if name == "loops(3)":
            # on compiled members some counters cannot underflow on any run
            # from the source (in exp(2), x <= 3y whenever y is decremented)
            assert underflows == {f"counter {ci} would become negative" for ci in range(3)}


@pytest.fixture(scope="module")
def pumped_replay():
    """exp(2), its canonical policy at pump 100, and the replay's run:
    2,606 steps, nearly all of them in six loop activations of 50-150
    copies of a 4-step body, each activation one block."""
    compiled = compile_counter_program(gen_exp(2))
    policy = exp_canonical_policy(compiled.program, 100)
    return compiled, policy, replay_canonical(compiled, policy).run


@pytest.fixture(scope="module")
def pumped(pumped_replay):
    """The VASS of `pumped_replay` and its run's steps."""
    compiled, _, run = pumped_replay
    steps = run.steps
    # steps[400:800] drains x into z, 100 copies from x = 100; the next
    # activation, steps[801:1001], moves 50 copies of z -= 2 into x
    assert steps[400:800] == steps[400:404] * 100
    assert steps[801:1001] == steps[801:805] * 50
    assert [t.delta for t in steps[400:404]] == [(0, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, 0)]
    return compiled.vass, steps


def fresh(steps):
    """Equal transitions, each a new object."""
    return tuple(Transition(t.src, t.delta, t.dst) for t in steps)


class TestRepeatedStretches:
    """Plain runs, with no blocks, that repeat a canonical stretch many
    times.  `validate_run` walks such a run step by step as one block of
    count 1, and the whole report, failure index and reason included, must
    be the reference's.  Each case sweeps where the repeat or the fault
    lies."""

    def assert_reference(self, v, runs):
        reports = [validate_run(v, r) for r in runs]
        assert reports == [ref_validate_run(v, r) for r in runs]
        return reports

    def test_underflow_in_the_first_middle_and_last_copy(self, pumped):
        # k copies of the x drain: from k = 101 on, x underflows in copy 101
        # of k, the last at k = 101 and a middle one beyond.  Below k = 100
        # the drain leaves z = k, and the next activation's 50 copies of
        # z -= 2 underflow in copy k // 2 + 1: the first at k <= 1, the last
        # at k >= 98.
        v, steps = pumped
        body = steps[400:404]
        runs = [Run(v.source, steps[:400] + body * k + steps[800:]) for k in range(240)]
        reports = self.assert_reference(v, runs)
        assert reports[100] == RunReport(True, None, True)
        assert reports[101].failure_index == 400 + 4 * 100 + 1
        assert reports[239].failure_index == 400 + 4 * 100 + 1
        assert reports[0].failure_index == 400 + 1 + 2
        assert reports[99].failure_index == 400 + 4 * 99 + 1 + 4 * 49 + 2
        assert {r.reason.split(": ")[1] for r in reports if not r.ok} == {
            "counter 0 would become negative", "counter 2 would become negative"}

    @pytest.mark.parametrize("kind", ["foreign", "wrong state"])
    def test_one_middle_copy_with_a_bad_step(self, pumped, kind):
        v, steps = pumped
        runs = []
        for at in range(404, 796, 3):
            t = steps[at]
            bad = Transition(t.src, t.delta, "nowhere") if kind == "foreign" else steps[at + 1]
            runs.append(Run(v.source, steps[:at] + (bad,) + steps[at + 1:]))
        reason = "not in the VASS" if kind == "foreign" else "transition leaves"
        for r, at in zip(self.assert_reference(v, runs), range(404, 796, 3)):
            assert r.failure_index == at and reason in r.reason

    def test_repeat_that_is_no_cycle(self, pumped):
        # the 3 steps just walked, again: they lead from one state to
        # another, so the second copy's first step is in the wrong state
        v, steps = pumped
        runs = [Run(v.source, steps[:at] + steps[at - 3:at] * 40) for at in range(404, 800)]
        for r, at in zip(self.assert_reference(v, runs), range(404, 800)):
            assert r.failure_index == at and "transition leaves" in r.reason

    def test_repeat_cut_one_step_short(self, pumped):
        v, steps = pumped
        body = steps[400:404]
        # every prefix of the canonical run is valid and stops short of the target
        for end in range(400, 1010):
            assert validate_run(v, Run(v.source, steps[:end])) == RunReport(True, None, False)
        runs = [Run(v.source, steps[:400] + body * k + body[:-1] + steps[800:]) for k in range(95, 100)]
        assert all("transition leaves" in r.reason for r in self.assert_reference(v, runs))

    def test_equal_but_distinct_transitions(self, pumped):
        v, steps = pumped
        body = steps[400:404]
        runs = [Run(v.source, fresh(steps)),
                Run(v.source, steps[:600] + fresh(body) * 10 + steps[640:]),
                Run(v.source, steps[:400] + fresh(body * 101) + steps[800:])]
        reports = self.assert_reference(v, runs)
        assert reports[:2] == [RunReport(True, None, True)] * 2
        assert reports[2].failure_index == 801

    def test_nested_repeat(self):
        # an outer body a b b c whose inner b b repeats too; x falls by one
        # per outer copy and dips by two within it.  Two spare transitions
        # are never taken.
        a, b, c = (Transition("p", (0, 0), "q"), Transition("q", (-1, 1), "q"),
                   Transition("q", (1, -2), "p"))
        spare = [Transition("p", (0, 0), "r"), Transition("r", (0, 0), "p")]
        v = tiny_vass([a, b, c, *spare], source=("p", (60, 0)), target=("p", (0, 0)))
        outer = (a, b, b, c)
        runs = [Run(v.source, outer * k) for k in range(0, 120, 3)]
        runs += [Run(v.source, outer * k + (a, b, b, b, c) + outer * 40) for k in range(0, 60, 5)]
        reports = self.assert_reference(v, runs)
        # 59 outer copies stay valid; in the 60th x falls from 1 to -1
        assert reports[19] == RunReport(True, None, False)
        assert reports[20].failure_index == 59 * 4 + 2

    def test_memory_stays_flat_on_a_long_run(self):
        # the 1,951,316-step run of 2exp(2) at its least halting pump, in
        # the replay's block form and as a plain run.  Tracing makes the
        # plain walk about 25 times slower, so its memory is traced on the
        # first 300,000 steps, whose step list alone takes 2.4 MB.
        compiled = compile_counter_program(gen_double_exp_fixed(2, 65_536)[0])
        run = replay_canonical(compiled, maximal_policy(compiled.program)).run
        assert len(run) == 1_951_316
        plain = Run(run.initial, run.steps)
        assert validate_run(compiled.vass, plain) == RunReport(True, None, True)
        for form, halting in ((run, True), (Run(run.initial, run.steps[:300_000]), False)):
            tracemalloc.start()
            try:
                report = validate_run(compiled.vass, form)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report == RunReport(True, None, halting)
            assert peak < 1_000_000


def with_count(blocks, at, count):
    return blocks[:at] + [(blocks[at][0], count)] + blocks[at + 1:]


class TestBlockRuns:
    """Runs made by `Run.from_blocks`.  `validate_run` walks a block's first
    copy step by step and checks the copies after it by their net effect
    and lowest prefix; its report on the block form and on the plain form of
    each run must both be the reference's, failure index and reason
    included.  In the canonical blocks of exp(2) at pump 100, block 5 drains
    x = 100 into z, 100 copies of a 4-step body, and block 7 moves z back
    into x, 50 copies of z -= 2.  A run too long to expand is checked
    against its replay's probe instead."""

    def assert_reference(self, v, runs):
        reports = []
        for r in runs:
            plain = Run(r.initial, r.steps)
            want = ref_validate_run(v, plain)
            assert (validate_run(v, r), validate_run(v, plain)) == (want, want)
            reports.append(want)
        return reports

    @pytest.fixture
    def canonical(self, pumped_replay):
        compiled, _, run = pumped_replay
        blocks = list(run.blocks)
        assert [(len(ts), m) for ts, m in blocks[5:8]] == [(4, 100), (1, 1), (4, 50)]
        assert blocks[5][0] == run.steps[400:404]
        return compiled.vass, run.initial, blocks

    def test_from_blocks_is_the_plain_run(self, pumped_replay):
        _, _, run = pumped_replay
        plain = Run(run.initial, run.steps)
        assert run.steps == tuple(t for ts, m in run.blocks for t in ts * m)
        assert run == plain and hash(run) == hash(plain) and repr(run) == repr(plain)
        assert len(run.blocks) > 1 and plain.blocks == ((run.steps, 1),)
        assert Run.from_blocks(run.initial, iter(run.blocks)) == run

    def test_underflow_in_the_first_middle_and_last_copy(self, canonical):
        # block 5 of k copies: from k = 101 on, x underflows in copy 101, the
        # last at k = 101 and a middle one beyond.  Below k = 100 the drain
        # leaves z = k, and block 7 underflows in copy k // 2 + 1: the first
        # at k <= 1, the last at k >= 98.  Block 7 alone, from z = 100,
        # underflows in its last copy at 51.
        v, initial, blocks = canonical
        edits = [(5, k) for k in (0, 1, 2, 3, 50, 97, 98, 99, 100, 101, 102, 150, 239)]
        edits += [(7, m) for m in (49, 50, 51, 52, 80)]
        runs = [Run.from_blocks(initial, with_count(blocks, at, m)) for at, m in edits]
        reports = dict(zip(edits, self.assert_reference(v, runs)))
        assert reports[5, 100] == reports[7, 50] == RunReport(True, None, True)
        assert reports[5, 101].failure_index == reports[5, 239].failure_index == 400 + 4 * 100 + 1
        assert reports[5, 0].failure_index == 400 + 1 + 2
        assert reports[5, 1].failure_index == 400 + 4 + 1 + 2
        assert reports[5, 50].failure_index == 400 + 4 * 50 + 1 + 4 * 25 + 2
        assert reports[5, 99].failure_index == 400 + 4 * 99 + 1 + 4 * 49 + 2
        assert reports[7, 51].failure_index == reports[7, 80].failure_index == 801 + 4 * 50 + 2
        assert {r.reason.split(": ")[1] for r in reports.values() if not r.ok} == {
            "counter 0 would become negative", "counter 2 would become negative"}

    def test_body_that_does_not_return(self, canonical):
        # a block of the first n steps of the drain body leads from one
        # state to another, so its second copy starts in the wrong state
        v, initial, blocks = canonical
        body = blocks[5][0]
        runs = [Run.from_blocks(initial, blocks[:5] + [(body[:n], m)] + blocks[6:])
                for n in (1, 2, 3) for m in (2, 40)]
        for r, n in zip(self.assert_reference(v, runs), (1, 1, 2, 2, 3, 3)):
            assert r.failure_index == 400 + n and "transition leaves" in r.reason

    @pytest.mark.parametrize("kind", ["foreign", "wrong state"])
    def test_one_middle_copy_with_a_bad_step(self, canonical, kind):
        # the drain block split into a copies, one bad copy and the rest
        v, initial, blocks = canonical
        body = blocks[5][0]
        cases = [(a, j) for a in (1, 37, 98) for j in range(4)]
        runs = []
        for a, j in cases:
            t = body[j]
            bad = Transition(t.src, t.delta, "nowhere") if kind == "foreign" else body[(j + 1) % 4]
            split = [(body, a), (body[:j] + (bad,) + body[j + 1:], 1), (body, 99 - a)]
            runs.append(Run.from_blocks(initial, blocks[:5] + split + blocks[6:]))
        reason = "not in the VASS" if kind == "foreign" else "transition leaves"
        for r, (a, j) in zip(self.assert_reference(v, runs), cases):
            assert r.failure_index == 400 + 4 * a + j and reason in r.reason

    def test_counts_zero_and_one(self, canonical):
        v, initial, blocks = canonical
        runs = [Run.from_blocks(initial, with_count(blocks, at, m))
                for at in range(len(blocks)) for m in (0, 1)]
        reports = self.assert_reference(v, runs)
        assert any(r.ok for r in reports) and not all(r.ok for r in reports)
        assert self.assert_reference(v, [Run.from_blocks(initial, [])]) == [RunReport(True, None, False)]

    def test_equal_but_distinct_transitions(self, canonical):
        v, initial, blocks = canonical
        runs = [Run.from_blocks(initial, [(fresh(ts), m) for ts, m in blocks]),
                Run.from_blocks(initial, blocks[:5] + [(fresh(blocks[5][0]), 101)] + blocks[6:])]
        reports = self.assert_reference(v, runs)
        assert reports[0] == RunReport(True, None, True)
        assert reports[1].failure_index == 801

    def test_step_missing_from_vass_fails_at_the_same_index(self, pumped_replay):
        # replay emits a fresh object for a step the VASS lacks
        compiled, policy, run = pumped_replay
        for gone in (run.steps[401], run.steps[-1]):
            v = compiled.vass
            kept = tuple(t for t in v.transitions if t is not gone)
            crippled = replace(compiled, vass=Vass(v.dimension, v.states, kept, v.source, v.target))
            again = replay_canonical(crippled, policy).run
            first = run.steps.index(gone)
            assert self.assert_reference(crippled.vass, [again]) == [
                RunReport(False, first, False, f"step {first} uses a transition not in the VASS")]

    @pytest.mark.parametrize("name", ["weak(3)", "exp(2)", "hp(3,2)", "NP(3;{1,2})"])
    def test_random_block_mutations(self, name):
        # one to three edits of the canonical blocks: a count off by one, a
        # transition dropped from a block, or two blocks swapped
        v, canonical = _family_run(name)
        rng = random.Random(name)
        outcomes = Counter()
        for _ in range(600):
            blocks = list(canonical.blocks)
            for _ in range(rng.randint(1, 3)):
                at, kind = rng.randrange(len(blocks)), rng.random()
                ts, m = blocks[at]
                if kind < 0.5 or not ts:
                    blocks[at] = (ts, max(0, m + rng.choice((-1, 1))))
                elif kind < 0.75:
                    cut = rng.randrange(len(ts))
                    blocks[at] = (ts[:cut] + ts[cut + 1:], m)
                else:
                    other = rng.randrange(len(blocks))
                    blocks[at], blocks[other] = blocks[other], blocks[at]
            (report,) = self.assert_reference(v, [Run.from_blocks(canonical.initial, blocks)])
            outcomes["ok" if report.ok else report.reason.split(": ")[-1].split(" ")[0]] += 1
        assert {"ok", "transition", "counter"} <= set(outcomes)

    def test_run_that_cannot_be_expanded(self):
        # the canonical run of 2exp(8): 3,598 blocks whose summed length has
        # 11,491 bits, past what `len()` or an expansion could hold
        program, meta = gen_double_exp(8)
        compiled = compile_counter_program(program)
        out = replay_canonical(compiled, exp_canonical_policy(compiled.program, meta.canonical_pump))
        run = out.run
        assert len(run.blocks) == 3_598
        assert sum(len(ts) * m for ts, m in run.blocks) == out.probe.length
        assert out.probe.length.bit_length() == 11_491
        with pytest.raises(OverflowError):
            len(run)
        assert hash(run) == hash(Run.from_blocks(run.initial, iter(run.blocks)))
        tracemalloc.start()
        try:
            report = validate_run(compiled.vass, run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == RunReport(True, None, True)
        assert peak < 1_000_000


class TestFlatness:
    def test_single_self_loop_is_flat(self):
        v = tiny_vass([Transition("p", (1, 0), "p")], target=("p", (0, 0)))
        assert is_flat(v).is_flat

    def test_two_self_loops_not_flat(self):
        v = tiny_vass(
            [Transition("p", (1, 0), "p"), Transition("p", (0, 1), "p")],
            target=("p", (0, 0)),
        )
        report = is_flat(v)
        assert not report.is_flat
        assert report.witness_state == "p"
        c1, c2 = report.witness_cycles
        assert c1 != c2
        assert {t.src for t in c1} & {t.src for t in c2}

    def test_rotations_do_not_double_count(self):
        # one 2-cycle p -> q -> p: flat, although both p and q are on it
        v = tiny_vass([Transition("p", (0, 0), "q"), Transition("q", (0, 0), "p")])
        cycles = ref_simple_cycles(v)
        assert len(cycles) == 1
        assert is_flat(v).is_flat

    def test_compiled_exp_family_is_flat(self):
        report = is_flat(compile_counter_program(gen_exp(2)).vass)
        assert report.is_flat

    def test_compiled_double_exp_not_flat(self):
        program, _ = gen_double_exp(1)
        report = is_flat(compile_counter_program(program).vass)
        assert not report.is_flat
        c1, c2 = report.witness_cycles
        shared = {t.src for t in c1} & {t.src for t in c2}
        assert report.witness_state in shared
        # the witness pair is an inner-loop cycle nested in the outer cycle
        assert len(c1) != len(c2)

    def test_renaming_invariance(self):
        rng = random.Random(5)
        compiled = compile_counter_program(gen_exp(1))
        v = compiled.vass
        names = list(v.states)
        for _ in range(5):
            permuted = names[:]
            rng.shuffle(permuted)
            mapping = dict(zip(names, permuted))
            renamed = Vass(
                dimension=v.dimension,
                states=tuple(mapping[s] for s in v.states),
                transitions=tuple(
                    Transition(mapping[t.src], t.delta, mapping[t.dst]) for t in v.transitions
                ),
                source=Configuration(mapping[v.source.state], v.source.vector),
                target=Configuration(mapping[v.target.state], v.target.vector),
            )
            assert is_flat(renamed).is_flat == is_flat(v).is_flat

    def test_straight_line_programs_flat(self):
        from vasskit.lang import parse

        compiled = compile_counter_program(parse("counters x\ninit\nx += 1\nx -= 1\nhalt x\n"))
        assert is_flat(compiled.vass).is_flat

    def test_complete_digraph_not_flat_without_budget(self):
        # K12 has billions of simple cycles; enumerating them cannot finish
        states = [f"s{i:02d}" for i in range(12)]
        transitions = [
            Transition(a, (0, 0), b) for a in states for b in states if a != b
        ]
        v = tiny_vass(transitions, source=("s00", (0, 0)), target=("s01", (0, 0)))
        report = is_flat(v)
        assert not report.is_flat
        assert report.witness_state == "s00"
        for cyc in report.witness_cycles:
            assert_simple_cycle_through(v, cyc, "s00")

    def test_many_branches_flat(self):
        # 40 goto-diamonds in a row and one self-loop at the end: 2^40 simple
        # paths, one simple cycle
        transitions = []
        for i in range(40):
            for side in "ab":
                transitions.append(Transition(f"d{i:02d}", (0, 0), f"{side}{i:02d}"))
                transitions.append(Transition(f"{side}{i:02d}", (0, 0), f"d{i + 1:02d}"))
        transitions.append(Transition("d40", (1, 0), "d40"))
        v = tiny_vass(transitions, source=("d00", (0, 0)), target=("d40", (0, 0)))
        assert is_flat(v).is_flat

    def test_long_cycles_need_no_recursion(self):
        # one simple cycle through 5,000 states, then a chord that closes a
        # second cycle through s0000
        ring = [Transition(f"s{i:04d}", (0, 0), f"s{(i + 1) % 5000:04d}") for i in range(5000)]
        v = tiny_vass(ring, source=("s0000", (0, 0)), target=("s4999", (0, 0)))
        assert is_flat(v).is_flat
        chord = Transition("s0000", (0, 0), "s2500")
        report = is_flat(tiny_vass(ring + [chord], source=("s0000", (0, 0)), target=("s4999", (0, 0))))
        assert not report.is_flat and report.witness_state == "s0000"
        assert sorted(len(c) for c in report.witness_cycles) == [2501, 5000]

    def test_compiled_hp_witness_pinned(self):
        report = is_flat(compile_counter_program(gen_hp(3, 2)).vass)
        assert not report.is_flat and report.witness_state == "L2"
        assert [[t.src for t in c] + [c[-1].dst] for c in report.witness_cycles] == [
            ["L1", "L2", "L6", "L10", "L11", "L1"],
            ["L2", "L3", "L4", "L5", "L2"],
        ]


def assert_simple_cycle_through(v: Vass, cyc, state):
    assert all(t in v.transitions for t in cyc)
    assert all(a.dst == b.src for a, b in zip(cyc, cyc[1:] + cyc[:1]))  # closed
    assert len({t.src for t in cyc}) == len(cyc)  # simple
    assert state in {t.src for t in cyc}


class TestFlatnessAgainstReference:
    def test_random_graphs(self):
        # 1-7 states, 0-12 transitions; 1-dimensional deltas in {-1, 0, 1}
        # give parallel transitions, and self-loops arise freely
        rng = random.Random(4)
        non_flat = 0
        for _ in range(4000):
            states = [f"s{i}" for i in range(rng.randint(1, 7))]
            transitions = {
                Transition(rng.choice(states), (rng.randint(-1, 1),), rng.choice(states))
                for _ in range(rng.randint(0, 12))
            }
            v = Vass(1, tuple(states), tuple(transitions),
                     Configuration(states[0], (0,)), Configuration(states[-1], (0,)))
            cycles = ref_simple_cycles(v)
            on = Counter(t.src for cyc in cycles for t in cyc)
            report = is_flat(v)
            assert report.is_flat == all(k < 2 for k in on.values())
            if report.is_flat:
                assert report.witness_state is None and report.witness_cycles is None
                continue
            non_flat += 1
            assert on[report.witness_state] >= 2
            c1, c2 = report.witness_cycles
            assert c1 != c2
            for cyc in (c1, c2):
                assert_simple_cycle_through(v, cyc, report.witness_state)
                assert cyc in cycles  # rotated as the reference rotates
            position = {t: i for i, t in enumerate(v.transitions)}
            assert [position[t] for t in c1] < [position[t] for t in c2]
        assert 1000 < non_flat < 3000


class TestVassSize:
    def test_no_transitions(self):
        v = Vass(1, ("p",), (), Configuration("p", (0,)), Configuration("p", (0,)))
        assert vass_size(v, "unary") == 1
        assert vass_size(v, "binary") == 1

    def test_single_transition_unary(self):
        v = tiny_vass([Transition("p", (2, -1), "q")])
        assert vass_size(v, "unary") == 2 + 1 * 3

    def test_binary_counts_bits(self):
        v = tiny_vass([Transition("p", (5, 0), "q")])
        # |5| has 3 bits, 0 counts one bit
        assert vass_size(v, "binary") == 2 + 1 * 4

    def test_rejects_unknown_encoding(self):
        v = tiny_vass([Transition("p", (1, 0), "q")])
        with pytest.raises(ValueError):
            vass_size(v, "decimal")


class TestCanonicalForm:
    """A `Vass` keeps its transitions sorted by (src, delta, dst) with
    duplicates dropped, keeps the first of several equal ones, and checks
    them in that order."""

    @staticmethod
    def scrambled(transitions, seed):
        # reversed, shuffled, then each repeated as a distinct equal object
        ts = list(reversed(transitions))
        random.Random(seed).shuffle(ts)
        return ts + [Transition(t.src, t.delta, t.dst) for t in ts[::2]] + ts[1::3]

    @pytest.mark.parametrize("seed", range(3))
    def test_sorted_deduplicated_and_first_kept(self, seed):
        v = compile_counter_program(gen_hp(3, 2)).vass
        given = self.scrambled(v.transitions, seed)
        again = Vass(v.dimension, v.states[::-1], tuple(given), v.source, v.target)
        assert again.transitions == tuple(sorted(set(given), key=lambda t: (t.src, t.delta, t.dst)))
        assert again.transitions == v.transitions and again.states == v.states
        first = {}
        for t in given:
            first.setdefault(t, t)
        assert all(t is first[t] for t in again.transitions)
        assert again.to_json() == v.to_json()

    @pytest.mark.parametrize("seed", range(3))
    def test_first_error_in_canonical_order(self, seed):
        good = [Transition("p", (1, 0), "q"), Transition("q", (0, -1), "p")]
        bad = [
            Transition("a", (0, 0), "p"),  # endpoint, sorts first
            Transition("p", (0,), "q"),  # dimension
            Transition("p", (5,), "zz"),  # endpoint and dimension
            Transition("q", (1, 1), "r"),  # endpoint
        ]
        for k in range(len(bad)):
            # the first bad transition in canonical order is the one named
            ts = self.scrambled(good + bad[k:], seed)
            want = bad[k]
            what = "wrong dimension" if {want.src, want.dst} <= {"p", "q"} else "endpoint not a state"
            with pytest.raises(ValueError, match=re.escape(f"{what}: {want}")):
                Vass(2, ("q", "p"), tuple(ts), Configuration("p", (0, 0)), Configuration("q", (0, 0)))


class TestJson:
    def test_round_trip_bit_exact(self):
        v = compile_counter_program(gen_exp(2)).vass
        text = v.to_json()
        again = Vass.from_json(text)
        assert again == v
        assert again.to_json() == text

    def test_deltas_are_decimal_strings(self):
        v = tiny_vass([Transition("p", (2, -1), "q")])
        obj = json.loads(v.to_json())
        deltas = {tuple(t["delta"]) for t in obj["transitions"]}
        assert ("2", "-1") in deltas

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(dimension=True), "field 'dimension' must be int, not bool"),
        (lambda doc: doc["transitions"][0].update(delta=[True]),
         "field 'transitions[0].delta' must list integers"),
        (lambda doc: doc["source"].update(vector=[False]),
         "field 'source.vector' must list integers"),
    ])
    def test_booleans_are_not_integers(self, edit, message):
        doc = {
            "dimension": 1,
            "states": ["p"],
            "transitions": [{"from": "p", "delta": ["1"], "to": "p"}],
            "source": {"state": "p", "vector": [0]},
            "target": {"state": "p", "vector": [0]},
        }
        Vass.from_json_obj(doc)
        edit(doc)
        with pytest.raises(ValueError, match=re.escape(message)):
            Vass.from_json_obj(doc)

    def test_validation_on_construction(self):
        with pytest.raises(ValueError):
            Vass(1, ("p",), (Transition("p", (1,), "nowhere"),),
                 Configuration("p", (0,)), Configuration("p", (0,)))
        with pytest.raises(ValueError):
            Vass(2, ("p",), (), Configuration("p", (0,)), Configuration("p", (0, 0)))
        with pytest.raises(NegativeCounterError):
            Configuration("p", (0, -1))
