"""End-to-end checks of the Subset-Sum reduction beyond the grid: canonical
runs, per-component accounting, and the negative mutation control."""

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from vasskit import families
from vasskit.arith import divisibility_threshold
from vasskit.compiler import compile_counter_program
from vasskit.families import (
    NpInstance,
    gen_np,
    gen_np_init,
    maximal_policy,
    np_canonical_policy,
    subset_sum_brute,
)
from vasskit.lang import CounterProgram
from vasskit.search import SearchBudget, Verdict, count_halting_runs, replay_canonical, shortest_halting
from vasskit.vass import Run, validate_run
from vasskit.verify import check_np_instance, check_np_run_accounting


def witness_subset(inst):
    return next(
        set(picks)
        for r in range(len(inst.values) + 1)
        for picks in itertools.combinations(range(1, len(inst.values) + 1), r)
        if sum(inst.values[i - 1] for i in picks) == inst.target
    )


class TestInitializer:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2])
    def test_canonical_run_computes_threshold(self, n, k):
        compiled = compile_counter_program(gen_np_init(n, k))
        out = replay_canonical(compiled, maximal_policy(compiled.program))
        assert out.halting
        report = validate_run(compiled.vass, out.run)
        assert report.ok and report.halting
        # values on arrival at the halt line: the last loop's exit probe
        last = compiled.program.loops[-1]
        values = dict(zip(compiled.program.counters, out.probe.loops[last.entry].exit_vectors[-1]))
        threshold = divisibility_threshold(n)
        assert values == {"x": 0, "x'": 0, "y": 0, "z": 0, "e": threshold, "f": threshold * (k + 1)}

    @pytest.mark.parametrize("n", [1, 2])
    def test_halting_run_unique(self, n):
        compiled = compile_counter_program(gen_np_init(n, 1))
        threshold = divisibility_threshold(n)
        budget = SearchBudget(4 * threshold * (n + 1) + 4, 4_000_000)
        assert count_halting_runs(compiled.vass, budget) == 1


class TestReductionGrid:
    # the acceptance suite runs the full grid; spot-check the corners here
    @pytest.mark.parametrize(
        "target,values",
        [(1, (1,)), (2, (1,)), (3, (1, 2)), (2, (1, 1)), (3, (3, 3)), (1, (2, 3))],
    )
    def test_instance(self, target, values):
        assert check_np_instance(NpInstance(target, values)) is None


class TestAccounting:
    def test_canonical_runs_meter_f_and_u(self):
        for target, values in ((3, (1, 2)), (2, (1, 1)), (1, (1,)), (3, (3,))):
            inst = NpInstance(target, values)
            if not subset_sum_brute(target, values):
                continue
            program, meta = gen_np(inst)
            compiled = compile_counter_program(program)
            out = replay_canonical(
                compiled, np_canonical_policy(compiled.program, witness_subset(inst))
            )
            assert out.halting
            assert check_np_run_accounting(inst, out.run, compiled, meta) is None

    def test_bfs_found_runs_meter_f_and_u(self):
        for target, values in ((1, (1,)), (2, (1, 1)), (2, (2,))):
            inst = NpInstance(target, values)
            program, meta = gen_np(inst)
            compiled = compile_counter_program(program)
            bound = 8 * meta.threshold * (len(values) + 1)
            result = shortest_halting(compiled.vass, SearchBudget(bound, 8_000_000))
            assert result.verdict == Verdict.FOUND
            assert check_np_run_accounting(inst, result.run, compiled, meta) is None


def step_meter(inst, run, compiled, meta):
    """Reference for `check_np_run_accounting`: walk the run's expansion and
    find each step's component by scanning the components in order."""
    counters = compiled.program.counters
    f_ix, u_ix = counters.index("f"), counters.index("u")
    labels = compiled.program.labels
    starts = [labels[c.label] for c in meta.components]
    spans = list(zip(meta.components, starts, starts[1:] + [labels["end"]]))
    f_drop = {info.label: 0 for info in meta.components}
    u_hits = {info.label: 0 for info in meta.components}
    visited = set()
    for t in run.steps:
        line = compiled.line_of_state[t.src]
        for info, start, end in spans:
            if start <= line < end:
                visited.add(info.label)
                f_drop[info.label] -= t.delta[f_ix]
                u_hits[info.label] += t.delta[u_ix] != 0
                break
    for info in meta.components:
        if info.label not in visited:
            continue
        if f_drop[info.label] != meta.threshold:
            return (f"{inst}: component {info.label} moved f by {f_drop[info.label]}, "
                    f"expected {meta.threshold}")
        expected_hits = info.amount if info.active else 0
        if u_hits[info.label] != expected_hits:
            return (f"{inst}: component {info.label} touched u {u_hits[info.label]} times, "
                    f"expected {expected_hits}")
    return None


def seeded_yes_instance(seed, k, value_bits):
    """k values below 2^value_bits and, as target, the sum of a seeded
    nonempty subset of them; returns the instance and that subset."""
    rng = random.Random(seed)
    values = tuple(rng.randrange(1, 2**value_bits) for _ in range(k))
    chosen = set(rng.sample(range(1, k + 1), rng.randint(1, k)))
    return NpInstance(sum(values[i - 1] for i in chosen), values), chosen


def with_amounts(meta, edits):
    """meta with the amounts of the components at the given positions moved."""
    components = list(meta.components)
    for at, by in edits.items():
        components[at] = dataclasses.replace(components[at], amount=components[at].amount + by)
    return dataclasses.replace(meta, components=tuple(components))


class TestBlockMeter:
    """`check_np_run_accounting` meters a run by its blocks, each copy's
    effect times the block's count.  On members small enough to expand it
    must give the step meter's result, on the canonical block form, on the
    plain form, on block counts moved off by one and on declared amounts
    moved off by one."""

    @pytest.mark.parametrize("seed, k, value_bits", [(1, 2, 3), (2, 3, 4), (3, 5, 4)])
    def test_matches_the_step_meter(self, seed, k, value_bits):
        inst, chosen = seeded_yes_instance(seed, k, value_bits)
        program, meta = gen_np(inst)
        compiled = compile_counter_program(program)
        run = replay_canonical(compiled, np_canonical_policy(compiled.program, chosen)).run
        blocks = list(run.blocks)
        runs = [run, Run(run.initial, run.steps)]
        rng = random.Random(seed)
        for at in rng.sample(range(len(blocks)), 20):
            ts, m = blocks[at]
            moved = (ts, m + rng.choice((-1, 1)))
            runs.append(Run.from_blocks(run.initial, blocks[:at] + [moved] + blocks[at + 1:]))
        metas = [meta, with_amounts(meta, {0: 1}), with_amounts(meta, {len(meta.components) - 1: -1})]
        outcomes = Counter()
        for r in runs:
            for mt in metas:
                want = step_meter(inst, r, compiled, mt)
                assert check_np_run_accounting(inst, r, compiled, mt) == want
                outcomes["ok" if want is None else want.split(" ")[-5]] += 1
        assert outcomes["ok"] >= 2 and {"f", "u"} <= set(outcomes)

    def test_canonical_run_at_k_16(self):
        # 1,194 blocks for 11,369,665 steps, which the meter never expands
        inst, chosen = seeded_yes_instance(16, 16, 12)
        program, meta = gen_np(inst)
        compiled = compile_counter_program(program)
        out = replay_canonical(compiled, np_canonical_policy(compiled.program, chosen))
        assert out.halting and (len(out.run.blocks), out.probe.length) == (1_194, 11_369_665)
        assert check_np_run_accounting(inst, out.run, compiled, meta) is None
        assert check_np_run_accounting(inst, out.run, compiled, with_amounts(meta, {0: 1})) == (
            f"{inst}: component load touched u {inst.target} times, expected {inst.target + 1}")


def mutate_drop_load_increments(program: CounterProgram) -> CounterProgram:
    """Break the load component: remove every `u += ...`, so the target is
    never charged to u and the all-skip schedule halts regardless of the
    instance."""
    from vasskit.lang import Add

    changed = []

    def rewrite(cmd):
        if isinstance(cmd, Add) and cmd.counter == "u":
            changed.append(True)
            return None
        if hasattr(cmd, "body"):
            body = tuple(c for c in (rewrite(x) for x in cmd.body) if c is not None)
            return type(cmd)(**{**cmd.__dict__, "body": body})
        if hasattr(cmd, "command"):
            inner = rewrite(cmd.command)
            return None if inner is None else type(cmd)(cmd.label, inner)
        return cmd

    body = tuple(c for c in (rewrite(x) for x in program.body) if c is not None)
    assert changed, "mutation found no u increment to drop"
    return CounterProgram(program.counters, body)


class TestNegativeControl:
    def test_mutated_component_breaks_the_reduction(self, monkeypatch):
        # with load no longer charging u, the all-skip run halts even though
        # the oracle says no subset fits; the checker must report it
        inst = NpInstance(2, (1,))  # negative instance: 2 is not a subset sum of {1}
        program, meta = gen_np(inst)
        mutated = mutate_drop_load_increments(program)
        assert mutated != program
        monkeypatch.setattr(families, "gen_np", lambda _inst: (mutated, meta))
        failure = check_np_instance(inst)
        assert failure is not None
        assert "halting=True but subset-sum=False" in failure
