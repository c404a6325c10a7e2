"""End-to-end checks of the Subset-Sum reduction beyond the grid: canonical
runs, per-component accounting, and the negative mutation control."""

import itertools

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
from vasskit.vass import validate_run
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
