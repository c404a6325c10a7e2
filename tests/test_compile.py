import pytest

from vasskit import interp
from vasskit.compiler import compile_counter_program, compile_program
from vasskit.errors import BudgetExceededError, ExpansionError
from vasskit.expand import expand
from vasskit.families import gen_exp, gen_hp, gen_weak, gen_weak_mult, with_initial_values
from vasskit.interp import reachable_line_configs
from vasskit.lang import parse
from vasskit.search import SearchBudget, reachable_configs
from vasskit.vass import is_flat

from test_vass import ref_simple_cycles


class TestStructure:
    def test_one_state_per_line_plus_end(self):
        compiled = compile_counter_program(gen_weak(2))
        flat = compiled.program
        # halt-less fragment: one state per line plus the fall-off end state
        assert len(compiled.vass.states) == len(flat.lines) + 1
        assert compiled.vass.dimension == len(flat.counters)

    def test_trivial_halt_program(self):
        compiled = compile_counter_program(parse("counters x\ninit\nhalt x\n"))
        v = compiled.vass
        assert len(v.states) == 2
        assert v.source.state == "L1" and v.source.vector == (0,)
        assert v.target.state == "L2" and v.target.vector == (0,)
        # the init step reaches the halt state with the zero vector
        from vasskit.search import Verdict, shortest_halting

        res = shortest_halting(v, SearchBudget(2))
        assert res.verdict == Verdict.FOUND and len(res.run) == 1

    def test_halt_completion_drain_chain(self):
        # halt y in a 3-counter program: x and z get one drain state each
        compiled = compile_counter_program(gen_exp(1))
        v = compiled.vass
        halt_line = len(compiled.program.lines)
        assert compiled.halt_state == f"L{halt_line}"
        assert [c for _s, c in compiled.drain_chain] == ["x", "z"]
        chain_states = [s for s, _c in compiled.drain_chain]
        assert chain_states[0] == compiled.halt_state
        assert v.target.state == chain_states[-1]
        assert v.target.vector == (0, 0, 0)
        # each drain state carries exactly one self-loop
        for state, counter in compiled.drain_chain:
            loops = [t for t in v.transitions if t.src == state and t.dst == state]
            assert len(loops) == 1
            ci = compiled.program.counters.index(counter)
            assert loops[0].delta[ci] == -1

    def test_flatness_preserved_by_completion(self):
        assert is_flat(compile_counter_program(gen_exp(1)).vass).is_flat

    def test_goto_with_equal_targets_merges(self):
        compiled = compile_counter_program(
            parse("counters x\ninit\ngoto 3 or 3\n3: halt x\n")
        )
        outgoing = [t for t in compiled.vass.transitions if t.src == "L2"]
        assert len(outgoing) == 1

    def test_unexpanded_program_rejected(self):
        from vasskit.expand import FlatProgram
        from vasskit.lang import Goto, Init

        bogus = FlatProgram(("x",), (Init(), Goto("nowhere", "nowhere")))
        with pytest.raises(ExpansionError):
            compile_program(bogus)


class TestFigureStructure:
    def test_weak2_compiles_to_four_cycle_chain(self):
        # four looping blocks, alternating net effects (-1,1) and (2,-1)
        compiled = compile_counter_program(gen_weak(2))
        cycles = ref_simple_cycles(compiled.vass)
        assert len(cycles) == 4
        assert is_flat(compiled.vass).is_flat
        nets = []
        for cyc in sorted(cycles, key=lambda c: min(t.src for t in c)):
            nets.append(tuple(sum(t.delta[i] for t in cyc) for i in range(2)))
        assert sorted(nets) == sorted([(-1, 1), (2, -1), (-1, 1), (2, -1)])


class TestCompilerSemantics:
    # the flat-program interpreter is the compiler-independent oracle
    def corpus(self):
        yield expand(gen_weak(1))
        yield expand(gen_weak(2))
        yield expand(gen_weak(6))
        yield expand(with_initial_values(gen_weak_mult(3, 2), {"x": 2, "y": 3}))
        yield expand(with_initial_values(gen_hp(3, 2), {"x": 4, "z": 2}))
        yield expand(parse("counters x y\ninit\nx += 3\nloop\n  x -= 1\n  y += 2\nendloop\nhalt x\n"))

    def test_reachable_sets_match(self):
        bound = 20
        for flat in self.corpus():
            compiled = compile_program(flat)
            want = reachable_line_configs(flat, bound)
            reach = reachable_configs(
                compiled.vass,
                SearchBudget(bound, 2_000_000),
                absorbing=frozenset({compiled.halt_state}),
            )
            got = {
                (compiled.line_of_state[state], vec)
                for state, vectors in reach.items()
                for vec in vectors
            }
            assert got == want

    def test_interpreter_node_budget(self, monkeypatch):
        # weak(1) reaches 8 (line, vector) pairs at bound 6
        monkeypatch.setattr(interp, "_MAX_CONFIGS", 5)
        with pytest.raises(BudgetExceededError, match="^interpreter exploration exceeded 5 configurations$"):
            reachable_line_configs(expand(gen_weak(1)), 6)
