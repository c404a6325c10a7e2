"""Compilation of flat counter programs to VASS reachability instances.

One state per line, named "L<line>".  Increments and decrements become
single transitions carrying the scaled unit delta; a two-way goto becomes two
zero-delta transitions (one, when both targets agree).  The source is the
first line's state with the zero vector.

A `halt x1 .. xl` line zero-tests only the listed counters, but a VASS
target must pin the whole vector, so each untested counter gets a drain
loop just before halting completes: the halt line's state carries a
single-counter decrement self-loop for the first untested counter and
chains through one synthesized state per further untested counter (states
"L<line>__drain_<counter>").  The target is the end of that chain with the
zero vector.  Spreading the drains over a chain keeps one simple cycle per
state, so completion never breaks flatness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExpansionError
from .expansion import FlatProgram, expand
from .lang import Add, CounterProgram, Goto, Halt, Init, Sub
from .vass import Configuration, Transition, Vass


@dataclass(frozen=True)
class CompiledProgram:
    """A Vass plus the line/state bookkeeping the search layer needs."""

    program: FlatProgram
    vass: Vass
    line_states: tuple[str, ...]  # line i (1-based) -> state line_states[i-1]
    halt_state: str  # state of the final line (halt line, or synthesized end)
    line_of_state: dict[str, int]  # every state -> owning line
    drain_chain: tuple[tuple[str, str], ...] = ()  # (state, drained counter) pairs


def compile_program(flat: FlatProgram) -> CompiledProgram:
    if not flat.lines:
        raise ValueError("cannot compile an empty program")
    n = len(flat.lines)
    dim = len(flat.counters)
    cix = {c: i for i, c in enumerate(flat.counters)}
    zero = (0,) * dim

    def unit(counter: str, scale: int) -> tuple[int, ...]:
        d = [0] * dim
        d[cix[counter]] = scale
        return tuple(d)

    # Every state of line l is L<l>, line n + 1 included when control can
    # fall off the end; the last of them is where halting completes.
    last = n if flat.halt is not None else n + 1
    states = [f"L{line}" for line in range(1, last + 1)]
    line_states = tuple(states[:n])
    line_of_state = {s: line for line, s in enumerate(states, start=1)}

    def state_of(line: int) -> str:
        return states[line - 1]

    transitions: list[Transition] = []
    halt_state = target_state = states[-1]
    drain_chain: tuple[tuple[str, str], ...] = ()

    for ln, cmd in enumerate(flat.lines, start=1):
        src = state_of(ln)
        if isinstance(cmd, Init):
            transitions.append(Transition(src, zero, state_of(ln + 1)))
        elif isinstance(cmd, Add):
            transitions.append(Transition(src, unit(cmd.counter, cmd.amount), state_of(ln + 1)))
        elif isinstance(cmd, Sub):
            transitions.append(Transition(src, unit(cmd.counter, -cmd.amount), state_of(ln + 1)))
        elif isinstance(cmd, Goto):
            for target in {cmd.first, cmd.second}:
                if not isinstance(target, int):
                    raise ExpansionError(f"unresolved goto target {target!r}; expand first")
                transitions.append(Transition(src, zero, state_of(target)))
        elif isinstance(cmd, Halt):
            untested = [c for c in flat.counters if c not in cmd.tested]
            chain = [src]
            for c in untested[1:]:
                extra = f"{src}__drain_{c}"
                states.append(extra)
                line_of_state[extra] = ln
                chain.append(extra)
            for where, c in zip(chain, untested):
                transitions.append(Transition(where, unit(c, -1), where))
            for here, there in zip(chain, chain[1:]):
                transitions.append(Transition(here, zero, there))
            target_state = chain[-1]
            drain_chain = tuple(zip(chain, untested))
        else:
            raise ExpansionError(f"non-ground command at line {ln}: {cmd!r}; expand first")

    vass = Vass(
        dimension=dim,
        states=tuple(states),
        transitions=tuple(transitions),
        source=Configuration(state_of(1), zero),
        target=Configuration(target_state, zero),
    )
    return CompiledProgram(
        program=flat,
        vass=vass,
        line_states=line_states,
        halt_state=halt_state,
        line_of_state=line_of_state,
        drain_chain=drain_chain,
    )


def compile_counter_program(program: CounterProgram) -> CompiledProgram:
    """expand + compile in one step."""
    return compile_program(expand(program))
