"""Macro expansion: counter-program ASTs to flat numbered programs.

`for` unrolls with its meta-variable substituted per iteration, `if` keeps or
drops its body depending on the compile-time condition, and every `loop`
desugars to the four-line goto skeleton

    e:   goto x or e+1     (enter the body, or leave)
    e+1: <body>
    b:   goto e or e       (unconditionally back to the entry)
    x:   <following command>

so that structure-sensitive checks (flatness in particular) see exactly that
control graph.  Lines are renumbered densely and labels resolve to final line
numbers.  `pretty_print_flat` prints each numbered line with
`lang.format_command`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ExpansionError
from .lang import (
    Add, Command, CounterProgram, For, Goto, Halt, If, Init, Labeled, Loop,
    Sub, eval_cond, eval_expr, format_command,
)

# the most lines, and the most `for` iterations, one expansion makes
_MAX_LINES = 500_000


@dataclass(frozen=True)
class LoopSpan:
    """Line span of one desugared loop: entry goto, body, back goto, exit."""

    entry: int
    body_start: int
    back: int
    exit: int


@dataclass(frozen=True)
class FlatProgram:
    """Ground program: numbered lines of Init/Halt/Add/Sub/Goto only.

    Add/Sub amounts are positive ints and goto targets are line numbers
    (possibly one past the last line, meaning "fall off the end").  `loops`
    lists the desugared loop skeletons recovered from the goto structure and
    `labels` maps surviving source labels to line numbers.
    """

    counters: tuple[str, ...]
    lines: tuple[Command, ...]
    loops: tuple[LoopSpan, ...] = ()
    labels: dict[str, int] = field(default_factory=dict)

    def line(self, number: int) -> Command:
        return self.lines[number - 1]

    @property
    def halt(self) -> Halt | None:
        last = self.lines[-1] if self.lines else None
        return last if isinstance(last, Halt) else None


def _loop_spans(lines: list[Command]) -> tuple[LoopSpan, ...]:
    # Recover the four-line skeletons: a back goto at line b jumping to an
    # entry line e < b that reads `goto b+1 or e+1`.
    spans = []
    for b, cmd in enumerate(lines, start=1):
        if not isinstance(cmd, Goto) or cmd.first != cmd.second:
            continue
        e = cmd.first
        if not isinstance(e, int) or e >= b:
            continue
        entry = lines[e - 1]
        if isinstance(entry, Goto) and entry.first == b + 1 and entry.second == e + 1:
            spans.append(LoopSpan(e, e + 1, b, b + 1))
    return tuple(sorted(spans, key=lambda s: s.entry))


def expand(program: CounterProgram) -> FlatProgram:
    """Expand all macros; deterministic, and idempotent on its own output.
    Past `_MAX_LINES` lines, or `_MAX_LINES` `for` iterations (a `for` body
    may emit no line), raises ExpansionError."""
    max_lines = _MAX_LINES
    out: list[Command | None] = []
    iterations = 0  # `for` iterations so far
    labels: dict[str, int] = {}
    goto_lines: list[int] = []  # 0-based indices of emitted gotos
    declared = set(program.counters)
    # one ground Add or Sub per (kind, counter, amount), shared by its lines
    ground: dict[tuple[type, str, int], Command] = {}

    def emit(cmd: Command | None) -> int:
        if len(out) >= max_lines:
            raise ExpansionError(f"expansion exceeds budget of {max_lines} lines")
        out.append(cmd)
        return len(out)  # 1-based line number just emitted

    def check_counter(name: str):
        if name not in declared:
            raise ExpansionError(f"undeclared counter {name!r}")

    def walk(commands, env: dict[str, int]):
        nonlocal iterations
        for cmd in commands:
            while isinstance(cmd, Labeled):
                if cmd.label in labels:
                    raise ExpansionError(f"duplicate label {cmd.label!r} after expansion")
                labels[cmd.label] = len(out) + 1
                cmd = cmd.command
            if isinstance(cmd, (Add, Sub)):
                check_counter(cmd.counter)
                amount = cmd.amount if isinstance(cmd.amount, int) else eval_expr(cmd.amount, env)
                if amount <= 0:
                    raise ExpansionError(
                        f"{'increment' if isinstance(cmd, Add) else 'decrement'} of "
                        f"{cmd.counter!r} by non-positive amount {amount}"
                    )
                key = (type(cmd), cmd.counter, amount)
                emit(ground.get(key) or ground.setdefault(key, type(cmd)(cmd.counter, amount)))
            elif isinstance(cmd, Init):
                emit(cmd)
            elif isinstance(cmd, Halt):
                for c in cmd.tested:
                    check_counter(c)
                emit(cmd)
            elif isinstance(cmd, Goto):
                goto_lines.append(len(out))
                emit(cmd)
            elif isinstance(cmd, Loop):
                if not cmd.body:
                    raise ExpansionError("loop body is empty")
                entry_ix = len(out)
                emit(None)  # patched below once the exit line is known
                walk(cmd.body, env)
                if len(out) == entry_ix + 1:
                    # an empty body would leave a control cycle with no effect
                    raise ExpansionError(f"loop at line {entry_ix + 1}: body expands to no lines")
                back = emit(Goto(entry_ix + 1, entry_ix + 1))
                out[entry_ix] = Goto(back + 1, entry_ix + 2)
            elif isinstance(cmd, For):
                start = eval_expr(cmd.start, env)
                stop = eval_expr(cmd.stop, env)
                values = range(start, stop - 1, -1) if cmd.downward else range(start, stop + 1)
                for value in values:
                    walk(cmd.body, {**env, cmd.var: value})
                    iterations += 1
                    if iterations > max_lines:
                        raise ExpansionError(
                            f"expansion exceeds budget of {max_lines} for iterations")
            elif isinstance(cmd, If):
                if eval_cond(cmd.condition, env):
                    walk(cmd.body, env)
            else:
                raise ExpansionError(f"cannot expand command {cmd!r}")

    walk(program.body, {})
    if not out:
        raise ExpansionError("program expands to no lines")

    n = len(out)
    assert all(cmd is not None for cmd in out)
    lines: list[Command] = list(out)  # type: ignore[arg-type]

    # Resolve goto targets to line numbers.
    has_halt = isinstance(lines[-1], Halt)
    limit = n if has_halt else n + 1

    def resolve(target) -> int:
        if isinstance(target, int):
            resolved = target
        elif target in labels:
            resolved = labels[target]
        elif isinstance(target, str) and target.isdigit():
            # a number that is no label names the line just past the last
            # one, where control falls off the end of a halt-less fragment
            if has_halt:
                raise ExpansionError(
                    f"goto target {target!r} falls off the end of a program that ends in halt")
            resolved = n + 1
        else:
            raise ExpansionError(f"unresolved goto target {target!r}")
        if not 1 <= resolved <= limit:
            raise ExpansionError(f"goto target {resolved} out of range 1..{limit}")
        return resolved

    for ix in goto_lines:
        g = lines[ix]
        assert isinstance(g, Goto)
        lines[ix] = Goto(resolve(g.first), resolve(g.second))

    # Structural checks: init only first, halt only last.
    for ln, cmd in enumerate(lines, start=1):
        if isinstance(cmd, Init) and ln != 1:
            raise ExpansionError(f"init at line {ln}; it may only be the first command")
        if isinstance(cmd, Halt) and ln != n:
            raise ExpansionError(f"halt at line {ln}; it may only be the last command")

    return FlatProgram(
        counters=program.counters,
        lines=tuple(lines),
        loops=_loop_spans(lines),
        labels=labels,
    )


def pretty_print_flat(flat: FlatProgram) -> str:
    """Numbered-line text form; parsing and re-expanding it reproduces `flat`."""
    out = [f"counters {' '.join(flat.counters)}"] if flat.counters else []
    out += [f"{ln}: {format_command(cmd)}" for ln, cmd in enumerate(flat.lines, start=1)]
    return "\n".join(out) + "\n"
