"""Seeded random `.cp` programs and the properties every one of them keeps.

`random_program(seed)` writes the text of a small well-formed program: at
most 3 counters; `loop`, `for` and `if` blocks nested two deep, with
meta-expressions and conditions; named and numeric labels and gotos; with
and without a `counters` header, `init` and `halt`.  The generator works on
text and evaluates its meta-expressions itself, so it shares no code with
the parser, the pretty printer or `expand`.

Well-formed means that `parse` and `expand` accept it:
- a label sits only where expansion emits its command once, outside `for`
  and `if` bodies, and every label a goto names is placed;
- every `loop` body holds a counter move at its own level, so it never
  expands to nothing;
- every amount is 1..3 and every bit test's arguments are nonnegative,
  under each binding of the meta-variables in scope;
- a number that is no label is a goto target only in a program without
  `halt`, where it is the line just past the last command.
"""

import random
import re

from vasskit.compiler import compile_program
from vasskit.expand import expand, pretty_print_flat
from vasskit.interp import reachable_line_configs
from vasskit.lang import parse, pretty_print
from vasskit.search import (
    SearchBudget, Verdict, final_vectors, halting_reachable, reachable_configs, shortest_halting,
)
from vasskit.vass import Vass, validate_run

from test_search import per_transition_shortest

SEEDS = range(1000)
COUNTERS = ("x", "y", "z")
META_VARS = ("i", "j")
LABELS = ("a", "top", "l'", "7", "12")
FALL_OFF = "@fall-off@"  # replaced by the line past the last command


class _Expr:
    """The text of a meta-expression and its value under each binding."""

    def __init__(self, text: str, values: list[int], atom: bool):
        self.text, self.values, self.atom = text, values, atom

    def wrapped(self) -> str:
        return self.text if self.atom else f"({self.text})"


class _Gen:
    def __init__(self, seed: int):
        rng = self.rng = random.Random(seed)
        self.counters = rng.sample(COUNTERS, rng.randint(1, 3))
        self.halts = rng.random() < 0.5
        self.labels = rng.sample(LABELS, rng.randint(0, 3))
        self.unplaced = list(self.labels)
        self.lines: list[str] = []
        self.commands = 0

    def emit(self, depth: int, text: str, command: bool = True):
        self.lines.append("  " * depth + text + self.rng.choice(["", "", "  # note"]))
        self.commands += command

    def expr(self, envs: list[dict[str, int]], scope: list[str], depth: int) -> _Expr:
        rng = self.rng
        pick = rng.randrange(7 if depth else 2)
        if pick == 0 or (pick == 1 and not scope):
            value = rng.randint(0, 3)
            return _Expr(str(value), [value] * len(envs), True)
        if pick == 1:
            var = rng.choice(scope)
            return _Expr(var, [env[var] for env in envs], True)
        a = self.expr(envs, scope, depth - 1)
        if pick == 2:
            return _Expr(f"-{a.wrapped()}", [-v for v in a.values], True)
        if pick == 3:
            e = rng.randint(0, 2)
            return _Expr(f"{a.wrapped()}^{e}", [v**e for v in a.values], False)
        b = self.expr(envs, scope, depth - 1)
        op = "+-*"[pick - 4]
        values = [{"+": p + q, "-": p - q, "*": p * q}[op] for p, q in zip(a.values, b.values)]
        return _Expr(f"{a.wrapped()} {op} {b.wrapped()}", values, False)

    def expr_within(self, envs, scope, low: int, high: int) -> _Expr:
        for _ in range(20):
            e = self.expr(envs, scope, 2)
            if all(low <= v <= high for v in e.values):
                return e
        return _Expr(str(low), [low] * len(envs), True)

    def cond(self, envs, scope) -> str:
        if self.rng.random() < 0.4:
            value = self.expr_within(envs, scope, 0, 7).text
            index = self.expr_within(envs, scope, 0, 3).text
            return f"bit({value}, {index}) = {self.rng.randint(0, 1)}"
        op = self.rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return f"{self.expr(envs, scope, 2).text} {op} {self.expr(envs, scope, 2).text}"

    def move(self, envs, scope) -> str:
        op = self.rng.choice(["+=", "+=", "-="])
        return f"{self.rng.choice(self.counters)} {op} {self.expr_within(envs, scope, 1, 3).text}"

    def block(self, depth: int, envs, scope, in_macro: bool):
        """1 to 3 commands, one of them a counter move."""
        count = self.rng.randint(1, 3)
        must = self.rng.randrange(count)
        for k in range(count):
            self.command(depth, envs, scope, in_macro, k == must)

    def command(self, depth: int, envs, scope, in_macro: bool, move: bool):
        rng = self.rng
        label = ""
        if not in_macro and self.unplaced and rng.random() < 0.4:
            label = f"{self.unplaced.pop()}: "
        targets = self.labels + ([] if self.halts else [FALL_OFF])
        kinds = ["move", "move", "goto"] + (["loop", "for", "if"] if depth < 2 else [])
        kind = "move" if move else rng.choice(kinds)
        if kind == "move" or (kind == "goto" and not targets):
            self.emit(depth, label + self.move(envs, scope))
        elif kind == "goto":
            self.emit(depth, label + f"goto {rng.choice(targets)} or {rng.choice(targets)}")
        elif kind == "loop":
            self.emit(depth, label + "loop")
            self.block(depth + 1, envs, scope, in_macro)
            self.emit(depth, "endloop", command=False)
        elif kind == "if":
            self.emit(depth, label + f"if {self.cond(envs, scope)} then")
            self.block(depth + 1, envs, scope, True)
            self.emit(depth, "endif", command=False)
        else:
            var = next(v for v in META_VARS if v not in scope)
            start = self.expr_within(envs, scope, 0, 3)
            stop = self.expr_within(envs, scope, 0, 3)
            downward = rng.random() < 0.4
            word = "downto" if downward else "to"
            inner = []
            for env, a, b in zip(envs, start.values, stop.values):
                values = range(a, b - 1, -1) if downward else range(a, b + 1)
                inner += [{**env, var: value} for value in values]
            self.emit(depth, label + f"for {var} := {start.text} {word} {stop.text}")
            self.block(depth + 1, inner, scope + [var], True)
            self.emit(depth, "endfor", command=False)

    def program(self) -> str:
        rng = self.rng
        header = []
        if rng.random() < 0.6:
            header = ["counters " + rng.choice([" ", ", "]).join(self.counters)]
        if rng.random() < 0.6:
            self.emit(0, "init")
        self.block(0, [{}], [], False)
        halt_label = self.unplaced.pop() + ": " if self.halts and self.unplaced else ""
        while self.unplaced:
            self.emit(0, f"{self.unplaced.pop()}: {self.move([{}], [])}")
        if self.halts:
            tested = rng.sample(self.counters, rng.randint(0, len(self.counters)))
            self.emit(0, halt_label + " ".join(["halt", *[c + rng.choice(["", ","]) for c in tested]]))
        return "\n".join(header + self.lines) + "\n"


def random_program(seed: int) -> str:
    gen = _Gen(seed)
    return gen.program().replace(FALL_OFF, str(gen.commands + 1))


def test_generator_covers_the_language():
    texts = [random_program(seed) for seed in SEEDS]
    joined = "\n".join(texts)
    for feature in ("init", "halt x", "halt\n", "loop", "downto", " to ", "if ", "bit(", "goto",
                    "7: ", "l': ", "-=", "^", "*", ", "):
        assert feature in joined, feature
    assert {t.startswith("counters") for t in texts} == {True, False}
    assert re.search(r"^  (\S+: )?(loop|for|if)\b", joined, re.M), "no block nested in a block"
    assert any(FALL_OFF in _Gen(seed).program() for seed in SEEDS), "no fall-off target"
    assert random_program(3) == random_program(3)


def test_parse_pretty_print_round_trip():
    for seed in SEEDS:
        program = parse(random_program(seed))
        assert parse(pretty_print(program)) == program, seed


def test_expand_is_idempotent_through_flat_text():
    for seed in SEEDS:
        flat = expand(parse(random_program(seed)))
        text = pretty_print_flat(flat)
        again = expand(parse(text))
        assert (again.counters, again.lines, again.loops) == (flat.counters, flat.lines, flat.loops), seed
        assert pretty_print_flat(again) == text, seed


def test_interpreter_matches_compiled_vass():
    budget = SearchBudget(3, 200_000)
    for seed in SEEDS:
        flat = expand(parse(random_program(seed)))
        compiled = compile_program(flat)
        v, halt = compiled.vass, compiled.halt_state
        reach = reachable_configs(v, budget, absorbing=frozenset({halt}))
        got = {(compiled.line_of_state[s], vec) for s, vectors in reach.items() for vec in vectors}
        assert got == reachable_line_configs(flat, budget.counter_bound), seed
        # the halt state read alone, on a mapping no full read has decoded
        alone = reachable_configs(v, budget, absorbing=frozenset({halt})).get(halt, set())
        assert alone == reach.get(halt, set()) == final_vectors(v, budget, halt), seed


def test_vass_json_round_trip():
    for seed in SEEDS:
        v = compile_program(expand(parse(random_program(seed)))).vass
        text = v.to_json()
        again = Vass.from_json(text)
        assert again == v, seed
        assert again.to_json() == text, seed


def test_chain_and_per_transition_searches_agree():
    # halting_reachable and shortest_halting step along chains, and the
    # per-transition search without their target rule finds the same run,
    # storing no fewer configurations; no budget is reached at this bound
    budget = SearchBudget(3, 200_000)
    found = 0
    for seed in SEEDS:
        v = compile_program(expand(parse(random_program(seed)))).vass
        chains, steps = halting_reachable(v, budget), shortest_halting(v, budget)
        assert chains.verdict == steps.verdict != Verdict.BUDGET_EXCEEDED, seed
        verdict, run, stats = per_transition_shortest(v, budget)
        assert (verdict, run) == (steps.verdict, steps.run), seed
        assert steps.stats.expanded <= stats.expanded, seed
        if steps.verdict == Verdict.FOUND:
            report = validate_run(v, steps.run)
            assert report.ok and report.halting, seed
            found += 1
    assert found > 100
