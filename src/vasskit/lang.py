"""Counter-program AST, concrete syntax, parser, and pretty printer.

A counter program is a sequence of commands over named counters: increments,
decrements, nondeterministic two-way gotos, an `init` that zeroes all
counters, and a final `halt` that zero-tests a chosen subset.  Two
preprocessing macros, `for` over a meta-variable and `if` over a compile-time
condition, plus the `loop` shorthand for a nondeterministically repeated
block, make repetitive programs writable; `expand` (see expansion.py)
removes them.

Concrete syntax is line oriented, one command per line:

    counters x y z
    init
    x += 1
    loop
      x -= 1
      z += 1
    endloop
    for i := 3 downto 1
      x += i+1
      if bit(6, i) = 1 then
        x += 1
      endif
    endfor
    lbl: goto lbl or done
    done: halt y z

`counters` may be omitted, in which case counters are collected in order of
first use.  `init`/`halt` may be omitted for program fragments.  Labels are
identifiers or line numbers; a goto target that is a number but no label
names the line just past the last command, where control falls off the end
of a fragment; a program that ends in `halt` has no such line.  `# ...`
comments run to end of line.

`parse` keeps its whole state in one `_Parser`: the tokens of each nonblank
line, a cursor in the current line, and what the program has declared and
used so far (counters, labels, goto targets, the open block).  The
expression, condition, block and command rules are its methods, and the
block commands `loop`, `for` and `if` share one rule for a body and its end
line, keyed by their end keyword in `_END`.

`format_command` prints a ground command (init, halt, increment, decrement,
goto); `pretty_print` and `expansion.pretty_print_flat` both use it, and the
block commands share one rule for printing a body.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ExpansionError, ParseError

# ---------------------------------------------------------------------------
# Meta expressions and conditions


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: "MetaExpr"
    right: "MetaExpr"


@dataclass(frozen=True)
class Pow:
    base: "MetaExpr"
    exponent: "MetaExpr"


MetaExpr = Lit | Var | BinOp | Pow


@dataclass(frozen=True)
class Compare:
    op: str  # '=', '!=', '<', '<=', '>', '>='
    left: MetaExpr
    right: MetaExpr


@dataclass(frozen=True)
class BitTest:
    """bit(value, index) = expected, with bit 0 the least significant."""

    value: MetaExpr
    index: MetaExpr
    expected: int


MetaCond = Compare | BitTest


def eval_expr(e: MetaExpr, env: dict[str, int]) -> int:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExpansionError(f"unbound meta-variable {e.name!r}") from None
    if isinstance(e, BinOp):
        a, b = eval_expr(e.left, env), eval_expr(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        raise ExpansionError(f"unknown operator {e.op!r}")
    if isinstance(e, Pow):
        base, exp = eval_expr(e.base, env), eval_expr(e.exponent, env)
        if exp < 0:
            raise ExpansionError(f"negative exponent {exp} in meta-expression")
        return base**exp
    raise ExpansionError(f"not a meta-expression: {e!r}")


def eval_cond(c: MetaCond, env: dict[str, int]) -> bool:
    if isinstance(c, Compare):
        a, b = eval_expr(c.left, env), eval_expr(c.right, env)
        return {
            "=": a == b,
            "!=": a != b,
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
        }[c.op]
    if isinstance(c, BitTest):
        value = eval_expr(c.value, env)
        index = eval_expr(c.index, env)
        if value < 0 or index < 0:
            raise ExpansionError(f"bit({value}, {index}) needs nonnegative arguments")
        return ((value >> index) & 1) == c.expected
    raise ExpansionError(f"not a meta-condition: {c!r}")


# ---------------------------------------------------------------------------
# Commands

Amount = MetaExpr | int  # plain int only in expanded (flat) programs
Target = str | int  # goto targets: labels before expansion, line numbers after


@dataclass(frozen=True)
class Init:
    pass


@dataclass(frozen=True)
class Halt:
    tested: tuple[str, ...] = ()


@dataclass(frozen=True)
class Add:
    counter: str
    amount: Amount


@dataclass(frozen=True)
class Sub:
    counter: str
    amount: Amount


@dataclass(frozen=True)
class Goto:
    first: Target
    second: Target


@dataclass(frozen=True)
class Labeled:
    label: str
    command: "Command"


@dataclass(frozen=True)
class Loop:
    body: tuple["Command", ...]


@dataclass(frozen=True)
class For:
    var: str
    start: MetaExpr
    stop: MetaExpr
    downward: bool
    body: tuple["Command", ...]


@dataclass(frozen=True)
class If:
    condition: MetaCond
    body: tuple["Command", ...]


Command = Init | Halt | Add | Sub | Goto | Labeled | Loop | For | If

# the keyword that closes each block command's body
_END = {Loop: "endloop", For: "endfor", If: "endif"}


@dataclass(frozen=True)
class CounterProgram:
    """Parsed program or fragment: counter order fixes the VASS dimension order."""

    counters: tuple[str, ...]
    body: tuple[Command, ...]

    def __post_init__(self):
        if len(set(self.counters)) != len(self.counters):
            raise ValueError("duplicate counter names")


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<num>\d+)
  | (?P<op>:=|\+=|-=|!=|<=|>=|<|>|[-+*^():=,])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "counters", "init", "halt", "goto", "or", "loop", "endloop",
    "for", "to", "downto", "endfor", "if", "then", "endif", "bit",
}


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'ident' | 'num' | 'op' | 'kw'
    text: str
    col: int


def _tokenize_line(text: str, lineno: int) -> list[_Tok]:
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", lineno, m.start() + 1)
        value = m.group()
        if kind == "ident" and value in _KEYWORDS:
            kind = "kw"
        toks.append(_Tok(kind, value, m.start() + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """The whole parse state: the tokens of each nonblank line, tokenized up
    front; a cursor in the current line (`lineno`, `toks`, `pos`); and what
    the program has declared and used so far."""

    def __init__(self, text: str):
        self.lines: list[tuple[int, list[_Tok]]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            toks = _tokenize_line(raw.split("#", 1)[0], lineno)
            if toks:
                self.lines.append((lineno, toks))
        self.index = -1  # of the current line in `lines`
        self.lineno = 0
        self.toks: list[_Tok] = []
        self.pos = 0
        self.counters: list[str] = []  # the header's, else in order of first use
        self.declared = False  # whether a `counters` header fixed `counters`
        self.labels: dict[str, int] = {}  # label -> source line (for dup checks)
        self.goto_targets: list[tuple[str, int]] = []
        self.saw_halt = False
        self.command_count = 0
        self.block_end: str | None = None  # end keyword of the innermost open block

    def next_line(self) -> bool:
        """Move the cursor to the start of the next line; False at end of input."""
        self.index += 1
        if self.index >= len(self.lines):
            return False
        self.lineno, self.toks = self.lines[self.index]
        self.pos = 0
        return True

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def accept(self, kind: str, *texts: str) -> _Tok | None:
        """The next token, consumed, if it has this kind and (when `texts`
        are given) one of these texts; else None."""
        t = self.peek()
        if t and t.kind == kind and (not texts or t.text in texts):
            self.pos += 1
            return t
        return None

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        t = self.accept(kind, text) if text else self.accept(kind)
        if t is None:
            got = self.peek()
            raise self.error(f"expected {text or kind!r}, got "
                             f"{got.text if got else 'end of line'!r}", got)
        return t

    def require_done(self):
        t = self.peek()
        if t is not None:
            raise self.error(f"trailing input {t.text!r}", t)

    def error(self, message: str, at: _Tok | None) -> ParseError:
        return ParseError(message, self.lineno, at.col if at else None)

    def use_counter(self, name: str):
        if name not in self.counters:
            if self.declared:
                raise ParseError(f"undeclared counter {name!r}", self.lineno)
            self.counters.append(name)

    # Expression grammar: expr := term (('+'|'-') term)*
    #                     term := pow ('*' pow)* ; pow := atom ['^' pow]
    #                     atom := NUM | IDENT | '-' atom | '(' expr ')'

    def expr(self) -> MetaExpr:
        e = self.term()
        while op := self.accept("op", "+", "-"):
            e = BinOp(op.text, e, self.term())
        return e

    def term(self) -> MetaExpr:
        e = self.pow()
        while self.accept("op", "*"):
            e = BinOp("*", e, self.pow())
        return e

    def pow(self) -> MetaExpr:
        base = self.atom()
        if self.accept("op", "^"):
            return Pow(base, self.pow())
        return base

    def atom(self) -> MetaExpr:
        if self.accept("op", "-"):
            inner = self.atom()
            if isinstance(inner, Lit):
                return Lit(-inner.value)
            return BinOp("-", Lit(0), inner)
        if self.accept("op", "("):
            e = self.expr()
            self.expect("op", ")")
            return e
        t = self.peek()
        if t is None:
            raise ParseError("expected expression", self.lineno)
        self.pos += 1
        if t.kind == "num":
            return Lit(int(t.text))
        if t.kind == "ident":
            return Var(t.text)
        raise self.error(f"expected expression, got {t.text!r}", t)

    def cond(self) -> MetaCond:
        if self.accept("kw", "bit"):
            self.expect("op", "(")
            value = self.expr()
            self.expect("op", ",")
            index = self.expr()
            self.expect("op", ")")
            self.expect("op", "=")
            bit_tok = self.expect("num")
            if bit_tok.text not in ("0", "1"):
                raise self.error("bit test compares against 0 or 1", bit_tok)
            return BitTest(value, index, int(bit_tok.text))
        left = self.expr()
        op = self.accept("op", "=", "!=", "<", "<=", ">", ">=")
        if op is None:
            raise self.error("expected comparison operator", self.peek())
        return Compare(op.text, left, self.expr())

    def block(self, end: str | None, opened: int | None = None) -> tuple[Command, ...]:
        """The commands up to the line that starts with keyword `end`, which is
        consumed and must hold nothing else; with `end` None, up to end of input.
        `opened` is the line of the block's head, which a missing `end` names.
        While the body is parsed, `block_end` is `end`."""
        outer, self.block_end = self.block_end, end
        body: list[Command] = []
        while self.next_line():
            if end is not None and self.accept("kw", end):
                self.require_done()
                self.block_end = outer
                return tuple(body)
            body.append(self.command())
        if end is not None:
            raise ParseError(f"missing {end}", opened)
        return tuple(body)

    def command(self) -> Command:
        """The command on the current line, with its optional label
        (IDENT ':' or NUM ':' at line start)."""
        self.command_count += 1
        if self.saw_halt:
            raise ParseError("halt must be the last command", self.lineno)
        t = self.peek()
        if t.kind in ("ident", "num") and len(self.toks) > 1 and self.toks[1].text == ":":
            if t.text in self.labels:
                raise ParseError(f"duplicate label {t.text!r}", self.lineno)
            self.labels[t.text] = self.lineno
            self.pos = 2
            return Labeled(t.text, self.bare_command())
        return self.bare_command()

    def bare_command(self) -> Command:
        lineno = self.lineno
        t = self.peek()
        if t is None:
            raise ParseError("empty command", lineno)
        self.pos += 1
        if t.kind == "ident":
            op = self.accept("op", "+=", "-=")
            if op is None:
                raise self.error(f"expected '+=' or '-=' after counter {t.text!r}", self.peek())
            self.use_counter(t.text)
            amount = self.expr()
            self.require_done()
            return Add(t.text, amount) if op.text == "+=" else Sub(t.text, amount)
        if t.kind != "kw":
            raise self.error(f"cannot parse command starting with {t.text!r}", t)
        if t.text == "init":
            self.require_done()
            return Init()
        if t.text == "halt":
            if self.block_end is not None:
                raise ParseError(f"halt inside {self.block_end.removeprefix('end')} body", lineno)
            tested = []
            while self.peek() is not None:
                self.accept("op", ",")
                if self.peek() is None:
                    break
                tested.append(self.expect("ident").text)
                self.use_counter(tested[-1])
            self.saw_halt = True
            return Halt(tuple(tested))
        if t.text == "goto":
            first = self.goto_target()
            self.expect("kw", "or")
            second = self.goto_target()
            self.require_done()
            return Goto(first, second)
        if t.text == "loop":
            self.require_done()
            body = self.block(_END[Loop], lineno)
            if not body:
                raise ParseError("loop body is empty", lineno)
            return Loop(body)
        if t.text == "for":
            var = self.expect("ident").text
            self.expect("op", ":=")
            start = self.expr()
            downward = self.accept("kw", "downto") is not None
            if not downward:
                self.expect("kw", "to")
            stop = self.expr()
            self.require_done()
            return For(var, start, stop, downward, self.block(_END[For], lineno))
        if t.text == "if":
            cond = self.cond()
            self.expect("kw", "then")
            self.require_done()
            return If(cond, self.block(_END[If], lineno))
        raise self.error(f"unexpected keyword {t.text!r}", t)

    def goto_target(self) -> str:
        t = self.accept("ident") or self.accept("num")
        if t is None:
            raise self.error("expected goto target", self.peek())
        self.goto_targets.append((t.text, self.lineno))
        return t.text


def parse(text: str) -> CounterProgram:
    """Parse counter-program text into an AST.

    Raises ParseError with source position for syntax errors, undeclared
    or duplicate counters (when a `counters` header is present), duplicate
    or unresolved labels, a numeric goto target past the last command of a
    program that ends in `halt`, a `halt` that is not the final command or
    sits inside a block, a loop with no commands, and a block with no end
    line (named by the line that opens it).
    """
    p = _Parser(text)
    if p.next_line() and p.accept("kw", "counters"):
        while p.peek() is not None:
            p.accept("op", ",")
            name = p.expect("ident").text
            if name in p.counters:
                raise ParseError(f"duplicate counter {name!r}", p.lineno)
            p.counters.append(name)
        if not p.counters:
            raise ParseError("counters header lists no counters", p.lineno)
        p.declared = True
    else:
        p.index = -1  # no header: the body starts at the first line

    body = p.block(None)

    # Numeric targets may also name the line just past the last command
    # (where control falls off the end of a halt-less fragment).
    for target, lineno in p.goto_targets:
        if target in p.labels:
            continue
        if target.isdigit() and int(target) == p.command_count + 1:
            if p.saw_halt:
                raise ParseError(f"goto target {target!r} falls off the end of a program "
                                 "that ends in halt", lineno)
            continue
        raise ParseError(f"unresolved goto target {target!r}"
                         + (" (no such line)" if target.isdigit() else ""), lineno)

    return CounterProgram(tuple(p.counters), body)


# ---------------------------------------------------------------------------
# Pretty printer

_PREC = {"+": 1, "-": 1, "*": 2, "^": 3}


def format_expr(e: MetaExpr | int, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(e, int):
        return str(e)
    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        left = format_expr(e.left, prec, False)
        right = format_expr(e.right, prec, True)
        s = f"{left} {e.op} {right}"
        # '-' and binary chains are left associative; parenthesize when this
        # node sits where reparsing would regroup it.
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({s})"
        return s
    if isinstance(e, Pow):
        base = format_expr(e.base, _PREC["^"] + 1, False)
        exp = format_expr(e.exponent, _PREC["^"], True)
        s = f"{base}^{exp}"
        if _PREC["^"] < parent_prec:
            return f"({s})"
        return s
    raise TypeError(f"not a meta-expression: {e!r}")


def format_cond(c: MetaCond) -> str:
    if isinstance(c, Compare):
        return f"{format_expr(c.left)} {c.op} {format_expr(c.right)}"
    if isinstance(c, BitTest):
        return f"bit({format_expr(c.value)}, {format_expr(c.index)}) = {c.expected}"
    raise TypeError(f"not a meta-condition: {c!r}")


def format_command(cmd: Command) -> str:
    """The text of a ground command: init, halt, an increment, a decrement
    or a goto."""
    if isinstance(cmd, Init):
        return "init"
    if isinstance(cmd, Halt):
        return " ".join(("halt", *cmd.tested))
    if isinstance(cmd, (Add, Sub)):
        op = "+=" if isinstance(cmd, Add) else "-="
        return f"{cmd.counter} {op} {format_expr(cmd.amount)}"
    if isinstance(cmd, Goto):
        return f"goto {cmd.first} or {cmd.second}"
    raise TypeError(f"not a ground command: {cmd!r}")


def _block_head(cmd: Loop | For | If) -> str:
    if isinstance(cmd, Loop):
        return "loop"
    if isinstance(cmd, For):
        word = "downto" if cmd.downward else "to"
        return f"for {cmd.var} := {format_expr(cmd.start)} {word} {format_expr(cmd.stop)}"
    return f"if {format_cond(cmd.condition)} then"


def _format_command(cmd: Command, indent: int, out: list[str], labels: str = ""):
    # `labels` holds the "label: " prefixes to print inline on the head line
    pad = "  " * indent
    if isinstance(cmd, Labeled):
        _format_command(cmd.command, indent, out, f"{labels}{cmd.label}: ")
    elif type(cmd) in _END:
        out.append(pad + labels + _block_head(cmd))
        for c in cmd.body:
            _format_command(c, indent + 1, out)
        out.append(pad + _END[type(cmd)])
    else:
        out.append(pad + labels + format_command(cmd))


def pretty_print(program: CounterProgram) -> str:
    """Canonical text form; parse(pretty_print(p)) is structurally equal to p."""
    out = [f"counters {' '.join(program.counters)}"] if program.counters else []
    for cmd in program.body:
        _format_command(cmd, 0, out)
    return "\n".join(out) + "\n"
