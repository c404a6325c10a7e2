"""Counter-program AST, concrete syntax, parser, and pretty printer.

A counter program is a sequence of commands over named counters: increments,
decrements, nondeterministic two-way gotos, an `init` that zeroes all
counters, and a final `halt` that zero-tests a chosen subset.  Two
preprocessing macros, `for` over a meta-variable and `if` over a compile-time
condition, plus the `loop` shorthand for a nondeterministically repeated
block, make repetitive programs writable; `expand` (see expand.py) removes
them.

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
    endfor
    if bit(6, i) = 1 then
      x += 1
    endif
    lbl: goto lbl or other
    halt y z

`counters` may be omitted, in which case counters are collected in order of
first use.  `init`/`halt` may be omitted for program fragments.  Labels are
identifiers or line numbers; `# ...` comments run to end of line.

`format_command` prints a ground command (init, halt, increment, decrement,
goto); `pretty_print` and `expand.pretty_print_flat` both use it.  The block
commands `loop`, `for` and `if` share one rule for parsing a body with its
end line and one for printing it, keyed by their end keyword in `_END`.
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
    line: int
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
        toks.append(_Tok(kind, value, lineno, m.start() + 1))
    return toks


class _LineCursor:
    """Cursor over one logical line's tokens."""

    def __init__(self, toks: list[_Tok], lineno: int):
        self.toks = toks
        self.pos = 0
        self.lineno = lineno

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of line", self.lineno)
        self.pos += 1
        return t

    def accept(self, kind: str, text: str | None = None) -> _Tok | None:
        t = self.peek()
        if t and t.kind == kind and (text is None or t.text == text):
            self.pos += 1
            return t
        return None

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        t = self.peek()
        if t is None or t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            got = t.text if t else "end of line"
            raise ParseError(f"expected {want!r}, got {got!r}", self.lineno,
                             t.col if t else None)
        self.pos += 1
        return t

    def done(self) -> bool:
        return self.pos >= len(self.toks)

    def require_done(self):
        t = self.peek()
        if t is not None:
            raise ParseError(f"trailing input {t.text!r}", self.lineno, t.col)


# Expression grammar: expr := term (('+'|'-') term)*
#                     term := pow ('*' pow)* ; pow := atom ['^' pow]
#                     atom := NUM | IDENT | '-' atom | '(' expr ')'

def _parse_expr(cur: _LineCursor) -> MetaExpr:
    e = _parse_term(cur)
    while True:
        if cur.accept("op", "+"):
            e = BinOp("+", e, _parse_term(cur))
        elif cur.accept("op", "-"):
            e = BinOp("-", e, _parse_term(cur))
        else:
            return e


def _parse_term(cur: _LineCursor) -> MetaExpr:
    e = _parse_pow(cur)
    while cur.accept("op", "*"):
        e = BinOp("*", e, _parse_pow(cur))
    return e


def _parse_pow(cur: _LineCursor) -> MetaExpr:
    base = _parse_atom(cur)
    if cur.accept("op", "^"):
        return Pow(base, _parse_pow(cur))
    return base


def _parse_atom(cur: _LineCursor) -> MetaExpr:
    if cur.accept("op", "-"):
        inner = _parse_atom(cur)
        if isinstance(inner, Lit):
            return Lit(-inner.value)
        return BinOp("-", Lit(0), inner)
    if cur.accept("op", "("):
        e = _parse_expr(cur)
        cur.expect("op", ")")
        return e
    t = cur.peek()
    if t is None:
        raise ParseError("expected expression", cur.lineno)
    if t.kind == "num":
        cur.next()
        return Lit(int(t.text))
    if t.kind == "ident":
        cur.next()
        return Var(t.text)
    raise ParseError(f"expected expression, got {t.text!r}", cur.lineno, t.col)


def _parse_cond(cur: _LineCursor) -> MetaCond:
    if cur.accept("kw", "bit"):
        cur.expect("op", "(")
        value = _parse_expr(cur)
        cur.expect("op", ",")
        index = _parse_expr(cur)
        cur.expect("op", ")")
        cur.expect("op", "=")
        bit_tok = cur.expect("num")
        if bit_tok.text not in ("0", "1"):
            raise ParseError("bit test compares against 0 or 1", cur.lineno, bit_tok.col)
        return BitTest(value, index, int(bit_tok.text))
    left = _parse_expr(cur)
    t = cur.peek()
    if t is None or t.kind != "op" or t.text not in ("=", "!=", "<", "<=", ">", ">="):
        raise ParseError("expected comparison operator", cur.lineno, t.col if t else None)
    cur.next()
    right = _parse_expr(cur)
    return Compare(t.text, left, right)


# ---------------------------------------------------------------------------
# Parser


class _Lines:
    def __init__(self, text: str):
        self.lines: list[_LineCursor] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0]
            toks = _tokenize_line(body, lineno)
            if toks:
                self.lines.append(_LineCursor(toks, lineno))
        self.pos = 0

    def peek(self) -> _LineCursor | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self) -> _LineCursor:
        cur = self.peek()
        if cur is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return cur


def _starts_with_kw(cur: _LineCursor, kw: str) -> bool:
    t = cur.peek()
    return t is not None and t.kind == "kw" and t.text == kw


def _parse_block(
    lines: _Lines, end: str | None, ctx: "_ParseCtx", opened: int | None = None
) -> tuple[Command, ...]:
    """The commands up to the line that starts with keyword `end`, which is
    consumed and must hold nothing else; with `end` None, up to end of input.
    `opened` is the line of the block's head, which a missing `end` names.
    While the body is parsed, `ctx.block` is `end`."""
    outer, ctx.block = ctx.block, end
    body: list[Command] = []
    while (cur := lines.peek()) is not None:
        lines.next()
        if end is not None and _starts_with_kw(cur, end):
            cur.next()
            cur.require_done()
            ctx.block = outer
            return tuple(body)
        body.append(_parse_command(cur, lines, ctx))
    if end is not None:
        raise ParseError(f"missing {end}", opened)
    return tuple(body)


class _ParseCtx:
    def __init__(self):
        self.declared: tuple[str, ...] | None = None
        self.seen_counters: list[str] = []
        self.labels: dict[str, int] = {}  # label -> source line (for dup checks)
        self.goto_targets: list[tuple[str, int]] = []
        self.saw_halt = False
        self.command_count = 0
        self.block: str | None = None  # end keyword of the innermost open block

    def use_counter(self, name: str, lineno: int):
        if self.declared is not None:
            if name not in self.declared:
                raise ParseError(f"undeclared counter {name!r}", lineno)
        elif name not in self.seen_counters:
            self.seen_counters.append(name)


def _parse_command(cur: _LineCursor, lines: _Lines, ctx: _ParseCtx) -> Command:
    lineno = cur.lineno
    ctx.command_count += 1
    if ctx.saw_halt:
        raise ParseError("halt must be the last command", lineno)

    # Optional label: IDENT ':' or NUM ':' at line start.
    label = None
    t0 = cur.peek()
    if (
        t0 is not None
        and t0.kind in ("ident", "num")
        and cur.pos + 1 < len(cur.toks)
        and cur.toks[cur.pos + 1].kind == "op"
        and cur.toks[cur.pos + 1].text == ":"
    ):
        cur.next()
        cur.next()
        label = t0.text
        if label in ctx.labels:
            raise ParseError(f"duplicate label {label!r}", lineno)
        ctx.labels[label] = lineno

    cmd = _parse_bare_command(cur, lines, ctx, lineno)
    if label is not None:
        cmd = Labeled(label, cmd)
    return cmd


def _parse_bare_command(cur: _LineCursor, lines: _Lines, ctx: _ParseCtx, lineno: int) -> Command:
    t = cur.peek()
    if t is None:
        raise ParseError("empty command", lineno)

    if t.kind == "kw":
        if t.text == "init":
            cur.next()
            cur.require_done()
            return Init()
        if t.text == "halt":
            if ctx.block is not None:
                raise ParseError(f"halt inside {ctx.block.removeprefix('end')} body", lineno)
            cur.next()
            tested = []
            while not cur.done():
                cur.accept("op", ",")
                if cur.done():
                    break
                tok = cur.expect("ident")
                ctx.use_counter(tok.text, lineno)
                tested.append(tok.text)
            ctx.saw_halt = True
            return Halt(tuple(tested))
        if t.text == "goto":
            cur.next()
            first = _parse_goto_target(cur, ctx)
            cur.expect("kw", "or")
            second = _parse_goto_target(cur, ctx)
            cur.require_done()
            return Goto(first, second)
        if t.text == "loop":
            cur.next()
            cur.require_done()
            body = _parse_block(lines, _END[Loop], ctx, lineno)
            if not body:
                raise ParseError("loop body is empty", lineno)
            return Loop(body)
        if t.text == "for":
            cur.next()
            var = cur.expect("ident").text
            cur.expect("op", ":=")
            start = _parse_expr(cur)
            if cur.accept("kw", "downto"):
                downward = True
            else:
                cur.expect("kw", "to")
                downward = False
            stop = _parse_expr(cur)
            cur.require_done()
            return For(var, start, stop, downward, _parse_block(lines, _END[For], ctx, lineno))
        if t.text == "if":
            cur.next()
            cond = _parse_cond(cur)
            cur.expect("kw", "then")
            cur.require_done()
            return If(cond, _parse_block(lines, _END[If], ctx, lineno))
        raise ParseError(f"unexpected keyword {t.text!r}", lineno, t.col)

    if t.kind == "ident":
        name = cur.next().text
        op = cur.peek()
        if op is None or op.kind != "op" or op.text not in ("+=", "-="):
            raise ParseError(f"expected '+=' or '-=' after counter {name!r}", lineno,
                             op.col if op else None)
        cur.next()
        ctx.use_counter(name, lineno)
        amount = _parse_expr(cur)
        cur.require_done()
        return Add(name, amount) if op.text == "+=" else Sub(name, amount)

    raise ParseError(f"cannot parse command starting with {t.text!r}", lineno, t.col)


def _parse_goto_target(cur: _LineCursor, ctx: _ParseCtx) -> str:
    t = cur.peek()
    if t is None or t.kind not in ("ident", "num"):
        raise ParseError("expected goto target", cur.lineno, t.col if t else None)
    cur.next()
    ctx.goto_targets.append((t.text, t.line))
    return t.text


def parse(text: str) -> CounterProgram:
    """Parse counter-program text into an AST.

    Raises ParseError with source position for syntax errors, undeclared
    or duplicate counters (when a `counters` header is present), duplicate
    or unresolved labels, a `halt` that is not the final command or sits
    inside a block, a loop with no commands, and a block with no end line
    (named by the line that opens it).
    """
    lines = _Lines(text)
    ctx = _ParseCtx()

    head = lines.peek()
    if head is not None and _starts_with_kw(head, "counters"):
        lines.next()
        head.next()
        names = []
        while not head.done():
            head.accept("op", ",")
            name = head.expect("ident").text
            if name in names:
                raise ParseError(f"duplicate counter {name!r}", head.lineno)
            names.append(name)
        if not names:
            raise ParseError("counters header lists no counters", head.lineno)
        ctx.declared = tuple(names)

    body = _parse_block(lines, None, ctx)

    # Numeric targets may also name the line just past the last command
    # (where control falls off the end of a halt-less fragment).
    for target, lineno in ctx.goto_targets:
        if target in ctx.labels:
            continue
        if target.isdigit() and int(target) == ctx.command_count + 1:
            continue
        raise ParseError(f"unresolved goto target {target!r}"
                         + (" (no such line)" if target.isdigit() else ""), lineno)

    counters = ctx.declared if ctx.declared is not None else tuple(ctx.seen_counters)
    return CounterProgram(counters, body)


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
