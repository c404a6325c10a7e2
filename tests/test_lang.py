import importlib

import pytest

from vasskit.errors import ExpansionError, ParseError
from vasskit.expand import LoopSpan, expand, pretty_print_flat
from vasskit.lang import (
    Add, BinOp, BitTest, Compare, CounterProgram, For, Goto, Halt, If, Init,
    Labeled, Lit, Loop, Pow, Sub, Var, eval_cond, eval_expr, parse, pretty_print,
)

ALG_WEAK_MULT = """\
counters x y
loop
  x -= 1
  y += 1
endloop
loop
  x += 3
  y -= 2
endloop
"""

# the module itself: `vasskit.expand` is also the package's name for the function
expand_module = importlib.import_module("vasskit.expand")


class TestParse:
    def test_minimal_program(self):
        p = parse("init\nx += 1\nhalt x\n")
        assert p.counters == ("x",)
        assert p.body == (Init(), Add("x", Lit(1)), Halt(("x",)))

    def test_weak_mult_text(self):
        p = parse(ALG_WEAK_MULT)
        assert p == CounterProgram(
            ("x", "y"),
            (
                Loop((Sub("x", Lit(1)), Add("y", Lit(1)))),
                Loop((Add("x", Lit(3)), Sub("y", Lit(2)))),
            ),
        )

    def test_counters_inferred_in_first_use_order(self):
        p = parse("init\nb += 1\na += 2\nhalt a b\n")
        assert p.counters == ("b", "a")

    def test_label_and_goto(self):
        p = parse("counters x\nhere: x += 1\ngoto here or there\nthere: x += 2\n")
        assert p.body[0] == Labeled("here", Add("x", Lit(1)))
        assert p.body[1] == Goto("here", "there")

    def test_unresolved_numeric_target(self):
        with pytest.raises(ParseError, match="99"):
            parse("counters x\nx += 1\ngoto 99 or 100\n")

    def test_undeclared_counter(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse("counters x\ny += 1\n")

    def test_halt_not_last(self):
        with pytest.raises(ParseError, match="halt"):
            parse("counters x\ninit\nhalt x\nx += 1\n")

    @pytest.mark.parametrize("head, end", [
        ("loop", "endloop"), ("for i := 1 to 2", "endfor"), ("if bit(6, 1) = 1 then", "endif"),
    ])
    def test_halt_inside_block_names_its_own_line(self, head, end):
        kind = head.split()[0]
        with pytest.raises(ParseError, match=rf"^line 5: halt inside {kind} body$") as err:
            parse(f"counters x\ninit\n{head}\n  x += 1\n  halt x\n{end}\n")
        assert err.value.line == 5
        # a labelled halt, and one inside a nested block, name the halt too
        with pytest.raises(ParseError, match=rf"^line 4: halt inside {kind} body$"):
            parse(f"counters x\ninit\n{head}\n  stop: halt x\n{end}\n")
        with pytest.raises(ParseError, match=r"^line 5: halt inside loop body$"):
            parse(f"counters x\ninit\n{head}\n  loop\n    halt x\n  endloop\n{end}\n")

    @pytest.mark.parametrize("head, end", [
        ("loop", "endloop"), ("for i := 1 to 2", "endfor"), ("if bit(6, 1) = 1 then", "endif"),
    ])
    def test_unclosed_block_names_its_head(self, head, end):
        # the first block is closed; the one opened on line 7 is not
        text = f"counters x\ninit\nx += 1\nloop\n  x -= 1\nendloop\n{head}\n  x += 1\n"
        with pytest.raises(ParseError, match=rf"^line 7: missing {end}$") as err:
            parse(text)
        assert err.value.line == 7

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("counters x\nx ?= 1\n")
        assert err.value.line == 2

    def test_duplicate_label(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("counters x\nl: x += 1\nl: x += 2\n")

    def test_duplicate_counter_names_line_and_counter(self):
        with pytest.raises(ParseError, match=r"^line 2: duplicate counter 'x'$") as err:
            parse("# header\ncounters x, y x\ninit\n")
        assert err.value.line == 2

    def test_meta_expressions(self):
        p = parse("counters x\nfor i := 2*3 downto 1+1\n  x += 2^i\nendfor\n")
        loop = p.body[0]
        assert loop == For(
            "i",
            BinOp("*", Lit(2), Lit(3)),
            BinOp("+", Lit(1), Lit(1)),
            True,
            (Add("x", Pow(Lit(2), Var("i"))),),
        )

    def test_if_bit_condition(self):
        p = parse("counters x\nfor i := 1 downto 0\n  if bit(6, i) = 1 then\n    x += 1\n  endif\nendfor\n")
        cond = p.body[0].body[0].condition
        assert cond == BitTest(Lit(6), Var("i"), 1)

    def test_comments_and_blank_lines(self):
        p = parse("# header\ncounters x\n\nx += 1  # inline\n")
        assert p.body == (Add("x", Lit(1)),)

    def test_empty_loop_rejected(self):
        # in text, at the loop line; in an AST built in code, at expansion
        with pytest.raises(ParseError, match=r"^line 3: loop body is empty$") as err:
            parse("counters x\ninit\nloop\n# nothing\nendloop\n")
        assert err.value.line == 3
        with pytest.raises(ExpansionError, match="^loop body is empty$"):
            expand(CounterProgram(("x",), (Init(), Loop(()))))
        # a body that expands to nothing, at its expanded entry line
        with pytest.raises(ExpansionError, match="^loop at line 3: body expands to no lines$"):
            expand(parse("counters x\ninit\nx += 1\nloop\n  if 1 > 2 then\n    x += 1\n  endif\nendloop\n"))


class TestEval:
    def test_exprs(self):
        env = {"i": 3}
        assert eval_expr(BinOp("+", Var("i"), Lit(1)), env) == 4
        assert eval_expr(Pow(Lit(2), Var("i")), env) == 8
        assert eval_expr(BinOp("-", Lit(1), BinOp("*", Lit(2), Var("i"))), env) == -5

    def test_unbound_variable(self):
        with pytest.raises(ExpansionError, match="unbound"):
            eval_expr(Var("j"), {})

    def test_conditions(self):
        assert eval_cond(Compare("<=", Lit(2), Lit(2)), {})
        assert not eval_cond(Compare("!=", Lit(2), Lit(2)), {})
        assert eval_cond(BitTest(Lit(6), Lit(1), 1), {})  # 6 = 110
        assert not eval_cond(BitTest(Lit(6), Lit(0), 1), {})


class TestPrettyPrint:
    def test_round_trip_weak_mult(self):
        p = parse(ALG_WEAK_MULT)
        assert parse(pretty_print(p)) == p

    def test_round_trip_meta_program(self):
        text = (
            "counters x y\n"
            "init\n"
            "for i := 3 downto 1\n"
            "  loop\n"
            "    x -= 1\n"
            "    y += 1\n"
            "  endloop\n"
            "  if bit(6, i) = 1 then\n"
            "    x += i + 1\n"
            "  endif\n"
            "endfor\n"
            "halt y\n"
        )
        p = parse(text)
        assert pretty_print(p) == text
        assert parse(pretty_print(p)) == p

    @pytest.mark.parametrize("left, op, right, taken", [
        (1, "<", 2, True), (2, ">", 1, True), (2, "<", 1, False), (1, ">", 2, False),
    ])
    def test_strict_comparisons(self, left, op, right, taken):
        text = f"counters x\ninit\nif {left} {op} {right} then\n  x += 1\nendif\nhalt x\n"
        p = parse(text)
        assert p.body[1] == If(Compare(op, Lit(left), Lit(right)), (Add("x", Lit(1)),))
        assert pretty_print(p) == text
        assert parse(pretty_print(p)) == p
        assert expand(p).lines == (Init(), *[Add("x", 1)] * taken, Halt(("x",)))

    def test_expression_parenthesization_survives(self):
        p = parse("counters x\nx += 2 * (3 + 4)\nx += 2 - (3 - 4)\nx += 2^(1+1)\n")
        assert parse(pretty_print(p)) == p


class TestExpand:
    def test_for_single_iteration(self):
        p = parse("counters x\nfor i := 0 to 0\n  x += 1\nendfor\n")
        flat = expand(p)
        assert flat.lines == (Add("x", 1),)

    def test_for_empty_ranges(self):
        up = parse("counters x\nx += 1\nfor i := 1 to 0\n  x += 1\nendfor\n")
        down = parse("counters x\nx += 1\nfor i := 0 downto 1\n  x += 1\nendfor\n")
        assert expand(up).lines == (Add("x", 1),)
        assert expand(down).lines == (Add("x", 1),)

    def test_if_bit_resolution(self):
        # 6 = 110: bit 0 is 0, so the body disappears
        p = parse("counters x\nx += 1\nif bit(6, 0) = 1 then\n  x += 7\nendif\n")
        assert expand(p).lines == (Add("x", 1),)
        p2 = parse("counters x\nx += 1\nif bit(6, 1) = 1 then\n  x += 7\nendif\n")
        assert expand(p2).lines == (Add("x", 1), Add("x", 7))

    def test_loop_desugars_to_goto_skeleton(self):
        p = parse("counters x\nloop\n  x += 1\nendloop\nx += 5\n")
        flat = expand(p)
        assert flat.lines == (
            Goto(4, 2),  # enter the body or leave to line 4
            Add("x", 1),
            Goto(1, 1),
            Add("x", 5),
        )
        assert flat.loops == (LoopSpan(entry=1, body_start=2, back=3, exit=4),)

    def test_nested_for_with_meta_amounts(self):
        p = parse(
            "counters x\n"
            "for i := 2 downto 1\n"
            "  for j := 1 to i\n"
            "    x += i + j\n"
            "  endfor\n"
            "endfor\n"
        )
        flat = expand(p)
        # i=2: j=1,2 -> amounts 3, 4; i=1: j=1 -> amount 2
        assert [c.amount for c in flat.lines] == [3, 4, 2]

    def test_nonpositive_amount_rejected(self):
        p = parse("counters x\nfor i := 0 to 0\n  x += i\nendfor\n")
        with pytest.raises(ExpansionError, match="non-positive"):
            expand(p)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(expand_module, "_MAX_LINES", 100)
        p = parse("counters x\nfor i := 1 to 1000\n  x += 1\nendfor\n")
        with pytest.raises(ExpansionError, match="budget of 100 lines"):
            expand(p)

    def test_budget_counts_iterations_that_emit_nothing(self, monkeypatch):
        def program(n):
            return parse(f"counters x\ninit\nfor i := 1 to {n}\n  if i = 0 then\n    x += 1\n  endif\nendfor\nhalt x\n")

        monkeypatch.setattr(expand_module, "_MAX_LINES", 100)
        assert len(expand(program(100)).lines) == 2
        with pytest.raises(ExpansionError, match="budget of 100 for iterations"):
            expand(program(1000))

    def test_expand_is_idempotent_via_text(self):
        from vasskit.families import gen_weak

        flat = expand(gen_weak(2))
        text = pretty_print_flat(flat)
        again = expand(parse(text))
        assert again.lines == flat.lines
        assert again.loops == flat.loops
        # and once more, byte for byte
        assert pretty_print_flat(again) == text

    def test_labels_resolve_to_flat_lines(self):
        p = parse(
            "counters x\n"
            "init\n"
            "goto a or b\n"
            "a: x += 1\n"
            "b: x += 2\n"
            "halt\n"
        )
        flat = expand(p)
        assert flat.labels == {"a": 3, "b": 4}
        assert flat.lines[1] == Goto(3, 4)

    # A number that is no label names the line past the last command: in
    # the source for `parse`, in the expanded program for `expand`.
    @pytest.mark.parametrize("text, lines", [
        ("counters x\nfor i := 1 to 3\n  x += 1\nendfor\ngoto 4 or 4\n",
         (Add("x", 1), Add("x", 1), Add("x", 1), Goto(5, 5))),
        ("counters x\nloop\n  x += 1\nendloop\ngoto 4 or 4\n",
         (Goto(4, 2), Add("x", 1), Goto(1, 1), Goto(5, 5))),
        ("counters x\nif 1 = 1 then\n  x += 1\n  x += 2\nendif\ngoto 5 or 5\n",
         (Add("x", 1), Add("x", 2), Goto(4, 4))),
    ])
    def test_numeric_target_falls_off_the_expanded_end(self, text, lines):
        flat = expand(parse(text))
        assert flat.lines == lines
        assert expand(parse(pretty_print_flat(flat))).lines == lines
        # the expanded end line is no line of the source
        source_goto = text.splitlines()[-1]
        end = len(lines) + 1
        with pytest.raises(ParseError, match="no such line"):
            parse(text.replace(source_goto, f"goto {end} or {end}"))

    def test_numeric_target_past_a_halt_is_rejected(self):
        text = "counters x\ninit\nfor i := 1 to 3\n  x += 1\nendfor\ngoto 6 or 6\nhalt x\n"
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == (
            "line 6: goto target '6' falls off the end of a program that ends in halt"
        )
        assert exc.value.line == 6
        # `expand` still rejects such an AST when it is built in code
        p = CounterProgram(("x",), (
            Init(), For("i", Lit(1), Lit(3), False, (Add("x", Lit(1)),)),
            Goto("6", "6"), Halt(("x",)),
        ))
        with pytest.raises(ExpansionError, match="falls off the end"):
            expand(p)

    def test_duplicate_label_after_for_unrolling(self):
        p = CounterProgram(
            ("x",),
            (For("i", Lit(1), Lit(2), False, (Labeled("l", Add("x", Lit(1))),)),),
        )
        with pytest.raises(ExpansionError, match="duplicate"):
            expand(p)


class TestWeakUnfolding:
    def test_weak_2_matches_manual_unfolding(self):
        # unfolding weak(2) by hand: flash/double pair, +1 (for the high bit),
        # then flash/double pair again; each loop in goto-skeleton form
        from vasskit.families import gen_weak

        flat = expand(gen_weak(2))
        expected = (
            Init(),
            Goto(6, 3), Sub("x", 1), Add("y", 1), Goto(2, 2),
            Goto(10, 7), Add("x", 2), Sub("y", 1), Goto(6, 6),
            Add("x", 1),
            Goto(15, 12), Sub("x", 1), Add("y", 1), Goto(11, 11),
            Goto(19, 16), Add("x", 2), Sub("y", 1), Goto(15, 15),
        )
        assert flat.lines == expected
