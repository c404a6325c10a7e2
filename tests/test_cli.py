import json
import re
from pathlib import Path

import pytest

from vasskit.cli import main

GOLDEN = Path(__file__).parent / "golden"
TIMING = re.compile(r'"(wall_clock_s|elapsed_s)": [0-9.e-]+')
# the commands that expand a `.cp` program before anything else
EXPANDING_COMMANDS = [("flat",), ("compile",), ("solve", "--bound", "3")]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def masked(text: str) -> str:
    """JSON output with its wall-clock fields blanked."""
    return TIMING.sub(r'"\1": "<masked>"', text)


class TestGenerate:
    def test_gen_text_parses_back(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "exp", "--n", "2")
        assert code == 0
        from vasskit.lang import parse

        assert parse(out).counters == ("x", "y", "z")

    def test_gen_json_is_vass(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "np", "--s0", "2", "--set", "1,2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["dimension"] == 7

    def test_byte_identical_across_runs(self, capsys):
        a = run_cli(capsys, "gen", "2exp", "--k", "2", "--format", "json")
        b = run_cli(capsys, "gen", "2exp", "--k", "2", "--format", "json")
        assert a == b

    def test_usage_error_exit_2(self, capsys):
        code, _out, err = run_cli(capsys, "gen", "weak", "--b", "0")
        assert code == 2
        assert "weak" in err

    @pytest.mark.parametrize(
        "argv, text",
        [(["gen", "np", "--set", "1,,2"], "1,,2"), (["measure", "np", "--s0", "3", "--set", "x"], "x")],
    )
    def test_malformed_set_is_a_usage_error(self, capsys, argv, text):
        code, out, err = run_cli(capsys, *argv)
        message = f"vasskit: --set: expected comma-separated integers, got '{text}'\n"
        assert (code, out, err) == (2, "", message)

    def test_halt_inside_for_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "p.cp"
        path.write_text("counters x\ninit\nfor i := 1 to 2\n  x += 1\n  halt x\nendfor\n")
        code, out, err = run_cli(capsys, "expand", str(path))
        assert (code, out, err) == (2, "", "vasskit: line 5: halt inside for body\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("counters x\ninit\nloop\nendloop\nhalt x\n", "line 3: loop body is empty"),
            ("counters x x\ninit\nhalt x\n", "line 1: duplicate counter 'x'"),
            ("counters x\ninit\ngoto 4 or 4\nhalt x\n",
             "line 3: goto target '4' falls off the end of a program that ends in halt"),
            ("counters x\nx += 1\ninit\nhalt x\n", "init at line 2; it may only be the first command"),
        ],
    )
    def test_static_mistakes_are_parse_errors(self, capsys, tmp_path, text, message):
        path = tmp_path / "p.cp"
        path.write_text(text)
        code, out, err = run_cli(capsys, "expand", str(path))
        assert (code, out, err) == (2, "", f"vasskit: {message}\n")


    @pytest.mark.parametrize(
        "body",
        ["  if 1 > 2 then\n    x += 1\n  endif\n", "  for i := 1 to 0\n    x += 1\n  endfor\n"],
    )
    def test_loop_body_expanding_to_nothing_fails(self, capsys, tmp_path, body):
        path = tmp_path / "p.cp"
        path.write_text(f"counters x\ninit\nloop\n{body}endloop\nhalt x\n")
        code, out, err = run_cli(capsys, "expand", str(path))
        # a program that cannot be expanded is a usage error, not a verdict
        assert (code, out, err) == (2, "", "vasskit: loop at line 2: body expands to no lines\n")

    @pytest.mark.parametrize("cond", ["1 < 2", "2 > 1"])
    def test_strict_comparison_expands(self, capsys, tmp_path, cond):
        path = tmp_path / "p.cp"
        path.write_text(f"counters x\ninit\nif {cond} then\n  x += 1\nendif\nhalt x\n")
        code, out, err = run_cli(capsys, "expand", str(path))
        assert (code, out, err) == (0, "counters x\n1: init\n2: x += 1\n3: halt x\n", "")


class TestPipeline:
    def test_gen_compile_expand_solve(self, capsys, tmp_path, monkeypatch):
        import io
        import sys

        code, program_text, _ = run_cli(capsys, "gen", "exp", "--n", "1", "--x0", "1")
        assert code == 0

        monkeypatch.setattr(sys, "stdin", io.StringIO(program_text))
        code, flat_text, _ = run_cli(capsys, "expand", "-")
        assert code == 0
        assert flat_text.splitlines()[1].startswith("1: init")

        monkeypatch.setattr(sys, "stdin", io.StringIO(program_text))
        code, vass_json, _ = run_cli(capsys, "compile", "-")
        assert code == 0

        monkeypatch.setattr(sys, "stdin", io.StringIO(vass_json))
        code, out, _ = run_cli(capsys, "solve", "-", "--bound", "10", "--format", "json")
        assert code == 0  # threshold(1) = 1 divides 1: reachable
        assert json.loads(out)["verdict"] == "found"

    def test_solve_exit_codes(self, capsys, tmp_path):
        code, text, _ = run_cli(capsys, "gen", "exp", "--n", "2", "--x0", "3")
        path = tmp_path / "prog.cp"
        path.write_text(text)
        code, _, _ = run_cli(capsys, "solve", str(path), "--bound", "20")
        assert code == 1  # exhausted within bound
        code, _, _ = run_cli(capsys, "solve", str(path), "--bound", "20", "--max-configs", "5")
        assert code == 3  # budget exceeded

        code, text, _ = run_cli(capsys, "gen", "exp", "--n", "1", "--x0", "2")
        path.write_text(text)
        solve = ("solve", str(path), "--bound", "12")
        code, out, _ = run_cli(capsys, *solve, "--max-depth", "5")
        assert code == 3  # the depth cap cuts the search
        assert out == "verdict: budget-exceeded\nexpanded: 3  frontier peak: 1  depth: 4\n"
        code, out, _ = run_cli(capsys, *solve, "--max-depth", "100")
        assert code == 0
        assert out == "verdict: found\nlength: 31\nexpanded: 14  frontier peak: 2  depth: 31\n"
        assert run_cli(capsys, *solve) == (code, out, "")
        code, out, err = run_cli(capsys, *solve, "--max-depth", "-1")
        assert (code, out, err) == (2, "", "vasskit: max_depth must be >= 0\n")

    def test_missing_input_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing.cp"
        code, out, err = run_cli(capsys, "expand", str(path))
        assert (code, out, err) == (2, "", f"vasskit: [Errno 2] No such file or directory: '{path}'\n")

    def test_flat_exit_codes(self, capsys, tmp_path):
        code, text, _ = run_cli(capsys, "gen", "weak", "--b", "2")
        path = tmp_path / "weak.cp"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "flat", str(path))
        assert code == 0 and out == "flat\n"

        code, text, _ = run_cli(capsys, "gen", "hp", "--c", "3", "--d", "2")
        path.write_text(text)
        code, out, _ = run_cli(capsys, "flat", str(path), "--format", "json")
        assert code == 1
        obj = json.loads(out)
        assert obj["flat"] is False and obj["witness_state"] == "L2"
        assert run_cli(capsys, "flat", str(path)) == (
            1, "not flat: state L2 lies on two simple cycles\n", ""
        )

        # complete digraph on 12 states: no cycle budget to run out of
        states = [f"s{i:02d}" for i in range(12)]
        path.write_text(json.dumps({
            "dimension": 1,
            "states": states,
            "transitions": [
                {"from": a, "delta": ["0"], "to": b} for a in states for b in states if a != b
            ],
            "source": {"state": "s00", "vector": ["0"]},
            "target": {"state": "s01", "vector": ["0"]},
        }))
        code, out, _ = run_cli(capsys, "flat", str(path), "--format", "json")
        assert code == 1
        obj = json.loads(out)
        assert obj["flat"] is False and obj["witness_state"] == "s00"
        assert [len(cyc) for cyc in obj["witness_cycles"]] == [2, 2]

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"dimension": 2}, "missing field 'states'"),
            ({"dimension": 2, "states": ["a"], "transitions": 5},
             "field 'transitions' must be list, not int"),
            ({"dimension": 1, "states": ["a"], "transitions": [{"from": "a", "to": "a"}]},
             "missing field 'transitions[0].delta'"),
            ({"dimension": 1, "states": ["a"], "transitions": [],
              "source": {"state": "a", "vector": [None]}},
             "field 'source.vector' must list integers"),
            ({"dimension": 1, "states": ["a"], "transitions": [],
              "source": {"state": "a", "vector": ["1"]}, "target": {"state": "a", "vector": [1.5]}},
             "field 'target.vector' must list integers"),
            ({"dimension": True, "states": ["a"],
              "transitions": [{"from": "a", "delta": [True], "to": "a"}],
              "source": {"state": "a", "vector": [False]}},
             "field 'dimension' must be int, not bool"),
            ({"dimension": 1, "states": ["a"], "transitions": [],
              "source": {"state": "a", "vector": ["0"]}, "target": {"state": "a", "vector": [-2]}},
             "field 'target.vector' must list nonnegative integers"),
            ({"dimension": 1, "states": ["a"], "transitions": [["a", ["1"], "a"]]},
             "transitions[0] must be an object"),
            ({"dimension": 1, "states": ["a", 2], "transitions": []}, "field 'states' must list strings"),
        ],
    )
    def test_malformed_vass_json_is_a_usage_error(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", str(path), "--bound", "3")
        assert (code, out, err) == (2, "", f"vasskit: VASS JSON: {message}\n")

    # the line-budget case runs under `flat` alone: every command maps the
    # same ExpansionError to exit 2, which the two quick texts show
    @pytest.mark.parametrize(
        "command, text, message",
        [
            (command, text, message)
            for command in EXPANDING_COMMANDS
            for text, message in (
                ("", "program expands to no lines"),
                ("counters x\nx += y\n", "unbound meta-variable 'y'"),
            )
        ]
        + [(EXPANDING_COMMANDS[0], "counters x\ninit\nfor i := 1 to 500001\n  x += 1\nendfor\nhalt x\n",
            "expansion exceeds budget of 500000 lines")],
        ids=lambda value: f"command{EXPANDING_COMMANDS.index(value)}" if isinstance(value, tuple) else None,
    )
    def test_unexpandable_program_is_a_usage_error(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "bad.cp"
        path.write_text(text)
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert (code, out, err) == (2, "", f"vasskit: {message}\n")

    def test_for_that_emits_nothing_stops_at_the_budget(self, capsys, tmp_path):
        path = tmp_path / "bad.cp"
        path.write_text("counters x\ninit\nfor i := 1 to 500001\n  if i = 0 then\n    x += 1\n  endif\nendfor\nhalt x\n")
        code, out, err = run_cli(capsys, "flat", str(path))
        assert (code, out, err) == (2, "", "vasskit: expansion exceeds budget of 500000 for iterations\n")

    @pytest.mark.parametrize("command", [("flat",), ("solve", "--bound", "3"), ("size",)])
    def test_negative_source_vector_is_a_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dimension": 1, "states": ["a"], "transitions": [],
            "source": {"state": "a", "vector": ["-1"]}, "target": {"state": "a", "vector": ["0"]},
        }))
        code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
        message = "VASS JSON: field 'source.vector' must list nonnegative integers"
        assert (code, out, err) == (2, "", f"vasskit: {message}\n")

    def test_size_command(self, capsys, tmp_path):
        _, text, _ = run_cli(capsys, "gen", "2exp", "--k", "2")
        path = tmp_path / "v.cp"
        path.write_text(text)
        _, unary, _ = run_cli(capsys, "size", str(path), "--encoding", "unary")
        _, binary, _ = run_cli(capsys, "size", str(path), "--encoding", "binary")
        assert int(unary) > int(binary) > 0


class TestMeasure:
    def test_weak_table_max_final_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "weak", "--from", "1", "--to", "4", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["extra"]["max_final_x"] for r in rows] == ["1", "2", "3", "4"]

    def test_exp_lengths_strictly_increasing(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "exp", "--from", "1", "--to", "3", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        lengths = [r["shortest_length"] for r in rows]
        assert all(a < b for a, b in zip(lengths, lengths[1:]))
        assert all(r["shortest_length"] == r["canonical_length"] for r in rows)
        assert all(r["flat"] for r in rows)

    def test_2exp_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "2exp", "--from", "1", "--to", "1", "--format", "json"
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["extra"]["canonical_pump"] == "16"
        assert row["shortest_length"] is not None
        assert row["shortest_length"] >= 15
        assert not row["flat"]

    def test_np_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "measure", "np", "--s0", "3", "--set", "1,2", "--format", "json"
        )
        assert code == 0
        row = json.loads(out)[0]
        assert row["extra"]["subset_sum"] is True
        assert row["shortest_verdict"] == "found"

    def test_text_table(self, capsys):
        assert run_cli(capsys, "measure", "exp", "--to", "2") == (0, (
            "family  parameter  size_unary  size_binary  flat  shortest  canonical  extra\n"
            "exp     n=1        73          125          yes   20        20         pump=1\n"
            "exp     n=2        137         173          yes   58        58         pump=2\n"
        ), "")

    def test_text_table_of_a_budget_cut_search_exits_3(self, capsys):
        error = "reachable-set exploration exceeded its budget: SearchBudget(counter_bound=6, max_configs=5)"
        assert run_cli(capsys, "measure", "weak", "--to", "2", "--max-configs", "5") == (3, (
            "family  parameter  size_unary  size_binary  flat  shortest                canonical  extra\n"
            "weak    b=1        35          47           yes   exhausted-within-bound  4          max_final_x=1\n"
            f"weak    b=2        63          85           yes   budget-exceeded         14         error={error}\n"
        ), "")

    def test_empty_range_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "measure", "weak", "--from", "3", "--to", "1")
        assert (code, out, err) == (
            2, "", "vasskit: --from 3 is greater than --to 1: the range is empty\n"
        )

    def test_np_needs_s0_and_set(self, capsys):
        for argv in (["--s0", "3"], ["--set", "1,2"], []):
            assert run_cli(capsys, "measure", "np", *argv) == (
                2, "", "vasskit: measure np needs --s0 and --set\n"
            )

    def test_deterministic_modulo_wall_clock(self, capsys):
        def strip(rows):
            return [{k: v for k, v in r.items() if k != "wall_clock_s"} for r in rows]

        _, out_a, _ = run_cli(capsys, "measure", "weak", "--from", "1", "--to", "3", "--format", "json")
        _, out_b, _ = run_cli(capsys, "measure", "weak", "--from", "1", "--to", "3", "--format", "json")
        assert all("wall_clock_s" in r for r in json.loads(out_a))
        assert strip(json.loads(out_a)) == strip(json.loads(out_b))


class TestVerifyCommand:
    def test_single_suite_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "arith", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["suite"] == "arith" and payload[0]["passed"]

    def test_text_output_lists_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "weak")
        assert code == 0
        assert "[PASS] weak" in out

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "nonsense")
        assert exc.value.code == 2


class TestFractionsCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "fractions", "--k", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["product"] == "23409/16384"
        assert obj["factors"] == ["18/17", "17/16"]

    def test_text(self, capsys):
        assert run_cli(capsys, "fractions", "--k", "2") == (0, (
            "k = 2\nr_1 = 9/8\nr_2 = 17/16\nf_1 = 18/17\nf_2 = 17/16\nproduct = 23409/16384\n"
        ), "")

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "frac.json"
        code, out, _ = run_cli(capsys, "fractions", "--k", "1", "--format", "json", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["product"] == "25/16"


SMALL = "counters x y\ninit\nx += 2\nloop\n  x -= 1\n  y += 1\nendloop\nhalt x\n"
GOTO_HALT = (
    "counters x y\ninit\nx += 1\ntop: goto body or done\nbody: x += 1\ny += 2\n"
    "goto top or top\ndone: halt y\n"
)


# (golden file, input: .cp text, the `gen` argv that makes it, or None,
#  command argv, exit code)
GOLDEN_CASES = [
    ("compile_small.json", SMALL, ["compile"], 0),
    ("expand_goto_halt.txt", GOTO_HALT, ["expand"], 0),
    ("solve_found.json", ["exp", "--n", "1", "--x0", "2"],
     ["solve", "--bound", "12", "--format", "json"], 0),
    ("solve_node_budget.json", ["exp", "--n", "2", "--x0", "3"],
     ["solve", "--bound", "20", "--max-configs", "5", "--format", "json"], 3),
    ("flat_hp.json", ["hp", "--c", "3", "--d", "2"], ["flat", "--format", "json"], 1),
    ("measure_weak.json", None, ["measure", "weak", "--to", "2", "--format", "json"], 0),
    ("verify_weak.json", None, ["verify", "weak", "--format", "json"], 0),
    ("gen_weak_b5.cp", None, ["gen", "weak", "--b", "5"], 0),
    ("gen_hp_c3_d2.cp", None, ["gen", "hp", "--c", "3", "--d", "2"], 0),
    ("gen_exp_n3.cp", None, ["gen", "exp", "--n", "3"], 0),
    ("gen_exp_n2_x04.cp", None, ["gen", "exp", "--n", "2", "--x0", "4"], 0),
    ("gen_2exp_k2.cp", None, ["gen", "2exp", "--k", "2"], 0),
    ("gen_2exp_k1_pump4.cp", None, ["gen", "2exp", "--k", "1", "--pump", "4"], 0),
    ("gen_np_s03_set12.cp", None, ["gen", "np", "--s0", "3", "--set", "1,2"], 0),
]


class TestGoldenOutput:
    """Whole outputs, byte for byte, against the files in tests/golden."""

    @pytest.mark.parametrize(
        "golden, source, argv, exit_code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES]
    )
    def test_output_matches_golden(self, capsys, tmp_path, golden, source, argv, exit_code):
        if source is not None:
            if isinstance(source, list):
                _, source, _ = run_cli(capsys, "gen", *source)
            path = tmp_path / "input.cp"
            path.write_text(source)
            argv = [argv[0], str(path), *argv[1:]]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (exit_code, "")
        assert masked(out) == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize(
        "argv",
        [["measure", "weak", "--to", "2", "--format", "json"], ["verify", "arith", "--format", "json"]],
    )
    def test_out_file_gets_what_stdout_gets(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv)
        path = tmp_path / "out.json"
        assert run_cli(capsys, *argv, "--out", str(path)) == (code, "", err)
        assert masked(path.read_text()) == masked(out)
