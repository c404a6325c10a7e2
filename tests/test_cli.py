import json

import pytest

from vasskit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert out == "verdict: budget-exceeded\nexpanded: 6  frontier peak: 3  depth: 5\n"
        code, out, _ = run_cli(capsys, *solve, "--max-depth", "100")
        assert code == 0
        assert out == "verdict: found\nlength: 31\nexpanded: 93  frontier peak: 6  depth: 31\n"
        assert run_cli(capsys, *solve) == (code, out, "")
        code, out, err = run_cli(capsys, *solve, "--max-depth", "-1")
        assert (code, out, err) == (2, "", "vasskit: max_depth must be >= 0\n")

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
        assert obj["flat"] is False and obj["witness_state"]

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

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "frac.json"
        code, out, _ = run_cli(capsys, "fractions", "--k", "1", "--format", "json", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["product"] == "25/16"
