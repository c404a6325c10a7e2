import pytest

from vasskit import measure
from vasskit.errors import BudgetExceededError
from vasskit.measure import format_table, measure_family
from vasskit.search import Verdict


class TestMeasureFamily:
    def test_exp_rows(self):
        rows = measure_family("exp", [1, 2])
        assert [r.parameter for r in rows] == ["n=1", "n=2"]
        assert all(r.flat for r in rows)
        assert all(r.shortest_length == r.canonical_length for r in rows)
        assert rows[0].shortest_length < rows[1].shortest_length

    def test_budget_exceeded_row_does_not_abort_table(self):
        rows = measure_family("exp", [1, 2], max_configs=10)
        assert len(rows) == 2
        assert all(r.shortest_verdict == Verdict.BUDGET_EXCEEDED.value for r in rows)

    @pytest.mark.parametrize(
        "family, name",
        [("exp", "measure_exp"), ("weak", "measure_weak"), ("hp", "measure_hp"),
         ("2exp", "measure_double_exp")],
    )
    def test_budget_exceeded_row_keeps_the_family_label(self, monkeypatch, family, name):
        measured = measure_family(family, [1])[0]

        def blow_budget(p, max_configs):
            raise BudgetExceededError("node budget")

        monkeypatch.setattr(measure, name, blow_budget)
        row = measure_family(family, [1])[0]
        assert row.shortest_verdict == Verdict.BUDGET_EXCEEDED.value
        assert row.extra == {"error": "node budget"}
        assert row.parameter == measured.parameter
        # size and flatness need no search, so the fallback row reports them
        assert (row.size_unary, row.size_binary, row.flat) == (
            measured.size_unary, measured.size_binary, measured.flat
        )

    def test_hp_budget_exceeded_row_is_labelled_z0(self, monkeypatch):
        def blow_budget(p, max_configs):
            raise BudgetExceededError("node budget")

        monkeypatch.setattr(measure, "measure_hp", blow_budget)
        assert [r.parameter for r in measure_family("hp", [0, 2])] == ["z0=0", "z0=2"]

    def test_hp_rows_report_canonical_power(self):
        rows = measure_family("hp", [0, 1, 2])
        finals = [int(r.extra["canonical_final_x"]) for r in rows]
        assert finals == [1, 3, 9]  # (3/2)^z0 * 2^z0
        assert all(not r.flat for r in rows)

    def test_np_requires_instance(self):
        with pytest.raises(ValueError):
            measure_family("np", [])

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            measure_family("nope", [1])

    def test_wall_clock_excluded_from_payload_on_request(self):
        row = measure_family("weak", [2])[0]
        assert "wall_clock_s" not in row.to_json_obj(with_wall_clock=False)
        assert "wall_clock_s" in row.to_json_obj()


class TestFormatTable:
    def test_aligned_text(self):
        rows = measure_family("weak", [1, 2])
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("family")
        assert len(lines) == 3
        # columns align: the parameter column starts at one offset everywhere
        offset = lines[0].index("parameter")
        assert all(line[offset - 1] == " " for line in lines[1:])
