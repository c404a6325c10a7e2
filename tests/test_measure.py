import pytest

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

    @pytest.mark.parametrize("family", ["exp", "weak", "hp", "2exp"])
    def test_budget_row_keeps_label_size_and_flatness(self, family):
        measured = measure_family(family, [1])[0]
        row = measure_family(family, [1], max_configs=1)[0]
        assert row.shortest_verdict == Verdict.BUDGET_EXCEEDED.value
        assert row.shortest_length is None
        # size and flatness need no search, so a cut row reports them
        assert (row.parameter, row.size_unary, row.size_binary, row.flat) == (
            measured.parameter, measured.size_unary, measured.size_binary, measured.flat
        )

    @pytest.mark.parametrize(
        "family, params, max_configs", [("exp", [1], 10), ("hp", [0, 2], 5), ("2exp", [1], 50)]
    )
    def test_cut_search_keeps_canonical_length(self, family, params, max_configs):
        measured = measure_family(family, params)
        rows = measure_family(family, params, max_configs)
        assert all(r.shortest_verdict == Verdict.BUDGET_EXCEEDED.value for r in rows)
        assert [(r.parameter, r.canonical_length) for r in rows] == [
            (r.parameter, r.canonical_length) for r in measured
        ]

    def test_weak_cut_collection_gives_the_error_row(self):
        # b=1's collection needs 4 configurations and b=2's needs 11, and at
        # those budgets the shortest search finishes too: only a budget below
        # them cuts these rows, in the collection
        for b, least, length in ((1, 4, 4), (2, 11, 14)):
            cut, row = (measure_family("weak", [b], max_configs=m)[0] for m in (least - 1, least))
            assert (cut.parameter, cut.shortest_verdict) == (f"b={b}", Verdict.BUDGET_EXCEEDED.value)
            # the maximal replay needs no budget, so the row keeps its length
            assert (cut.shortest_length, cut.canonical_length) == (None, length)
            assert cut.extra == {
                "error": "reachable-set exploration exceeded its budget: "
                f"SearchBudget(counter_bound={2 * b + 2}, max_configs={least - 1})"
            }
            assert (row.shortest_verdict, row.canonical_length) == (Verdict.EXHAUSTED.value, length)
            assert row.extra == {"max_final_x": str(b)}

    def test_hp_rows_report_canonical_power(self):
        rows = measure_family("hp", [0, 1, 2])
        finals = [int(r.extra["canonical_final_x"]) for r in rows]
        assert finals == [1, 3, 9]  # (3/2)^z0 * 2^z0
        assert all(not r.flat for r in rows)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            measure_family("nope", [1])


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
