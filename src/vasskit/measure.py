"""Reproducible experiment rows: sizes, flatness, shortest and canonical
run lengths per family member.

Row payloads are deterministic; wall-clock time lives in its own clearly
marked field and is excluded from golden comparisons.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from . import families
from .arith import divisibility_threshold
from .compiler import compile_counter_program
from .errors import BudgetExceededError
from .search import (
    ReachResult,
    SearchBudget,
    SearchStats,
    Verdict,
    final_vectors,
    halting_reachable,
    replay_canonical,
    shortest_halting,
)
from .vass import is_flat, vass_size


@dataclass
class ExperimentReport:
    family: str
    parameter: str
    size_unary: int
    size_binary: int
    flat: bool
    shortest_verdict: str
    shortest_length: int | None
    canonical_length: int | None
    extra: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def to_json_obj(self) -> dict:
        return {**asdict(self), "wall_clock_s": round(self.wall_clock_s, 3)}


# hp rows run the Hopcroft-Pansiot gadget with ratio c/d = 3/2; row z0
# starts it from x = d^z0
_HP_C, _HP_D = 3, 2


def _row(
    family: str,
    parameter: str,
    compiled,
    result: ReachResult,
    canonical_length: int | None,
    extra: dict,
    t0: float,
) -> ExperimentReport:
    vass = compiled.vass
    return ExperimentReport(
        family=family,
        parameter=parameter,
        size_unary=vass_size(vass, "unary"),
        size_binary=vass_size(vass, "binary"),
        flat=is_flat(vass).is_flat,
        shortest_verdict=result.verdict.value,
        shortest_length=len(result.run) if result.run is not None else None,
        canonical_length=canonical_length,
        extra=extra,
        wall_clock_s=time.perf_counter() - t0,
    )


def measure_exp(n: int, max_configs: int) -> ExperimentReport:
    t0 = time.perf_counter()
    compiled = compile_counter_program(families.gen_exp(n))
    pump = divisibility_threshold(n)
    out = replay_canonical(
        compiled, families.exp_canonical_policy(compiled.program, pump), materialize=False
    )
    result = shortest_halting(compiled.vass, SearchBudget(2 * max(out.probe.peak), max_configs))
    return _row("exp", f"n={n}", compiled, result, out.probe.length, {"pump": str(pump)}, t0)


def measure_weak(b: int, max_configs: int) -> ExperimentReport:
    """The one measurer whose search can raise: `final_vectors` collects a
    reachable set, so a cut-off collection gives an error row.  The row
    keeps the canonical length, since the maximal replay needs no budget."""
    t0 = time.perf_counter()
    compiled = compile_counter_program(families.gen_weak(b))
    out = replay_canonical(compiled, families.maximal_policy(compiled.program), materialize=False)
    budget = SearchBudget(2 * b + 2, max_configs)
    try:
        finals = final_vectors(compiled.vass, budget, at_state=compiled.halt_state)
    except BudgetExceededError as e:
        cut = ReachResult(Verdict.BUDGET_EXCEEDED, None, SearchStats(0, 0, 0))
        return _row("weak", f"b={b}", compiled, cut, out.probe.length, {"error": str(e)}, t0)
    return _row(
        "weak", f"b={b}", compiled, shortest_halting(compiled.vass, budget),
        out.probe.length, {"max_final_x": str(max(vec[0] for vec in finals))}, t0,
    )


def measure_hp(z0: int, max_configs: int) -> ExperimentReport:
    t0 = time.perf_counter()
    compiled = compile_counter_program(
        families.with_initial_values(families.gen_hp(_HP_C, _HP_D), {"x": _HP_D**z0, "z": z0})
    )
    out = replay_canonical(compiled, families.maximal_policy(compiled.program), materialize=False)
    result = shortest_halting(
        compiled.vass, SearchBudget(2 * max(out.probe.peak) + 2, max_configs)
    )
    final_x = out.final.vector[compiled.program.counters.index("x")]
    return _row(
        "hp", f"z0={z0}", compiled, result, out.probe.length,
        {"ratio": f"{_HP_C}/{_HP_D}", "x0": str(_HP_D**z0), "canonical_final_x": str(final_x)},
        t0,
    )


def measure_double_exp(k: int, max_configs: int) -> ExperimentReport:
    t0 = time.perf_counter()
    program, meta = families.gen_double_exp(k)
    compiled = compile_counter_program(program)
    out = replay_canonical(
        compiled,
        families.double_exp_canonical_policy(compiled.program, meta.canonical_pump),
        materialize=False,
    )
    result = shortest_halting(compiled.vass, SearchBudget(2 * max(out.probe.peak), max_configs))
    return _row(
        "2exp", f"k={k}", compiled, result, out.probe.length,
        {
            "canonical_pump": str(meta.canonical_pump),
            "forced_divisor": str(meta.forced_divisor),
        },
        t0,
    )


def measure_np(target: int, values: tuple[int, ...], max_configs: int) -> ExperimentReport:
    t0 = time.perf_counter()
    inst = families.NpInstance(target, values)
    program, meta = families.gen_np(inst)
    compiled = compile_counter_program(program)
    canonical_length = None
    chosen = families.subset_sum_witness(target, values)
    if chosen is not None:
        out = replay_canonical(
            compiled, families.np_canonical_policy(compiled.program, chosen), materialize=False
        )
        canonical_length = out.probe.length
    # existence only: reduction spaces run to millions of configurations,
    # too many for run reconstruction at the default budget
    budget = SearchBudget(meta.search_bound, max_configs)
    result = halting_reachable(compiled.vass, budget)
    extra = {
        "target": str(target),
        "values": ",".join(str(v) for v in values),
        "subset_sum": chosen is not None,
        "threshold": str(meta.threshold),
    }
    parameter = f"s0={target},S={','.join(map(str, values))}"
    return _row("np", parameter, compiled, result, canonical_length, extra, t0)


_MEASURERS = {
    "exp": measure_exp,
    "weak": measure_weak,
    "hp": measure_hp,
    "2exp": measure_double_exp,
}


def measure_family(
    family: str, params: list[int], max_configs: int = 10_000_000
) -> list[ExperimentReport]:
    """One report row per parameter of an exp, weak, hp or 2exp family; a
    search cut by the node budget gives a budget-exceeded row rather than
    aborting the table."""
    if family not in _MEASURERS:
        raise ValueError(f"unknown family {family!r}; choose from {', '.join(_MEASURERS)}")
    return [_MEASURERS[family](p, max_configs) for p in params]


def format_table(rows: list[ExperimentReport]) -> str:
    headers = [
        "family", "parameter", "size_unary", "size_binary", "flat",
        "shortest", "canonical", "extra",
    ]
    table = [headers]
    for r in rows:
        shortest = str(r.shortest_length) if r.shortest_length is not None else r.shortest_verdict
        extra = " ".join(f"{k}={v}" for k, v in sorted(r.extra.items()))
        table.append([
            r.family, r.parameter, str(r.size_unary), str(r.size_binary),
            "yes" if r.flat else "no", shortest,
            str(r.canonical_length) if r.canonical_length is not None else "-", extra,
        ])
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
