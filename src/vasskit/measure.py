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
    Verdict,
    final_vectors,
    halting_reachable,
    replay_canonical,
    shortest_halting,
)
from .vass import Vass, is_flat, vass_size


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

# family -> name of the parameter its rows are labelled with
_PARAMETER_NAMES = {"exp": "n", "weak": "b", "hp": "z0", "2exp": "k"}


def _label(family: str, p: int) -> str:
    return f"{_PARAMETER_NAMES[family]}={p}"


def _shape(vass: Vass) -> dict:
    """A row's size and flatness fields: linear in the VASS, no search."""
    return {
        "size_unary": vass_size(vass, "unary"),
        "size_binary": vass_size(vass, "binary"),
        "flat": is_flat(vass).is_flat,
    }


def _row(
    family: str,
    parameter: str,
    compiled,
    result: ReachResult,
    canonical_length: int | None,
    extra: dict,
    t0: float,
) -> ExperimentReport:
    return ExperimentReport(
        family=family,
        parameter=parameter,
        **_shape(compiled.vass),
        shortest_verdict=result.verdict.value,
        shortest_length=len(result.run) if result.run is not None else None,
        canonical_length=canonical_length,
        extra=extra,
        wall_clock_s=time.perf_counter() - t0,
    )


def _member(family: str, p: int):
    """The compiled member of `family` with parameter p, and the generator's
    metadata (None for families without any).  The measurers and the
    budget-exceeded fallback row both build members here."""
    meta = None
    if family == "exp":
        program = families.gen_exp(p)
    elif family == "weak":
        program = families.gen_weak(p)
    elif family == "hp":
        program = families.with_initial_values(families.gen_hp(_HP_C, _HP_D), {"x": _HP_D**p, "z": p})
    else:
        program, meta = families.gen_double_exp(p)
    return compile_counter_program(program), meta


def measure_exp(n: int, max_configs: int) -> ExperimentReport:
    t0 = time.perf_counter()
    compiled, _ = _member("exp", n)
    pump = divisibility_threshold(n)
    out = replay_canonical(
        compiled, families.exp_canonical_policy(compiled.program, pump), materialize=False
    )
    result = shortest_halting(compiled.vass, SearchBudget(2 * max(out.probe.peak), max_configs))
    return _row(
        "exp", _label("exp", n), compiled, result, out.probe.length, {"pump": str(pump)}, t0
    )


def measure_weak(b: int, max_configs: int) -> ExperimentReport:
    t0 = time.perf_counter()
    compiled, _ = _member("weak", b)
    out = replay_canonical(compiled, families.maximal_policy(compiled.program), materialize=False)
    budget = SearchBudget(2 * b + 2, max_configs)
    finals = final_vectors(compiled.vass, budget, at_state=compiled.halt_state)
    return _row(
        "weak", _label("weak", b), compiled, shortest_halting(compiled.vass, budget),
        out.probe.length, {"max_final_x": str(max(vec[0] for vec in finals))}, t0,
    )


def measure_hp(z0: int, max_configs: int) -> ExperimentReport:
    t0 = time.perf_counter()
    compiled, _ = _member("hp", z0)
    out = replay_canonical(compiled, families.maximal_policy(compiled.program), materialize=False)
    result = shortest_halting(
        compiled.vass, SearchBudget(2 * max(out.probe.peak) + 2, max_configs)
    )
    final_x = out.final.vector[compiled.program.counters.index("x")]
    return _row(
        "hp", _label("hp", z0), compiled, result, out.probe.length,
        {"ratio": f"{_HP_C}/{_HP_D}", "x0": str(_HP_D**z0), "canonical_final_x": str(final_x)},
        t0,
    )


def measure_double_exp(k: int, max_configs: int) -> ExperimentReport:
    t0 = time.perf_counter()
    compiled, meta = _member("2exp", k)
    out = replay_canonical(
        compiled,
        families.double_exp_canonical_policy(compiled.program, meta.canonical_pump),
        materialize=False,
    )
    result = shortest_halting(compiled.vass, SearchBudget(2 * max(out.probe.peak), max_configs))
    return _row(
        "2exp", _label("2exp", k), compiled, result, out.probe.length,
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


def measure_family(
    family: str,
    params: list[int],
    max_configs: int = 10_000_000,
    np_target: int | None = None,
    np_values: tuple[int, ...] | None = None,
) -> list[ExperimentReport]:
    """One report row per parameter; rows that blow the node budget report
    the budget-exceeded verdict rather than aborting the table."""
    rows: list[ExperimentReport] = []
    if family == "np":
        if np_target is None or not np_values:
            raise ValueError("measure np needs --s0 and --set")
        return [measure_np(np_target, np_values, max_configs)]
    measurers = {
        "exp": measure_exp,
        "weak": measure_weak,
        "hp": measure_hp,
        "2exp": measure_double_exp,
    }
    if family not in measurers:
        raise ValueError(f"unknown family {family!r}; choose from exp, weak, hp, 2exp, np")
    for p in params:
        try:
            rows.append(measurers[family](p, max_configs))
        except BudgetExceededError as e:
            rows.append(
                ExperimentReport(
                    family=family,
                    parameter=_label(family, p),
                    **_shape(_member(family, p)[0].vass),
                    shortest_verdict=Verdict.BUDGET_EXCEEDED.value,
                    shortest_length=None,
                    canonical_length=None,
                    extra={"error": str(e)},
                )
            )
    return rows


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
