"""Names of the per-layer metrics, and how one round's figures combine
from the processes that ran its groups of instances.

Names are `<module>.<function>.<quantity>`; times end in `.s` and are in
reference seconds.  Counts are summed over a round, except depths, frontier
peaks and bit lengths, which take the round's maximum.  This module does
not import vasskit, so the parent process can use it.
"""

from __future__ import annotations

# Span names (each reported as `<name>.s`), in reporting order.
SPANS = (
    "families.gen",
    "families.fraction_sequence",
    "lang.pretty_print",
    "lang.parse",
    "expand.expand",
    "compiler.compile_program",
    "vass.is_flat",
    "vass.validate_run",
    "vass.json_roundtrip",
    "search.halting_reachable",
    "search.shortest_halting",
    "search.reachable_configs",
    "search.count_halting_runs",
    "search.replay_canonical",
    "interp.reachable_line_configs",
    "bench.oracle",
)

SUMMED = (
    "lang.parse.bytes",
    "expand.expand.lines",
    "compiler.compile_program.states",
    "compiler.compile_program.transitions",
    "vass.is_flat.states",
    "vass.is_flat.transitions",
    "vass.validate_run.steps",
    "search.halting_reachable.configs",
    "search.shortest_halting.expanded",
    "search.shortest_halting.run_length",
    "search.reachable_configs.configs",
    "search.reachable_configs.calls",
    "search.count_halting_runs.calls",
    "search.replay_canonical.materialized_steps",
    "interp.reachable_line_configs.configs",
)

MAXED = (
    "search.halting_reachable.depth",
    "search.halting_reachable.frontier_peak",
    "search.replay_canonical.length_bits",
)


def configs_per_s(metrics: dict[str, float]) -> float:
    kernel_s = metrics["search.halting_reachable.s"]
    return metrics["search.halting_reachable.configs"] / kernel_s if kernel_s else 0.0


def merge(groups: list[dict[str, float]]) -> dict[str, float]:
    """One round's per-layer metrics from those of its groups."""
    out = {name: (max if name in MAXED else sum)(g[name] for g in groups) for name in groups[0]}
    out["search.halting_reachable.configs_per_s"] = configs_per_s(out)
    return out
