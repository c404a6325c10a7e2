"""Calls into vasskit's layers, with optional spans and work counts.

Every call the benchmark makes into a layer goes through `Layers`.  With
tracing off a call is a plain call and nothing is recorded, so the same
workload code serves the end-to-end runs and the traced runs.  With tracing
on, each call is timed as a span and adds its duration, less the time the
speed gauge sampled inside it, to its layer function's busy time, and the
work counts its result exposes are tallied.  The benchmark calls layers one
after another, never nested, so a span's duration is that layer's self
time.  Times are reported in reference seconds (see gauge.py).

Per-layer metric names are listed in layer_metrics.py.  Each search kernel
keeps its own work count: `halting_reachable` counts visited configurations
and `shortest_halting` counts dequeued ones, so the two are never added.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import vasskit as vk
from vasskit.vass import Vass

from gauge import SpeedGauge
from layer_metrics import MAXED, SPANS, SUMMED, configs_per_s


def _wrong(answer):
    """An answer that differs from `answer`, for the gate's self-test."""
    if isinstance(answer, bool):
        return not answer
    if isinstance(answer, int):
        return answer + 1
    return ("deliberately wrong", answer)


class Layers:
    def __init__(self, gauge: SpeedGauge, traced: bool, corrupt_first_oracle: bool = False):
        self.gauge = gauge
        self.traced = traced
        self.corrupt_first_oracle = corrupt_first_oracle  # self-test of the gate
        self.busy: dict[str, float] = dict.fromkeys(SPANS, 0.0)
        self.counts: dict[str, int] = defaultdict(int)

    def _call(self, name, fn, *args, **kwargs):
        if not self.traced:
            return fn(*args, **kwargs)
        sampled_before = self.gauge.spent_s
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = perf_counter() - start
            self.busy[name] += took - (self.gauge.spent_s - sampled_before)

    def _add(self, name: str, n: int):
        self.counts[name] += n

    def _max(self, name: str, n: int):
        self.counts[name] = max(self.counts[name], n)

    # -- families -----------------------------------------------------------

    def gen(self, fn, *args, **kwargs):
        """A family generator, `with_initial_values` or a canonical-policy function."""
        return self._call("families.gen", fn, *args, **kwargs)

    def fraction_sequence(self, k: int) -> vk.FractionSequence:
        return self._call("families.fraction_sequence", vk.fraction_sequence, k)

    # -- lang, expand, compiler ---------------------------------------------

    def pretty_print(self, program: vk.CounterProgram) -> str:
        return self._call("lang.pretty_print", vk.pretty_print, program)

    def parse(self, text: str) -> vk.CounterProgram:
        program = self._call("lang.parse", vk.parse, text)
        if self.traced:
            self._add("lang.parse.bytes", len(text.encode()))
        return program

    def expand(self, program: vk.CounterProgram) -> vk.FlatProgram:
        flat = self._call("expand.expand", vk.expand, program)
        if self.traced:
            self._add("expand.expand.lines", len(flat.lines))
        return flat

    def compile_program(self, flat: vk.FlatProgram) -> vk.CompiledProgram:
        compiled = self._call("compiler.compile_program", vk.compile_program, flat)
        if self.traced:
            self._add("compiler.compile_program.states", len(compiled.vass.states))
            self._add("compiler.compile_program.transitions", len(compiled.vass.transitions))
        return compiled

    # -- vass -----------------------------------------------------------------

    def is_flat(self, v: Vass) -> vk.FlatnessReport:
        report = self._call("vass.is_flat", vk.is_flat, v)
        if self.traced:
            self._add("vass.is_flat.states", len(v.states))
            self._add("vass.is_flat.transitions", len(v.transitions))
        return report

    def validate_run(self, v: Vass, run: vk.Run) -> vk.RunReport:
        report = self._call("vass.validate_run", vk.validate_run, v, run)
        if self.traced:
            self._add("vass.validate_run.steps", len(run.steps))
        return report

    def json_roundtrip(self, v: Vass) -> Vass:
        return self._call("vass.json_roundtrip", lambda: Vass.from_json(v.to_json()))

    # -- search ---------------------------------------------------------------

    def halting_reachable(self, v: Vass, budget: vk.SearchBudget) -> vk.ReachResult:
        result = self._call("search.halting_reachable", vk.halting_reachable, v, budget)
        if self.traced:
            self._add("search.halting_reachable.configs", result.stats.expanded)
            self._max("search.halting_reachable.depth", result.stats.depth)
            self._max("search.halting_reachable.frontier_peak", result.stats.frontier_peak)
        return result

    def shortest_halting(self, v: Vass, budget: vk.SearchBudget) -> vk.ReachResult:
        result = self._call("search.shortest_halting", vk.shortest_halting, v, budget)
        if self.traced:
            self._add("search.shortest_halting.expanded", result.stats.expanded)
            if result.run is not None:
                self._add("search.shortest_halting.run_length", len(result.run))
        return result

    def reachable_configs(self, v: Vass, budget: vk.SearchBudget, absorbing: frozenset[str]):
        reach = self._call("search.reachable_configs", vk.reachable_configs, v, budget, absorbing)
        if self.traced:
            self._add("search.reachable_configs.calls", 1)
            self._add("search.reachable_configs.configs", sum(map(len, reach.values())))
        return reach

    def count_halting_runs(self, v: Vass, budget: vk.SearchBudget) -> int:
        count = self._call("search.count_halting_runs", vk.count_halting_runs, v, budget)
        if self.traced:
            self._add("search.count_halting_runs.calls", 1)
        return count

    def replay_canonical(self, compiled, policy, materialize: bool = True) -> vk.ReplayOutcome:
        out = self._call(
            "search.replay_canonical", vk.replay_canonical, compiled, policy, materialize
        )
        if self.traced:
            self._max("search.replay_canonical.length_bits", out.probe.length.bit_length())
            if out.run is not None:
                self._add("search.replay_canonical.materialized_steps", len(out.run.steps))
        return out

    # -- interp and the benchmark's own oracles -------------------------------

    def reachable_line_configs(self, flat: vk.FlatProgram, bound: int):
        configs = self._call(
            "interp.reachable_line_configs", vk.reachable_line_configs, flat, bound
        )
        if self.traced:
            self._add("interp.reachable_line_configs.configs", len(configs))
        return configs

    def oracle(self, fn, *args):
        """The independent answer a result is checked against."""
        answer = self._call("bench.oracle", fn, *args)
        if self.corrupt_first_oracle:
            self.corrupt_first_oracle = False
            return _wrong(answer)
        return answer

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self, work_s: float, speed: float) -> dict[str, float]:
        """Per-layer metrics of one traced round whose instances took
        `work_s` raw seconds, sampling excluded, at `speed` times the
        reference speed."""
        out = {f"{name}.s": seconds * speed for name, seconds in self.busy.items()}
        for name in SUMMED + MAXED:
            out[name] = self.counts.get(name, 0)
        out["bench.unattributed_s"] = (work_s - sum(self.busy.values())) * speed
        out["search.halting_reachable.configs_per_s"] = configs_per_s(out)
        return out
