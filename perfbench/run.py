"""vasskit benchmark: run one workload for about `--seconds` seconds.

    python3 perfbench/run.py --workload np_reach --seed 1 --seconds 20 --trace 0

Load is a closed loop with one caller.  A round runs every instance of the
workload once, in an order fixed by the seed and the round number, and
checks every result.  The instances come in groups (see workloads.py), and
each group runs in a fresh child process (`one_group.py`), one process at a
time.  Rounds start until another would end past `--seconds`, with at least
three.

Times are in reference seconds: raw seconds scaled by the host's speed,
measured while the work runs (see gauge.py), so that a shared host's speed
swings cancel.  `--trace 0` reports the end-to-end metrics of BENCHMARK.json:
the median round's `wall_ref_s`, the highest `peak_rss_mb` of any group
process, and `setup_s`, the median set-up time of every group process.
`--trace 1` alternates untraced and traced rounds and reports the per-layer
metrics: the median over traced rounds, plus `bench.trace_overhead_s`, the
median traced minus the median untraced round.

Standard output ends with a record line (machine, commit, every round) and
then the result line: `correct`, `attempted`, `failed` and `metrics`.  Exits
1, printing no result, when a group cannot run (for example, when the
checkout has no `src`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from layer_metrics import merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
RUN_LIMIT_S = 170  # a run must end within 180 s; a group still running then is killed
STARTED = perf_counter()


class RoundError(Exception):
    pass


def spawn_group(workload: str, seed: int, round_ix: int, group: int, *flags: str) -> dict:
    """Run one_group.py in a fresh process and return its JSON record."""
    cmd = [sys.executable, str(HERE / "one_group.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(round_ix), "--group", str(group), *flags]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              timeout=max(0.0, RUN_LIMIT_S - (t0 - STARTED)))
    except subprocess.TimeoutExpired as e:
        raise RoundError(f"{workload} run still going after {RUN_LIMIT_S} s") from e
    if proc.returncode != 0:
        raise RoundError(f"{workload} group exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_round(workload: str, seed: int, round_ix: int, *flags: str,
              corrupt_first: bool = False) -> dict:
    """Run every group of one round, one process at a time, and combine
    their figures.  `corrupt_first` makes the first independent answer of
    the round's first group wrong (self-test)."""
    first = ["--corrupt-first"] if corrupt_first else []
    groups = [spawn_group(workload, seed, round_ix, 0, *flags, *first)]
    while len(groups) < groups[0]["groups"]:
        groups.append(spawn_group(workload, seed, round_ix, len(groups), *flags))
    layers = [g.pop("layers") for g in groups if "layers" in g]
    out = {
        "wall_s": sum(g["wall_s"] for g in groups),
        "wall_ref_s": sum(g["wall_ref_s"] for g in groups),
        "peak_rss_mb": max(g["peak_rss_mb"] for g in groups),
        "attempted": sum(g["attempted"] for g in groups),
        "failed": sum(g["failed"] for g in groups),
        "failures": [f for g in groups for f in g["failures"]],
        "groups": groups,
    }
    if layers:
        out["layers"] = merge(layers)
    return out


def repeat_until(seconds: float, minimum: int, run_once) -> list:
    """Call run_once(i) for i = 0, 1, ... back to back until another call
    would end past `seconds`, and at least `minimum` times."""
    began = perf_counter()
    results, took = [], []
    while True:
        t = perf_counter()
        results.append(run_once(len(results)))
        took.append(perf_counter() - t)
        if len(results) >= minimum and perf_counter() - began + statistics.median(took) > seconds:
            return results


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(workload: str, seed: int, seconds: float):
    rounds = repeat_until(seconds, MIN_ROUNDS, lambda i: run_round(workload, seed, i, "--trace", "0"))
    metrics = {
        "wall_ref_s": statistics.median(r["wall_ref_s"] for r in rounds),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        "setup_s": statistics.median(g["setup_ref_s"] for r in rounds for g in r["groups"]),
    }
    return rounds, metrics


def per_layer(workload: str, seed: int, seconds: float):
    def pair(i: int):
        # both sides run the same order; which goes first alternates, so
        # drift does not favour either
        sides = ("0", "1") if i % 2 == 0 else ("1", "0")
        got = {t: run_round(workload, seed, i, "--trace", t) for t in sides}
        return got["0"], got["1"]

    pairs = repeat_until(seconds, MIN_TRACED_PAIRS, pair)
    untraced = [u for u, _t in pairs]
    traced = [t for _u, t in pairs]
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    metrics["bench.trace_overhead_s"] = (
        statistics.median(r["wall_ref_s"] for r in traced)
        - statistics.median(r["wall_ref_s"] for r in untraced)
    )
    return untraced + traced, metrics


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measure = per_layer if args.trace else end_to_end
    try:
        rounds, measured = measure(args.workload, args.seed, args.seconds)
    except RoundError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "environment": environment(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_share": failed / attempted,
        "metrics": metrics,
        "rounds": rounds,
    }
    for r in rounds:
        for failure in r["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
