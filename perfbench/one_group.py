"""One group of instances of one round, in a fresh process: import vasskit
from the checkout's `src`, build the round's groups, run every instance of
group `--group` through its pipeline and check it, then print one JSON line
with the group's figures, including `groups`, the number of groups in the
round.

`--t0` is the parent's `perf_counter()` just before it started this process.
On Linux `perf_counter` reads CLOCK_MONOTONIC, which all processes share, so
`setup_s` is the raw time from process start to the first timed call.  Set-up
itself cannot be sampled, so the host's speed is read right after it, and
`setup_ref_s` is the set-up time in reference seconds (see gauge.py).  The
instances run under a `SpeedGauge`: `wall_s` is the raw time they took, and
`wall_ref_s` the same time in reference seconds, sampling excluded.  Peak
memory is this process's `ru_maxrss`, which is why every group gets its own
process.  Python's garbage collector is left at its defaults.

Exit code 0 with a JSON line, or 3 when vasskit cannot be imported from the
checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_SPEED_RUNS = 200  # about half as long as set-up itself


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0, help="round number within the run")
    ap.add_argument("--group", type=int, default=0, help="group number within the round")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--small", action="store_true", help="reduced instance set (self-test)")
    ap.add_argument("--corrupt-first", action="store_true",
                    help="make the first independent answer wrong (self-test)")
    args = ap.parse_args()

    if not (SRC / "vasskit" / "__init__.py").is_file():
        print(f"no vasskit sources under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    import vasskit

    if Path(vasskit.__file__).resolve().parent != SRC / "vasskit":
        print(f"imported vasskit from {vasskit.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    from gauge import SpeedGauge, speed_now, warm_up
    from layers import Layers
    from workloads import Gate, round_groups

    groups = round_groups(args.workload, args.seed, args.round, args.small)
    items = groups[args.group]
    gauge = SpeedGauge()
    layers = Layers(gauge, traced=bool(args.trace), corrupt_first_oracle=args.corrupt_first)
    gate = Gate()

    setup_s = perf_counter() - args.t0
    warm_up()
    setup_speed = speed_now(SETUP_SPEED_RUNS)
    with gauge:
        sampled_before = gauge.spent_s
        start = perf_counter()
        for label, fn, fn_args in items:
            gate.run(label, lambda: fn(layers, gate, *fn_args))
        wall_s = perf_counter() - start
        work_s = wall_s - (gauge.spent_s - sampled_before)
    speed = gauge.speed()

    record = {
        "groups": len(groups),
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "setup_ref_s": setup_s * setup_speed,
        "wall_s": wall_s,
        "speed": speed,
        "speed_samples": len(gauge.samples),
        "wall_ref_s": work_s * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "failures": gate.failures[:5],
    }
    if args.trace:
        record["layers"] = layers.metrics(work_s, speed)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
