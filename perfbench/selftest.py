"""Self-test of the benchmark's correctness gate, at reduced scale.

    python3 perfbench/selftest.py

For every workload it runs one small round as is, which must report no
failure, and one small round whose first expected answer is deliberately
wrong (the first answer computed by the benchmark's own oracle), which
must report exactly one failed result.  A traced small round
must also report every per-layer metric.  Exits 0 when the gate behaves,
1 otherwise.
"""

from __future__ import annotations

import sys

from run import RoundError, load_spec, run_round


def main() -> int:
    ok = True
    for workload in (w["name"] for w in load_spec()["workloads"]):
        try:
            clean = run_round(workload, 1, 0, "--small", "--trace", "1")
            wrong = run_round(workload, 1, 0, "--small", corrupt_first=True)
        except RoundError as e:
            print(f"FAIL {e}")
            ok = False
            continue
        checks = {
            "clean round has no failure": clean["failed"] == 0,
            "wrong independent answer is one failure": wrong["failed"] == 1,
            "both rounds attempt the same results": clean["attempted"] == wrong["attempted"],
            "traced round reports per-layer metrics": "bench.unattributed_s" in clean["layers"],
        }
        for what, passed in checks.items():
            print(f"{'ok  ' if passed else 'FAIL'} {workload}: {what}")
            ok &= passed
        for failure in wrong["failures"]:
            print(f"     {workload}: counted {failure}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
