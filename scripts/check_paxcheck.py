#!/usr/bin/env python3
"""Perf guard for PaxCheck: fail CI if the checker gets too expensive.

Reads BENCH_paxcheck.json (written by bench/abl_paxcheck) and enforces:

  * overhead_ratio_tracked <= 2.0 — with the checker attached, persist()
    on the tracked host-sync configuration (the default-shaped production
    path) costs at most 2x the unchecked run. The checker is meant to ride
    along in every stress test; past 2x people start turning it off.
  * violations == 0 — the checker must be silent on the correct
    implementation; a violation here is either a real ordering bug or a
    checker false positive, and both block.
  * every row processed events (events > 0) — guards against the checker
    silently detaching and the ratio trivially passing.

Usage: check_paxcheck.py [path/to/BENCH_paxcheck.json]
"""

import json
import sys

MAX_OVERHEAD_RATIO = 2.0


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_paxcheck.json"
    with open(path) as f:
        bench = json.load(f)

    failures = []

    ratio = bench["overhead_ratio_tracked"]
    if ratio > MAX_OVERHEAD_RATIO:
        failures.append(
            f"checker-on overhead on the tracked config is {ratio:.2f}x "
            f"(limit {MAX_OVERHEAD_RATIO}x)"
        )

    if bench["violations"] != 0:
        failures.append(
            f"checker reported {bench['violations']} violation(s) on the "
            f"clean workload"
        )

    dead_rows = [r for r in bench["rows"] if r["events"] == 0]
    for r in dead_rows:
        failures.append(f"row config={r['config']} processed zero events")

    if failures:
        print(f"{path}: paxcheck guard FAILED")
        for f_ in failures:
            print(f"  - {f_}")
        return 1

    print(
        f"{path}: paxcheck guard ok "
        f"(tracked overhead {ratio:.2f}x <= {MAX_OVERHEAD_RATIO}x, "
        f"0 violations, {len(bench['rows'])} rows live)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
