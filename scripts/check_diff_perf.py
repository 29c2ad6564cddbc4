#!/usr/bin/env python3
"""Perf guard for the incremental diff: fail CI if line tracking regresses.

Reads BENCH_incremental_diff.json (written by bench/abl_incremental_diff)
and enforces:

  * lines_diffed_per_line_written_at_10pct <= 1.5 — at ~10% dirty-line
    density the diff must memcmp at most 1.5 lines per line actually
    written (a full-page scan would be ~10.7).
  * memcmp reduction at 8/64 density >= 4.0 — the 8/64 row's bytes
    memcmp'd per epoch must be at least 4x below the full-page scan of
    dirty_pages_per_epoch x 4 KiB.
  * every sweep row recovered the expected state (correct == true).

Usage: check_diff_perf.py [path/to/BENCH_incremental_diff.json]
"""

import json
import sys

MAX_DIFFED_PER_WRITTEN = 1.5
MIN_MEMCMP_REDUCTION = 4.0
PAGE_SIZE = 4096
REDUCTION_DENSITY = 8  # dirty lines per page: 12.5%


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_incremental_diff.json"
    with open(path) as f:
        bench = json.load(f)

    failures = []

    ratio = bench["lines_diffed_per_line_written_at_10pct"]
    if ratio > MAX_DIFFED_PER_WRITTEN:
        failures.append(
            f"lines diffed per line written at ~10% density is {ratio:.3f} "
            f"(limit {MAX_DIFFED_PER_WRITTEN})"
        )

    full_scan = bench["dirty_pages_per_epoch"] * PAGE_SIZE
    rows = [r for r in bench["rows"]
            if r["density_lines"] == REDUCTION_DENSITY]
    reduction = 0.0
    if not rows:
        failures.append(f"no row at density {REDUCTION_DENSITY}/64")
    elif rows[0]["bytes_memcmp_per_epoch"] > 0:
        reduction = full_scan / rows[0]["bytes_memcmp_per_epoch"]
    if rows and reduction < MIN_MEMCMP_REDUCTION:
        failures.append(
            f"memcmp bytes reduction at 12.5% density is {reduction:.2f}x "
            f"vs the {full_scan} B full-page scan "
            f"(need >= {MIN_MEMCMP_REDUCTION}x)"
        )

    for r in bench["rows"]:
        if not r["correct"]:
            failures.append(
                f"row density={r['density_lines']} recovered wrong state")

    if failures:
        print(f"{path}: perf guard FAILED")
        for f_ in failures:
            print(f"  - {f_}")
        return 1

    print(
        f"{path}: perf guard ok "
        f"(diffed/written {ratio:.3f} <= {MAX_DIFFED_PER_WRITTEN}, "
        f"memcmp reduction {reduction:.2f}x >= {MIN_MEMCMP_REDUCTION}x, "
        f"{len(bench['rows'])} rows correct)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
