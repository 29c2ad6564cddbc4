#!/usr/bin/env python3
"""Acceptance guard for the PaxKV serving frontend.

Validates two inputs:

  * BENCH_paxkv.json (written by bench/abl_paxkv) — the in-process
    ablation. Enforces, per shard count >= 2, that cross-shard epoch group
    commit issues FEWER log flushes per acknowledged write op than
    per-shard independent commit, that group mode actually committed in
    waves, and that every row's percentiles are sane
    (0 < p50 <= p99 <= p999) with nonzero throughput. It also prints the
    group/independent closed-loop throughput ratio per shard count, as a
    diagnostic with no bound.
  * Optionally, loadgen reports (paxkv-loadgen --json) passed as extra
    arguments — the loopback smoke against the real binary. Enforces zero
    op errors, nonzero throughput, sane percentiles, and (for group-mode
    servers) waves > 0 with multi-shard waves observed at >= 2 shards.
    For each report after the first, it also prints that phase's own log
    flushes per acknowledged write: the difference of the server's
    cumulative counters since the report before it (a diagnostic with no
    bound; the 1.0 bound applies to each report's cumulative figure).

Usage: check_paxkv.py [BENCH_paxkv.json] [loadgen1.json loadgen2.json ...]
"""

import json
import sys


def sane_latency(p50, p99, p999, label, failures):
    if not 0 < p50 <= p99 <= p999:
        failures.append(
            f"{label}: implausible percentiles "
            f"p50={p50} p99={p99} p999={p999}"
        )


def check_bench(path, failures):
    with open(path) as f:
        bench = json.load(f)

    rows = bench["rows"]
    closed = [r for r in rows if r["loop"] == "closed"]
    by_shards = {}
    for r in closed:
        by_shards.setdefault(r["shards"], {}).setdefault(r["mode"], r)

    compared = 0
    for shards, modes in sorted(by_shards.items()):
        if shards < 2 or "group" not in modes or "independent" not in modes:
            continue
        g, ind = modes["group"], modes["independent"]
        g_tput, ind_tput = g["throughput_ops_s"], ind["throughput_ops_s"]
        ratio = g_tput / ind_tput if ind_tput > 0 else float("nan")
        print(
            f"{shards} shards: group/independent closed-loop throughput "
            f"{ratio:.2f} ({g_tput:.0f} / {ind_tput:.0f} ops/s)"
        )
        if g["flushes_per_op"] >= ind["flushes_per_op"]:
            failures.append(
                f"{shards} shards: group commit {g['flushes_per_op']:.4f} "
                f"flushes/op >= independent {ind['flushes_per_op']:.4f}"
            )
        if g["waves"] == 0:
            failures.append(f"{shards} shards: group mode issued no waves")
        if ind["waves"] != 0:
            failures.append(
                f"{shards} shards: independent mode issued waves"
            )
        compared += 1
    if compared == 0:
        failures.append(f"{path}: no group-vs-independent pair at >=2 shards")

    for r in rows:
        label = f"{path} row {r['mode']}/{r['loop']}/{r['shards']}sh"
        if r["ops"] == 0 or r["throughput_ops_s"] <= 0:
            failures.append(f"{label}: no throughput")
        sane_latency(r["p50_ns"], r["p99_ns"], r["p999_ns"], label, failures)
        if r["acked_write_ops"] == 0:
            failures.append(f"{label}: no acknowledged writes")

    return compared


def check_loadgen(path, failures):
    with open(path) as f:
        report = json.load(f)

    label = f"{path} ({report['mode']} loop)"
    if report["errors"] != 0:
        failures.append(f"{label}: {report['errors']} op error(s)")
    if report["ops"] == 0 or report["throughput_ops_s"] <= 0:
        failures.append(f"{label}: no throughput")
    lat = report["latency_ns"]
    sane_latency(lat["p50"], lat["p99"], lat["p999"], label, failures)

    server = report.get("server", {})
    if server.get("commit_mode") == "group":
        gc = server["group_commit"]
        if gc["waves"] == 0:
            failures.append(f"{label}: group server issued no waves")
        if server["shards"] >= 2 and gc["max_wave_shards"] < 2:
            failures.append(
                f"{label}: no wave ever spanned >= 2 shards "
                f"(max {gc['max_wave_shards']})"
            )
        if server["acked_write_ops"] and server["log_flushes_per_acked_op"] >= 1.0:
            failures.append(
                f"{label}: {server['log_flushes_per_acked_op']:.3f} "
                "flushes/acked-op — group commit is not amortizing"
            )
    return report


def print_phase_figures(reports):
    """Prints each phase's own flushes per acked write.

    A loadgen report carries the server's cumulative counters, so a phase
    run after another one reads the earlier phase's writes as well. The
    difference from the report before it isolates the phase.
    """
    for (prev_path, prev), (path, cur) in zip(reports, reports[1:]):
        a, b = prev.get("server", {}), cur.get("server", {})
        if "log_flushes_total" not in a or "log_flushes_total" not in b:
            continue
        writes = b["acked_write_ops"] - a["acked_write_ops"]
        flushes = b["log_flushes_total"] - a["log_flushes_total"]
        if writes <= 0:
            continue
        print(
            f"{path} ({cur['mode']} loop) alone: "
            f"{flushes / writes:.3f} log flushes per acked write "
            f"({flushes} / {writes} since {prev_path})"
        )


def main() -> int:
    args = sys.argv[1:] or ["BENCH_paxkv.json"]
    failures = []
    compared = 0
    reports = []
    for path in args:
        if "BENCH" in path:
            compared += check_bench(path, failures)
        else:
            reports.append((path, check_loadgen(path, failures)))
    print_phase_figures(reports)

    if failures:
        print("paxkv guard FAILED")
        for f_ in failures:
            print(f"  - {f_}")
        return 1

    print(
        f"paxkv guard ok ({compared} group-vs-independent comparison(s), "
        f"{len(reports)} loadgen report(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
