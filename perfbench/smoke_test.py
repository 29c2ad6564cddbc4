#!/usr/bin/env python3
"""Short-mode smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke_test.py

For each workload it makes one untraced and one traced run (--short,
one second) and checks that:
  * both succeed and end with the result line the benchmark contract asks;
  * every metric BENCHMARK.json names appears, with its unit;
  * the traced run's spans nest: each child lies inside its parent;
  * every span's self time (duration minus what its children cover) is
    >= 0, recomputed here from the span file.
Exits nonzero on the first workload that fails.
"""

import csv
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
from run import WORKLOADS  # noqa: E402  (every workload, gated or not)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--short"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {proc.returncode}:"
                             f"\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared, (sorted(set(declared) ^ set(got)), got)


def check_spans(path):
    with open(path) as f:
        spans = list(csv.DictReader(f))
    assert spans, f"{path} holds no spans"
    start = [int(s["start_ns"]) for s in spans]
    end = [int(s["end_ns"]) for s in spans]
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        assert int(s["index"]) == i, s
        p = int(s["parent"])
        if p < 0:
            continue
        assert p < i, f"span {i} opened before its parent {p}"
        assert start[p] <= start[i] and end[i] <= end[p], \
            f"span {i} ({s['name']}) is not inside its parent {p}"
        children[p].append(i)
    assert any(children), "no span has a child"
    for i in range(len(spans)):
        covered, reach = 0, start[i]
        for c in sorted(children[i], key=lambda c: start[c]):
            lo, hi = max(start[c], reach), min(end[c], end[i])
            if hi > lo:
                covered, reach = covered + hi - lo, hi
        assert end[i] - start[i] - covered >= 0, f"span {i} self time < 0"
    return len(spans)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {key: {m["name"]: m["unit"] for m in spec[key]}
             for key in ("end_to_end", "per_layer")}
    for w in WORKLOADS:
        _, result = run(w, 0)
        check_metrics(result, units["end_to_end"])
        provenance, result = run(w, 1)
        check_metrics(result, units["per_layer"])
        n = check_spans(provenance["trace_file"])
        print(f"ok {w}: {len(result['metrics'])} per-layer metrics, "
              f"{n} spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
