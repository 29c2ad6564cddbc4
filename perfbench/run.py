#!/usr/bin/env python3
"""Run one workload of the pax benchmark and print its result.

    python3 perfbench/run.py --workload kv_write_hot --seed 1 --seconds 10 --trace 0

Run it from the repository root. The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt: the pax library from src/ plus
perfbench/src) in $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
Later runs only rebuild what changed.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of the traced run, whose spans go to
<build dir>/traces/. The line before the result holds provenance (host CPUs,
build type, compiler, git commit or source digest, seed). The whole record
is also written to <build dir>/results/. The exit status is 0 only when
every correctness check and counter identity held.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv_write_hot", "kv_read_wide", "persist_sparse", "persist_dense")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (log: %s)" % log_path)
    return os.path.join(bdir, "perfbench")


def cache_value(bdir, key):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    """SHA-256 over src/ and perfbench/: names the code when git can't."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def declared_metrics(trace):
    """name -> unit from BENCHMARK.json, or None when it isn't there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(metrics, trace):
    problems = []
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"metric {name} has no finite value")
    declared = declared_metrics(trace)
    if declared is not None:
        got = {name: m["unit"] for name, m in metrics.items()}
        if got != declared:
            problems.append("metrics differ from BENCHMARK.json: "
                            f"missing {sorted(set(declared) - set(got))}, "
                            f"extra {sorted(set(got) - set(declared))}, "
                            "unit mismatch "
                            f"{sorted(n for n in got if n in declared and got[n] != declared[n])}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--short", action="store_true",
                    help="tiny sizes, for the smoke test")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no pax sources at %s/src; run from a checkout of the repository"
            % ROOT)
    bdir = build_dir()
    binary = build(bdir)
    build_type = cache_value(bdir, "CMAKE_BUILD_TYPE")
    cxx_flags = cache_value(bdir, "CMAKE_CXX_FLAGS")
    if build_type == "Debug" or "-fsanitize" in cxx_flags:
        die(f"refusing a {build_type} {cxx_flags} build: timings would not "
            "be comparable", 3)

    trace_file = os.path.join(bdir, "traces",
                              f"{args.workload}-seed{args.seed}.csv")
    os.makedirs(os.path.dirname(trace_file), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", trace_file]
    if args.short:
        cmd.append("--short")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"perfbench exited {proc.returncode} without a result", 1)
    out = json.loads(lines[-1])

    problems = out["errors"] + check_metrics(out["metrics"], args.trace)
    correct = proc.returncode == 0 and out["failed"] == 0 and not problems
    for p in problems:
        print(f"perfbench: {args.workload}: {p}", file=sys.stderr)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
        "host_cpus": os.cpu_count(),
        "build_type": out["build"]["build_type"],
        "compiler": out["build"]["compiler"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "run_s": round(time.monotonic() - start, 3),
        "trace_file": trace_file if args.trace else None,
        "known": out["known"],
        "info": out["info"],
    }
    result = {
        "correct": correct,
        "attempted": max(1, out["attempted"]),
        "failed": out["failed"] or (0 if correct else 1),
        "metrics": out["metrics"],
    }
    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"provenance": provenance, "errors": problems,
                   "result": result}, f, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
