#!/usr/bin/env python3
"""Build pwf_bench from source and run one workload of the service benchmark.

Run from the root of a checkout:

    python3 bench/pwfbench/run.py --workload serve_point --seed 1 \
        --seconds 15 --trace 0

It configures and builds the standalone Release project in
bench/pwfbench (into $CARGO_TARGET_DIR, default .bench_build), runs the
binary on one workload, and prints the metrics BENCHMARK.json lists: its
end-to-end metrics for --trace 0, its per-layer metrics for --trace 1 (the
binary then runs an untraced and a traced pass of half the length each).
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits nonzero, without that line, if the build fails (for instance when
the repository's src/ is absent) or a metric is missing.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "pwf_bench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "pwf_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload %r" % args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("pwfbench: build failed: %s" % e)
        return 2

    # One record and one trace per workload, overwritten by the next run.
    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    record = os.path.join(runs, "%s.json" % args.workload)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--out=" + record]
    if args.trace:
        cmd.append("--trace=" + os.path.join(runs, "%s.trace.json"
                                             % args.workload))
    if os.path.exists(record):
        os.remove(record)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("pwfbench: %s timed out after %d s" % (args.workload,
                                                   RUN_TIMEOUT_S))
        return 3
    if not os.path.exists(record):
        log("pwfbench: %s wrote no record (exit %d)" % (args.workload,
                                                        proc.returncode))
        return 3
    with open(record) as f:
        run = json.load(f)["workloads"][0]

    measured = run["layers"] if args.trace else run["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("pwfbench: %s did not report %s in %s" % (
                args.workload, m["name"], m["unit"]))
            return 4
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    # Everything measured, for a reader; programs read the last line.
    for name, m in sorted(measured.items()):
        print("%-40s %16.6g %s" % (name, m["value"], m["unit"]))
    for c in run["checks"]:
        if not c["pass"]:
            print("FAILED CHECK: %s" % c["claim"])
    print(json.dumps({
        "correct": bool(run["ok"]) and proc.returncode == 0,
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": metrics,
    }))
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
