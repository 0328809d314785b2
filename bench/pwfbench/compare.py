#!/usr/bin/env python3
"""Compare two sets of pwf_bench run records against BENCHMARK.json.

    compare.py --base base-1.json base-2.json ... --new new-1.json ...
    compare.py --self-test

Each record is the JSON file pwf_bench --out writes (one or more
workloads). For every (workload, end-to-end metric) it compares the
medians: a change worse than the metric's bound (a share
of the base median) is a regression. When the spread of either side, the
distance between its first and third quartiles as a share of its median,
exceeds the bound, the pair is "unresolved" instead, unless every new run
is better than every base run. The comparison also fails on a rise in
failed operations per attempted operation, on any run that failed a check
or crashed, on a workload that ran on one side only, and on an end-to-end
metric missing from any run. Exits 1 on any failure.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def collect(records):
    """{workload: {"runs", "not_ok", "metrics": {name: [values]}, "failed",
    "attempted"}}; "not_ok" counts runs that failed a check or crashed."""
    out = {}
    for rec in records:
        for w in rec["workloads"]:
            slot = out.setdefault(w["workload"],
                                  {"runs": 0, "not_ok": 0, "metrics": {},
                                   "failed": 0, "attempted": 0})
            slot["runs"] += 1
            if w.get("ok") is not True:
                slot["not_ok"] += 1
            slot["failed"] += int(w.get("failed", 0))
            slot["attempted"] += int(w.get("attempted", 0))
            for name, m in w.get("metrics", {}).items():
                slot["metrics"].setdefault(name, []).append(m["value"])
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def compare(base_records, new_records, spec):
    """Returns (ok, report lines)."""
    base, new = collect(base_records), collect(new_records)
    lines, ok = [], True

    def fail(wl, what, why):
        nonlocal ok
        ok = False
        lines.append("%-12s %-16s FAILED  %s" % (wl, what, why))

    for wl in sorted(set(base) | set(new)):
        if wl not in base or wl not in new:
            fail(wl, "workload", "ran on the %s side only"
                 % ("base" if wl in base else "new"))
            continue
        b, n = base[wl], new[wl]
        for side, s in (("base", b), ("new", n)):
            if s["not_ok"]:
                fail(wl, "checks", "%d of %d %s runs failed a check or "
                     "crashed" % (s["not_ok"], s["runs"], side))
        b_rate = b["failed"] / max(1, b["attempted"])
        n_rate = n["failed"] / max(1, n["attempted"])
        if n_rate > b_rate:
            fail(wl, "failed", "failed/attempted rose %.3g -> %.3g"
                 % (b_rate, n_rate))
        for m in spec["end_to_end"]:
            bv = b["metrics"].get(m["name"], [])
            nv = n["metrics"].get(m["name"], [])
            if len(bv) < b["runs"] or len(nv) < n["runs"]:
                fail(wl, m["name"], "missing from %d base and %d new runs"
                     % (b["runs"] - len(bv), n["runs"] - len(nv)))
                continue
            bmed, nmed = statistics.median(bv), statistics.median(nv)
            lower = m["better"] == "lower"
            worse = ((nmed - bmed) if lower else (bmed - nmed)) / abs(bmed)
            all_better = (max(nv) < min(bv)) if lower else (min(nv) > max(bv))
            sp = max(spread(bv), spread(nv))
            if sp > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                ok = False
            else:
                verdict = "ok"
            lines.append("%-12s %-16s %-10s base %-11.5g new %-11.5g "
                         "worse %+6.1f%% (bound %g%%, spread %.1f%%)"
                         % (wl, m["name"], verdict, bmed, nmed, 100 * worse,
                            100 * m["bound"], 100 * sp))
    return ok, lines


def self_test(spec):
    """The comparison on synthetic records.

    Under a 10% bound, a 20% slowdown of one metric must fail and identical
    sets must pass; under the bounds in BENCHMARK.json, a slowdown just
    beyond each metric's bound must fail. A crashed or failed run, a
    workload run on one side only, and a metric missing from a run must
    each fail the comparison.
    """
    def runs(metrics, scale=1.0, target=None, failed=0, jitter=0.004):
        out = []
        for i in range(5):
            vals = {}
            for m in metrics:
                v = 100.0 * (1.0 + jitter * (i - 2))
                if m["name"] == target:
                    v *= scale
                vals[m["name"]] = {"value": v, "unit": m["unit"]}
            out.append({"workloads": [{"workload": "w", "ok": True,
                                       "failed": failed, "attempted": 100,
                                       "metrics": vals}]})
        return out

    def slower(m, by):
        return 1 + by if m["better"] == "lower" else 1 - by

    designed = {"end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}
    metrics = designed["end_to_end"]
    checks = [("identical sets pass",
               compare(runs(metrics), runs(metrics), designed)[0])]
    for m in metrics:
        bad = compare(runs(metrics), runs(metrics, slower(m, 0.2), m["name"]),
                      designed)[0]
        checks.append(("20%% slowdown of %s fails under a 10%% bound"
                       % m["name"], not bad))
    checks.append(("a rise in failed operations fails",
                   not compare(runs(metrics), runs(metrics, failed=1),
                               designed)[0]))
    crashed = runs(metrics)
    crashed[2]["workloads"][0] = {"workload": "w", "ok": False,
                                  "status": 139}
    checks.append(("a crashed run fails",
                   not compare(runs(metrics), crashed, designed)[0]))
    failed_check = runs(metrics)
    failed_check[0]["workloads"][0]["ok"] = False
    checks.append(("a run that failed a check fails",
                   not compare(failed_check, runs(metrics), designed)[0]))
    extra = runs(metrics)
    extra[0]["workloads"].append(dict(extra[0]["workloads"][0],
                                      workload="v"))
    checks.append(("a workload on one side only fails",
                   not compare(runs(metrics), extra, designed)[0]))
    missing = runs(metrics)
    del missing[4]["workloads"][0]["metrics"]["rate"]
    checks.append(("a metric missing from one run fails",
                   not compare(runs(metrics), missing, designed)[0]))
    noisy = compare(runs(metrics, jitter=0.1),
                    runs(metrics, slower(metrics[0], 0.2), "lat_ms",
                         jitter=0.1), designed)[1]
    checks.append(("a spread wider than the bound is unresolved",
                   "unresolved" in noisy[0]))
    real = spec["end_to_end"]
    for m in real:
        bad = compare(runs(real),
                      runs(real, slower(m, m["bound"] + 0.05), m["name"]),
                      spec)[0]
        checks.append(("BENCHMARK.json: %s worse by its bound + 5%% fails"
                       % m["name"], not bad))
    for claim, passed in checks:
        print("%s: %s" % ("PASS" if passed else "FAIL", claim))
    return all(p for _, p in checks)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", default=[])
    ap.add_argument("--new", nargs="+", default=[])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if args.self_test:
        return 0 if self_test(spec) else 1
    if not args.base or not args.new:
        ap.error("give --base and --new run records")

    def load(paths):
        out = []
        for p in paths:
            with open(p) as f:
                out.append(json.load(f))
        return out

    ok, lines = compare(load(args.base), load(args.new), spec)
    print("\n".join(lines))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
