#!/usr/bin/env python3
"""Repeats one workload and reports how steady each metric is.

Run from the repository root:

    python3 perfbench/steady.py --workload bulk_cloud --runs 10 --save a.json
    python3 perfbench/steady.py --compare a.json b.json

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric it prints the median, the quartiles (statistics.quantiles, n=4),
the interquartile spread as a share of the median, (max - min) / median,
and the metric's bound from BENCHMARK.json; "ok" means the spread is below
a third of the bound. bench.reference_loop_ms, a fixed loop timed at the
start of every run, shows how fast the machine ran meanwhile.

--compare takes two saved sets of the same workloads and prints, per
metric, how much worse the second median is than the first ("B vs A")
and the first than the second ("A vs B"), next to its bound. A move of more than the
bound in either direction is flagged DRIFT: with either set taken as the
baseline, the other must stay within the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                       p.returncode))
    result = json.loads(lines[-1])
    ref = [float(l.split()[1]) for l in lines
           if l.startswith("reference_loop_ms ")][0]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["bench.reference_loop_ms"] = ref
    # Every run prints its wall-clock figures, and a traced run its own
    # end-to-end figures too; keep them (prefixed) so the effect of the
    # reference-speed scaling and the tracing overhead can be read off.
    for prefix in ("raw", "traced"):
        for line in lines:
            if line.startswith(prefix + "-end-to-end "):
                extra = json.loads(line.split(" ", 1)[1])
                values.update({prefix + "." + k: v["value"]
                               for k, v in extra.items()})
    return {"seed": seed, "attempted": result["attempted"],
            "failed": result["failed"], "correct": result["correct"],
            "values": values}


def summarize(runs, bounds):
    names = list(runs[0]["values"])
    print("%-36s %12s %12s %12s %8s %8s %6s" % (
        "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
    for name in names:
        vals = [r["values"][name] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        b = bounds.get(name)
        verdict = "" if b is None else ("ok" if iqr < b / 3 else "WIDE")
        print("%-36s %12.6g %12.6g %12.6g %8.4f %8.4f %6s %s" % (
            name, med, q1, q3, iqr, rng, "-" if b is None else b, verdict))
    fails = {(r["attempted"], r["failed"]) for r in runs}
    print("runs %d, correct %s, (attempted, failed): %s" % (
        len(runs), all(r["correct"] for r in runs), sorted(fails)))


def worse_by(better, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    return (other - base) / base if better == "lower" else (base - other) / base


def compare(a_path, b_path, metrics):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    print("%-16s %-22s %12s %12s %8s %8s %6s" % (
        "workload", "metric", "median A", "median B", "B vs A", "A vs B",
        "bound"))
    for wl in sorted(set(a) & set(b)):
        for m in metrics:
            if m["name"] not in a[wl][0]["values"]:
                continue
            ma = statistics.median(r["values"][m["name"]] for r in a[wl])
            mb = statistics.median(r["values"][m["name"]] for r in b[wl])
            worse = worse_by(m["better"], ma, mb)
            back = worse_by(m["better"], mb, ma)  # B taken as the baseline
            print("%-16s %-22s %12.6g %12.6g %8.4f %8.4f %6s %s" % (
                wl, m["name"], ma, mb, worse, back, m["bound"],
                "ok" if max(worse, back) <= m["bound"] else "DRIFT"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--save", help="write the raw results here (JSON)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()

    s = spec()
    if args.compare:
        compare(args.compare[0], args.compare[1], s["end_to_end"])
        return 0
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    seconds = args.seconds or s["run_seconds"]
    workloads = args.workload or [w["name"] for w in s["workloads"]]
    saved = {}
    for wl in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(one_run(wl, args.first_seed + i, seconds, args.trace))
            print("%s seed %d done" % (wl, args.first_seed + i),
                  file=sys.stderr)
        print("== %s: %d runs of %g s, trace %d" % (wl, args.runs, seconds,
                                                     args.trace))
        summarize(runs, bounds)
        saved[wl] = runs
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
