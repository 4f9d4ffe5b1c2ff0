#!/usr/bin/env python3
"""Measure the benchmark's noise floor: run each workload with several
seeds and report, per end-to-end metric, the median, the quartiles and
the quartile spread as a share of the median, against the metric's
bound from BENCHMARK.json.

    python3 perfbench/floor.py [--runs 10] [--first-seed 1] [--trace 0]
                               [--workload NAME ...] [--out FILE]

Run from the repository root. Each run's host CPU steal (clock ticks
from /proc/stat, where available) is reported as host.steal_ticks: on
a shared virtual machine it explains most run-to-run spread. A spread passes when it is below a third
of its bound (setup_s excepted: its spread is reported, not judged).
With --out, the summary is also written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values):
    """Median, first and third quartile (statistics.quantiles, n=4) and
    the quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": list(values),
    }


def steady(name, spread, bound):
    """Whether a spread is within the benchmark's own tolerance."""
    return name == "setup_s" or spread < bound / 3


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def metric_problems(result, expected):
    """Differences between a result's metrics and the names and units
    BENCHMARK.json declares for its trace mode."""
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = [f"missing {n}" for n in expected if n not in got]
    problems += [f"undeclared {n}" for n in got if n not in expected]
    problems += [f"{n}: unit {got[n]}, declared {u}"
                 for n, u in expected.items() if n in got and got[n] != u]
    return problems


def steal_ticks():
    """Host CPU time stolen from this machine so far (Linux /proc/stat),
    or None where it is not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    declared = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {}
    ok = True
    for w in workloads:
        samples = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", args.trace]
            steal = steal_ticks()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if steal is not None:
                samples.setdefault("host.steal_ticks", []).append(steal_ticks() - steal)
            result = last_json(proc.stdout)
            if proc.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: exit {proc.returncode}, correct={result['correct']}")
                ok = False
            for problem in metric_problems(result, expected):
                print(f"{w} seed {seed}: {problem}")
                ok = False
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed} done", file=sys.stderr)
        summary[w] = {}
        for name, values in samples.items():
            s = summarize(values)
            summary[w][name] = s
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                good = steady(name, s["spread"], bound)
                ok &= good
                verdict = f"bound {bound:<5} {'ok' if good else 'NOISY'}"
            print(f"{w:<20} {name:<28} median {s['median']:>12.4f}  "
                  f"q1 {s['q1']:>12.4f}  q3 {s['q3']:>12.4f}  spread {s['spread']:7.4f}  {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
