#!/usr/bin/env python3
"""Steadiness check: two alternating sets of runs of every workload.

    python3 esdbench/steady.py [--runs 10] [--seed-base 1] [--workloads a,b]

Run from the root of a checkout. For each workload it makes `runs` runs of
set A and `runs` runs of set B, alternating A and B, each run with its own
seed (set A takes seeds seed-base.., set B the next `runs`), all with
`run_seconds` from BENCHMARK.json. For every end-to-end metric it prints
each set's median and quartiles and the spread (Q3 - Q1) / median, and
whether the sets agree within BENCHMARK.json's bounds: each spread within
the bound, set B's median no worse than set A's by more
than the bound, and the same share of failed operations in both sets.
Exits 0 when everything agrees. Prints a markdown table per workload.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    all_ok = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for name, offset in (("A", 0), ("B", args.runs)):
                seed = args.seed_base + offset + i
                sets[name].append(run_once(spec["command"], workload, seed,
                                           spec["run_seconds"]))
        print(f"\n### {workload} ({args.runs} runs per set, "
              f"{spec['run_seconds']} s each)\n")
        print("| metric | set | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        verdicts = []
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for s, runs in sets.items():
                stats[s] = summarize([r["metrics"][name]["value"]
                                      for r in runs])
                med, q1, q3, spread = stats[s]
                print(f"| {name} | {s} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                      f"{spread:.4f} | {bound} |")
                if spread > bound:
                    verdicts.append(f"{name}: set {s} spread {spread:.4f} "
                                    f"> bound {bound}")
            a, b = stats["A"][0], stats["B"][0]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            if worse > bound:
                verdicts.append(f"{name}: set B median worse by {worse:.4f}")
        shares = {s: [(r["failed"], r["attempted"]) for r in runs]
                  for s, runs in sets.items()}
        share = {s: sum(f for f, _ in v) / sum(a for _, a in v)
                 for s, v in shares.items()}
        if share["A"] != share["B"] or not all(
                r["correct"] for runs in sets.values() for r in runs):
            verdicts.append(f"failed shares {share} or a run not correct")
        print()
        if verdicts:
            all_ok = False
            for v in verdicts:
                print(f"- DISAGREE: {v}")
        else:
            print("- the two sets agree within the bounds "
                  f"(failed share {share['A']:.4f} in both)")
        sys.stdout.flush()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
