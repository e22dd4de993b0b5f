#!/usr/bin/env python3
"""Paired A/B runs of a host-time benchmark in two checkouts.

    python3 tools/ab.py --a PARENT --b CHANGE --pairs 10 --seed0 41 -- \\
        python3 perfbench/run.py --workload jbb --seed {seed} --seconds 30

Runs CMD from the root of checkout A and of checkout B once per pair,
swapping which side goes first on every pair (A first on even pairs), with
each `{seed}` in CMD replaced by seed0 + the pair's index.  A run's result is
the last stdout line that parses as a JSON object: perfbench's
{"correct", "attempted", "failed", "metrics"}, each metric a number or a
{"value", "unit"} object.  A run that exits non-zero, prints no JSON object,
reports "correct" false or "failed" > 0 stops the comparison with exit 1.

The summary gives, per metric, each side's median and interquartile range
and in how many pairs B beat A.  Which way is better comes from the
repository's BENCHMARK.json ("better": "lower" or "higher"); ties count for
neither side, and a metric BENCHMARK.json does not name gets no win count.
Every run's values follow the table, and the last line is the summary as
one JSON object.  Standard library only.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def directions():
    doc = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["better"]
            for key in ("end_to_end", "per_layer") for m in doc.get(key, [])}


def last_json(stdout):
    for line in reversed(stdout.splitlines()):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict):
            return obj
    return None


def run_once(side, cwd, cmd, seed):
    argv = [arg.replace("{seed}", str(seed)) for arg in cmd]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    res = last_json(done.stdout)
    where = f"side {side}, seed {seed}"
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        sys.exit(f"ab: {where}: exit {done.returncode}")
    if res is None:
        sys.exit(f"ab: {where}: no JSON object on stdout")
    if res.get("correct") is False or res.get("failed", 0) > 0:
        sys.exit(f"ab: {where}: correct={res.get('correct')} failed={res.get('failed')}")
    return {name: m["value"] if isinstance(m, dict) else m
            for name, m in res.get("metrics", {}).items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def iqr(side):
    return f"{side['q1']:.6g}-{side['q3']:.6g}"


def b_wins(a, b, better):
    if better == "lower":
        return sum(y < x for x, y in zip(a, b))
    if better == "higher":
        return sum(y > x for x, y in zip(a, b))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", required=True, help="checkout A (the baseline)")
    ap.add_argument("--b", required=True, help="checkout B (the change)")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("cmd", nargs=argparse.REMAINDER, help="-- CMD ... ({seed} is substituted)")
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd or args.pairs < 1:
        ap.error("need --pairs >= 1 and a command after --")
    better = directions()

    runs = {"A": [], "B": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
            runs[side].append(run_once(side, args.a if side == "A" else args.b, cmd, seed))

    names = [n for n in runs["A"][0] if all(n in r for r in runs["A"] + runs["B"])]
    summary = {}
    print(f"{'metric':<28} {'A median':>12} {'A IQR':>25} {'B median':>12} {'B IQR':>25}  B wins")
    for name in names:
        a = [r[name] for r in runs["A"]]
        b = [r[name] for r in runs["B"]]
        wins = b_wins(a, b, better.get(name))
        row = {}
        for side, xs in (("a", a), ("b", b)):
            q1, q3 = quartiles(xs)
            row[side] = {"median": statistics.median(xs), "q1": q1, "q3": q3, "runs": xs}
        row["better"] = better.get(name)
        row["b_wins"] = wins
        summary[name] = row
        won = "-" if wins is None else f"{wins}/{args.pairs}"
        print(f"{name:<28} {row['a']['median']:>12.6g} {iqr(row['a']):>25} "
              f"{row['b']['median']:>12.6g} {iqr(row['b']):>25}  {won}")
    for name in names:
        pairs = ", ".join(f"{x:.6g}/{y:.6g}" for x, y in
                          zip(summary[name]["a"]["runs"], summary[name]["b"]["runs"]))
        print(f"{name} A/B by seed: {pairs}")
    print(json.dumps({"pairs": args.pairs, "seed0": args.seed0, "metrics": summary}))


if __name__ == "__main__":
    main()
