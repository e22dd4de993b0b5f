#!/usr/bin/env python3
"""CI gate for the TM hot-path benchmark (bench/hotpath.cpp).

Compares a fresh BENCH_hotpath.json against the committed baseline and fails
when any of the following hold:

  * normalized throughput (ops_per_sec / host calibration) of any scenario
    regressed by more than --tolerance (default 25%),
  * the geometric mean of the normalized-throughput ratios across the
    trace-OFF scenarios regressed by more than --geomean-tolerance
    (default 2%) — this is the txtrace transparency budget: with no tracer
    attached the hot path must not pay for the hooks,
  * a scenario's simulated cycle total changed at all — the hot-path work is
    host-side only; simulated timing is part of the cost model and must be
    bit-stable across builds, or
  * a "<name>_traced" twin's sim_cycles differ from its plain "<name>" run
    within the CURRENT file — attaching a tracer must be invisible to the
    simulated clock.

Usage: tools/check_hotpath.py BASELINE.json CURRENT.json
           [--tolerance 0.25] [--geomean-tolerance 0.02]
"""
import argparse
import json
import math
import sys


def die(msg):
    print(f"check_hotpath: ERROR: {msg}")
    sys.exit(2)


def load(path):
    """Parse a BENCH_hotpath.json document, failing loudly (clear message,
    nonzero exit) on a malformed or poisoned file instead of a KeyError.

    A record is *poisoned* when the bench marked it so explicitly
    ("poisoned": true) or when its sim_cycles is absent/null — a point the
    sweep could not complete.  A poisoned point can never pass the gate, so
    it is rejected here, before any comparison silently skips it.
    """
    with open(path) as f:
        doc = json.load(f)
    results = doc.get("results")
    if not isinstance(results, list):
        die(f"{path}: no 'results' array (malformed bench JSON)")
    out = {}
    for i, r in enumerate(results):
        name = r.get("name") if isinstance(r, dict) else None
        if not name:
            die(f"{path}: results[{i}] has no 'name' (malformed bench JSON)")
        if r.get("poisoned") or r.get("sim_cycles") is None:
            die(f"{path}: scenario '{name}' is POISONED "
                "(no completed run / no sim_cycles) — the gate cannot pass "
                "a poisoned point; re-run the bench")
        if name in out:
            die(f"{path}: duplicate scenario '{name}'")
        out[name] = r
    return out


def delta_table(base, cur):
    """Side-by-side per-scenario summary, printed when the gate fails so the
    log shows the whole landscape, not just the first tripwire."""
    print()
    print(f"{'scenario':<20} {'base norm':>11} {'cur norm':>11} {'ratio':>7}  "
          f"{'sim_cycles':>10}")
    for name in sorted(set(base) | set(cur)):
        b, c = base.get(name), cur.get(name)
        if b is None or c is None:
            print(f"{name:<20} {'--- missing from ' + ('baseline' if b is None else 'current'):>40}")
            continue
        bn, cn = b.get("normalized"), c.get("normalized")
        ratio = f"{cn / bn:.2f}x" if bn and cn else "n/a"
        cyc = "match" if b["sim_cycles"] == c["sim_cycles"] else "DIFFER"
        print(f"{name:<20} {bn or 0:>11.4g} {cn or 0:>11.4g} {ratio:>7}  {cyc:>10}")
    print()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional normalized-throughput regression "
                         "per scenario")
    ap.add_argument("--geomean-tolerance", type=float, default=0.02,
                    help="allowed fractional regression of the geomean "
                         "normalized-throughput ratio over trace-off scenarios")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    failed = False
    off_ratios = []

    # A scenario present in the current run but absent from the baseline is
    # an un-gated point: the committed baseline key is missing and nothing
    # below would compare it.  That must fail loudly, not be silently
    # skipped — the fix is to regenerate/commit the baseline JSON.
    for name in sorted(set(cur) - set(base)):
        print(f"FAIL {name}: baseline scenario key missing from "
              f"{args.baseline} (commit an updated baseline)")
        failed = True

    for name, b in sorted(base.items()):
        c = cur.get(name)
        if c is None:
            print(f"FAIL {name}: scenario missing from current run")
            failed = True
            continue
        if b["sim_cycles"] != c["sim_cycles"]:
            print(f"FAIL {name}: simulated cycles changed "
                  f"{b['sim_cycles']} -> {c['sim_cycles']} "
                  f"(host-side optimisation must not touch the cost model)")
            failed = True
        bn, cn = b.get("normalized"), c.get("normalized")
        if not bn or not cn:
            print(f"SKIP {name}: no normalized throughput recorded")
            continue
        ratio = cn / bn
        if not name.endswith("_traced"):
            off_ratios.append(ratio)
        verdict = "ok"
        if ratio < 1.0 - args.tolerance:
            verdict = f"FAIL (regressed beyond {args.tolerance:.0%})"
            failed = True
        print(f"{name}: normalized {bn:.4g} -> {cn:.4g}  ({ratio:.2f}x)  {verdict}")

    if off_ratios:
        geomean = math.exp(sum(math.log(r) for r in off_ratios) / len(off_ratios))
        verdict = "ok"
        if geomean < 1.0 - args.geomean_tolerance:
            verdict = f"FAIL (trace-off geomean beyond {args.geomean_tolerance:.0%})"
            failed = True
        print(f"trace-off geomean over {len(off_ratios)} scenarios: "
              f"{geomean:.3f}x  {verdict}")

    # Transparency witness inside the current run: a traced twin replays the
    # exact same simulated execution as its plain scenario.
    for name, c in sorted(cur.items()):
        if not name.endswith("_traced"):
            continue
        plain = cur.get(name[:-len("_traced")])
        if plain is None:
            print(f"FAIL {name}: no matching plain scenario in current run")
            failed = True
            continue
        if c["sim_cycles"] != plain["sim_cycles"]:
            print(f"FAIL {name}: tracing changed simulated cycles "
                  f"{plain['sim_cycles']} -> {c['sim_cycles']}")
            failed = True
        else:
            overhead = (c["wall_seconds"] / plain["wall_seconds"] - 1.0
                        if plain["wall_seconds"] else 0.0)
            print(f"{name}: sim_cycles match plain run; "
                  f"trace-on wall overhead {overhead:+.1%}")

    if failed:
        delta_table(base, cur)
        print("check_hotpath: FAILED")
        return 1
    print("check_hotpath: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
