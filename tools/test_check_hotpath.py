#!/usr/bin/env python3
"""Regression tests for tools/check_hotpath.py's failure modes.

The gate must fail *loudly* — a clear message and a nonzero exit — on a
malformed document, a POISONED point, or a scenario whose baseline key is
missing, instead of dying with a KeyError or silently skipping the point.
Before the fix, a poisoned/malformed record raised KeyError and a
current-only scenario sailed through the main comparison untested.

Run from anywhere: python3 tools/test_check_hotpath.py
"""
import json
import os
import subprocess
import sys
import tempfile

CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "check_hotpath.py")


def result(name, sim_cycles=1000, normalized=2.0, **extra):
    r = {"name": name, "sim_cycles": sim_cycles, "normalized": normalized,
         "wall_seconds": 0.5, "ops_per_sec": 1e6}
    r.update(extra)
    return r


def write_doc(path, results):
    with open(path, "w") as f:
        json.dump({"bench": "hotpath", "results": results}, f)


def run(*argv):
    p = subprocess.run([sys.executable, CHECK, *argv],
                       capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def main():
    failures = []

    def check(label, cond, output=""):
        status = "ok" if cond else "FAIL"
        print(f"{label}: {status}")
        if not cond:
            failures.append(label)
            if output:
                print(output)

    with tempfile.TemporaryDirectory() as d:
        base = os.path.join(d, "base.json")
        cur = os.path.join(d, "cur.json")

        # Identical healthy docs pass.
        write_doc(base, [result("alpha"), result("beta", 2000)])
        write_doc(cur, [result("alpha"), result("beta", 2000)])
        rc, out = run(base, cur)
        check("healthy docs pass", rc == 0, out)

        # A POISONED point (explicit flag) fails loudly, not via KeyError.
        write_doc(cur, [result("alpha"), result("beta", 2000, poisoned=True)])
        rc, out = run(base, cur)
        check("poisoned flag fails loudly",
              rc != 0 and "POISONED" in out and "beta" in out
              and "Traceback" not in out, out)

        # A record with no sim_cycles (the sweep never completed the point)
        # is poisoned too.
        write_doc(cur, [result("alpha"),
                        {"name": "beta", "normalized": 2.0,
                         "wall_seconds": 0.5}])
        rc, out = run(base, cur)
        check("missing sim_cycles fails loudly",
              rc != 0 and "POISONED" in out and "Traceback" not in out, out)

        # A scenario missing its baseline key must fail the gate (it used to
        # be silently skipped by the baseline-driven comparison loop).
        write_doc(cur, [result("alpha"), result("beta", 2000),
                        result("gamma", 3000)])
        rc, out = run(base, cur)
        check("missing baseline key fails",
              rc != 0 and "gamma" in out and "baseline scenario key" in out,
              out)

        # Malformed documents: no results array / nameless record.
        with open(cur, "w") as f:
            json.dump({"bench": "hotpath"}, f)
        rc, out = run(base, cur)
        check("missing results array fails loudly",
              rc != 0 and "results" in out and "Traceback" not in out, out)
        write_doc(cur, [{"sim_cycles": 5}])
        rc, out = run(base, cur)
        check("nameless record fails loudly",
              rc != 0 and "name" in out and "Traceback" not in out, out)

        # Sanity: the original gates still work after the hardening.
        write_doc(cur, [result("alpha", sim_cycles=1001),
                        result("beta", 2000)])
        rc, out = run(base, cur)
        check("sim_cycles drift still fails", rc != 0 and "alpha" in out, out)
        write_doc(cur, [result("alpha", normalized=0.5),
                        result("beta", 2000)])
        rc, out = run(base, cur)
        check("throughput regression still fails", rc != 0, out)

    if failures:
        print(f"test_check_hotpath: {len(failures)} FAILED")
        return 1
    print("test_check_hotpath: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
