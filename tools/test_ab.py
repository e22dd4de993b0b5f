#!/usr/bin/env python3
"""Regression test for tools/ab.py on two stub benchmark commands.

Each checkout holds a stub that logs which side ran with which seed and
prints a perfbench-style JSON line.  Checked: the sides alternate and swap
order every pair, `{seed}` is substituted, the medians, quartiles and B's
win counts follow BENCHMARK.json's directions (a tie counts for neither
side), and a run reporting "correct" false or "failed" > 0 stops the
comparison with exit 1.

Run from anywhere: python3 tools/test_ab.py
"""
import json
import os
import subprocess
import sys
import tempfile

AB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ab.py")

# sweep_s is "lower is better": B is 0.1 s faster in every pair.
# sim_ops_per_host_s is "higher is better": B ties on even seeds and is one
# higher on odd ones.  unnamed_metric is not in BENCHMARK.json.
STUB = """import json, sys
side, seed = {side!r}, int(sys.argv[1])
with open({log!r}, "a") as f:
    f.write(f"{{side}}{{seed}}\\n")
print("some progress output")
print(json.dumps({{
    "correct": seed != {wrong!r}, "attempted": 3, "failed": int(seed == {failing!r}),
    "metrics": {{
        "sweep_s": {{"value": (1.0 if side == "A" else 0.9) + seed / 100, "unit": "s"}},
        "sim_ops_per_host_s": 100 + seed + (side == "B" and seed % 2),
        "unnamed_metric": {{"value": seed, "unit": "count"}},
    }}}}))
"""


def setup(root, wrong=None, failing=None):
    log = os.path.join(root, "order.log")
    dirs = []
    for side in ("A", "B"):
        d = os.path.join(root, side)
        os.makedirs(d)
        with open(os.path.join(d, "stub.py"), "w") as f:
            f.write(STUB.format(side=side, log=log, wrong=wrong, failing=failing))
        dirs.append(d)
    return dirs, log


def ab(a, b, pairs, seed0):
    return subprocess.run([sys.executable, AB, "--a", a, "--b", b, "--pairs", str(pairs),
                           "--seed0", str(seed0), "--", sys.executable, "stub.py", "{seed}"],
                          capture_output=True, text=True)


def check(cond, msg):
    if not cond:
        sys.exit(f"FAIL: {msg}")


def main():
    with tempfile.TemporaryDirectory() as root:
        (a, b), log = setup(root)
        p = ab(a, b, 4, 10)
        check(p.returncode == 0, f"clean run exited {p.returncode}: {p.stderr}")
        with open(log) as f:
            order = f.read().split()
        check(order == ["A10", "B10", "B11", "A11", "A12", "B12", "B13", "A13"],
              f"run order {order}")
        m = json.loads(p.stdout.splitlines()[-1])["metrics"]
        s = m["sweep_s"]
        check(abs(s["a"]["median"] - 1.115) < 1e-9 and abs(s["b"]["median"] - 1.015) < 1e-9,
              f"sweep_s medians {s['a']['median']} {s['b']['median']}")
        check(abs(s["a"]["q1"] - 1.1075) < 1e-9 and abs(s["a"]["q3"] - 1.1225) < 1e-9,
              f"sweep_s A quartiles {s['a']['q1']} {s['a']['q3']}")
        check(s["better"] == "lower" and s["b_wins"] == 4, f"sweep_s wins {s['b_wins']}")
        o = m["sim_ops_per_host_s"]
        check(o["a"]["median"] == 111.5 and o["b"]["median"] == 112.0,
              f"sim_ops medians {o['a']['median']} {o['b']['median']}")
        check(o["better"] == "higher" and o["b_wins"] == 2, f"sim_ops wins {o['b_wins']}")
        check(m["unnamed_metric"]["b_wins"] is None, "a metric without direction got wins")
        check("sweep_s A/B by seed: 1.1/1, 1.11/1.01, 1.12/1.02, 1.13/1.03" in p.stdout,
              "per-run values missing")

    for bad, what in (({"wrong": 11}, "seed 11: correct=False"),
                      ({"failing": 12}, "seed 12: correct=True failed=1")):
        with tempfile.TemporaryDirectory() as root:
            (a, b), _ = setup(root, **bad)
            p = ab(a, b, 3, 10)
            check(p.returncode == 1 and what in p.stderr,
                  f"bad run not stopped ({what}): {p.returncode} {p.stderr}")
    print("ab.py: all checks passed")


if __name__ == "__main__":
    main()
