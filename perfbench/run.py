#!/usr/bin/env python3
"""Host-time benchmark of the figure sweeps (see perfbench/README.md).

    python3 perfbench/run.py --workload jbb|srv|collections|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/ into .bench_build/, times
set-up over several process starts, runs the workload's sweeps with one
driver worker per usable CPU, checks every point against the committed golden
CSVs and prints the metrics by name with units.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 1
the metrics are the per-layer ones, and a per-point ledger is written to
.bench_build/out/<workload>/ledger.jsonl.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
WORKLOADS = ("jbb", "srv", "collections")
SETUP_PROBES = 100  # extra process starts timed for setup_s
# Time a perfbench process may take beyond --seconds: the warm-up sweep, the
# minimum sweep count, the last sweep's overrun and, traced, the traced sweep.
RUN_SLACK_S = 140
# bench/hotpath scenarios reported as kernel-layer ns per operation.
KERNELS = {
    "flatmap_probe": "sim.flatmap_probe_ns",
    "sched_scan_128": "sim.sched_scan_128_ns",
    "reader_flag_128": "tm.reader_flag_128_ns",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "sim" / "engine.h").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                              "-DCMAKE_BUILD_TYPE=Release", *gen],
                             capture_output=True, text=True)
        if cfg.returncode != 0:
            sys.stderr.write(cfg.stdout[-4000:] + cfg.stderr[-4000:])
            fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    done = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        fail("build failed")


def run_bench(args, workload, out_dir, extra=()):
    """Runs the perfbench binary; returns its last JSON line."""
    cmd = [str(BUILD / "perfbench"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", str(ROOT), "--out", str(out_dir), *extra]
    timeout = args.seconds + RUN_SLACK_S
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {timeout} s")
    (out_dir / "perfbench.log").write_text(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{workload}: perfbench exited with {proc.returncode}")
    return json.loads(lines[-1])


def kernel_metrics(out_dir):
    """Kernel-layer ns/op from the bench/hotpath scenarios."""
    path = out_dir / "hotpath.json"
    proc = subprocess.run([str(BUILD / "perfbench_hotpath"), str(path)],
                          capture_output=True, text=True, timeout=RUN_SLACK_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("hotpath scenarios failed")
    results = {r["name"]: r for r in json.loads(path.read_text())["results"]}
    return {metric: {"value": 1e9 * results[name]["wall_seconds"] / results[name]["ops"],
                     "unit": "ns"}
            for name, metric in KERNELS.items()}


def measure(args, workload):
    out_dir = OUT / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        res = run_bench(args, workload, out_dir)
        return res, {**res["metrics"], **kernel_metrics(out_dir)}
    setups = [run_bench(args, workload, out_dir, ["--setup-probe"])["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = run_bench(args, workload, out_dir)
    setups.append(res["setup_s"])
    metrics = {**res["metrics"], "setup_s": {"value": statistics.median(setups), "unit": "s"}}
    return res, metrics


def report(workload, res, metrics):
    frac = res["failed"] / res["attempted"]
    print(f"== {workload}: {res['attempted']} points attempted over "
          f"{res['sweeps']} measured sweeps, {res['failed']} failed")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:16.6g} {m['unit']}")
    print(f"  {'point_fail_frac':34s} {frac:16.6g} ratio")
    for name, m in res.get("extra", {}).items():
        print(f"  {name:34s} {m['value']:16.6g} {m['unit']}  (this workload only)")
    for name, why in res.get("unexposed", {}).items():
        print(f"  {name:34s} {'n/a':>16s}  ({why})")
    if res["why"]:
        print(f"  first failure: {res['why']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    build()
    if args.workload == "all":
        ok = True
        for w in WORKLOADS:
            res, metrics = measure(args, w)
            report(w, res, metrics)
            ok = ok and res["correct"]
        sys.exit(0 if ok else 1)

    res, metrics = measure(args, args.workload)
    report(args.workload, res, metrics)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
