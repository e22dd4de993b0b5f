#!/usr/bin/env python3
"""Host-time shares from pcsample.c's sample files.

    python3 tools/pcsample/report.py [--top N] [--lines] pcsample.*.txt

Each input line is `<hex address inside the object> <object path>`.  Files
from any number of runs are merged: the addresses are object-relative, so
runs loaded at different addresses agree.  The report gives the share of
samples per object and per function (nm's symbol that contains the address,
so inlined code counts toward its caller) and, with --lines, per source line
(addr2line's innermost location; needs a -g build).
"""
import argparse
import bisect
import collections
import signal
import subprocess
import sys

FUNC_TYPES = set("tTwWi")


def load_symbols(path):
    """Sorted (start, end, name) for the object's function symbols."""
    for extra in ([], ["-D"]):
        try:
            out = subprocess.run(["nm", "-C", "-n", "-S", "--defined-only", *extra, path],
                                 capture_output=True, text=True).stdout
        except OSError:
            return []
        syms = []
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in FUNC_TYPES:
                start, size = int(parts[0], 16), int(parts[1], 16)
                syms.append((start, start + size, parts[3]))
            elif len(parts) == 3 and parts[1] in FUNC_TYPES:
                start = int(parts[0], 16)
                syms.append((start, start, parts[2]))
        if syms:
            return syms
    return []


def function_of(syms, starts, addr):
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0:
        return None
    start, end, name = syms[i]
    # A symbol without a size owns everything up to the next one.
    return name if addr < end or start == end else None


def source_lines(path, addrs):
    """addr -> 'file:line' of the innermost (inlined) scope."""
    if not addrs:
        return {}
    text = "\n".join(f"{a:x}" for a in addrs) + "\n"
    try:
        out = subprocess.run(["addr2line", "-e", path], input=text,
                             capture_output=True, text=True).stdout.splitlines()
    except OSError:
        return {}
    return {a: loc.split(" (discriminator")[0] for a, loc in zip(addrs, out)}


def main():
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet under `| head`
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=25, help="rows per table (default 25)")
    ap.add_argument("--lines", action="store_true", help="also report shares per source line")
    args = ap.parse_args()

    samples = collections.Counter()
    for name in args.files:
        with open(name) as f:
            for line in f:
                addr, _, obj = line.rstrip("\n").partition(" ")
                samples[(obj, int(addr, 16))] += 1
    total = sum(samples.values())
    if total == 0:
        sys.exit("pcsample: no samples")

    by_obj = collections.Counter()
    by_func = collections.Counter()
    by_line = collections.Counter()
    addrs_of = collections.defaultdict(list)
    for (obj, addr), n in samples.items():
        by_obj[obj] += n
        addrs_of[obj].append(addr)
    for obj, addrs in addrs_of.items():
        syms = load_symbols(obj) if obj != "?" else []
        starts = [s[0] for s in syms]
        base = obj.rsplit("/", 1)[-1]
        for addr in addrs:
            fn = function_of(syms, starts, addr) if syms else None
            by_func[fn if fn else f"?? ({base})"] += samples[(obj, addr)]
        if args.lines and obj != "?":
            for addr, loc in source_lines(obj, sorted(addrs)).items():
                by_line[loc] += samples[(obj, addr)]

    def table(title, counts):
        print(f"\n{title}")
        for key, n in counts.most_common(args.top):
            print(f"{100.0 * n / total:6.1f}% {n:8d}  {key}")

    print(f"{total} samples from {len(args.files)} file(s)")
    table("by object", by_obj)
    table("by function", by_func)
    if args.lines:
        table("by source line", by_line)


if __name__ == "__main__":
    main()
