#!/usr/bin/env python3
"""Symbolizes sampler.c's output with `nm -C` and prints self and inclusive
shares per function.

    python3 symbolize.py prof.<pid> [--under NAME] [--top N]

--under keeps only the samples with a frame whose name contains NAME (for
the benchmark, `run_block`: that drops set-up, verification and most of
the calibration). Self counts a sample for its innermost function;
inclusive counts it once for every distinct function on its stack. Inlined
functions are folded into their callers, as in any frame-pointer profile.
"""

import argparse
import bisect
import collections
import re
import subprocess

HASH = re.compile(r"::h[0-9a-f]{16}$")


def read(path):
    """Executable mappings, each file's load bias (the start of its mapping
    at offset 0) and the samples."""
    maps, bases, samples, in_samples = [], {}, [], False
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line == "--- samples":
                in_samples = True
            elif in_samples:
                if line:
                    samples.append([int(a, 16) for a in line.split()])
            else:
                parts = line.split(None, 5)
                if len(parts) < 6:
                    continue
                lo, hi = (int(a, 16) for a in parts[0].split("-"))
                if int(parts[2], 16) == 0:
                    bases.setdefault(parts[5], lo)
                if "x" in parts[1]:
                    maps.append((lo, hi, parts[5]))
    return maps, bases, samples


def symbols(binary):
    """Sorted text-symbol addresses and names; a stripped shared library
    falls back to its dynamic symbols."""
    nm = ["nm", "-C", "-n", "--defined-only", binary]
    run = lambda extra: subprocess.run(nm + extra, capture_output=True, text=True).stdout
    out = run([]) or run(["-D"])
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(HASH.sub("", parts[2]))
    return addrs, names


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("profile")
    ap.add_argument("--under", default=None)
    ap.add_argument("--top", type=int, default=30)
    args = ap.parse_args()
    maps, bases, samples = read(args.profile)
    tables = {}

    def name(addr):
        for lo, hi, path in maps:
            if lo <= addr < hi:
                if path not in tables:
                    tables[path] = symbols(path) if path.startswith("/") else ([], [])
                addrs, names = tables[path]
                i = bisect.bisect_right(addrs, addr - bases.get(path, 0)) - 1
                return names[i] if i >= 0 else f"[{path.rsplit('/', 1)[-1]}]"
        return "[unknown]"

    # Return addresses point after their call: look up the call itself.
    stacks = [[name(s[0])] + [name(a - 1) for a in s[1:]] for s in samples]
    if args.under:
        stacks = [s for s in stacks if any(args.under in f for f in s)]
    total = len(stacks)
    print(f"{total} samples" + (f" under {args.under}" if args.under else ""))
    if not total:
        return
    own = collections.Counter(s[0] for s in stacks)
    incl = collections.Counter(f for s in stacks for f in set(s))
    for title, counts in (("self", own), ("inclusive", incl)):
        print(f"\n{title}:")
        for fn, n in counts.most_common(args.top):
            print(f"{100.0 * n / total:6.1f} %  {fn}")


if __name__ == "__main__":
    main()
