#!/usr/bin/env python3
"""Paired benchmark runs of two commits: a perf claim as one command.

    python3 tools/bench_pairs.py pair A B [--rounds N] [--holdout N]
        [--moves METRIC ...] [--work DIR]

`pair A B` exports each commit's tracked tree (`git archive`) into a
work directory and builds its benchmark there once (`cargo build
--release --offline --locked --manifest-path benchmark/Cargo.toml`). Then
it runs N rounds at seed 7 and `--holdout` more at the held-out seed 1007.
A round runs every workload that `BENCHMARK.json` declares once on A and
once on B, back to back, and flips which goes first each round, so a slow
spell of the host lands on both sides alike. Each run is

    asj-benchmark --workload W --seed S --seconds 10 --trace 0

and the last line of its standard output is its JSON result.

Per workload and seed it prints, for every end-to-end metric that
`BENCHMARK.json` declares, A's and B's median and interquartile range,
the change of the medians, how many of the pairs B won (was better in,
by the metric's own direction), and whether the gap between the medians
exceeds A's IQR. The table is Markdown, ready for a change log.

The script exits 1 when, in any pair, `wire_bytes_per_op`, `correct` or
`failed` differs between A and B, unless `--moves` names that metric
up front: a change that claims time must not move bytes or answers. It
also exits 1 when a build or a run fails.

`--work DIR` keeps the exported trees and their builds (the default is a
temporary directory, removed at the end); a tree already exported there
is reused, so a second `pair` against the same commit builds nothing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SEED = 7
HOLDOUT_SEED = 1007
SECONDS = 10
EXACT = ("wire_bytes_per_op", "correct", "failed")
ROW = "| %-18s | %-20s | %-20s | %+7.1f %% | %5s | %-3s |"


def git(root, *args):
    done = subprocess.run(["git", *args], cwd=root, capture_output=True, check=True)
    return done.stdout


def export(root, rev, work):
    """The tree of `rev` under `work`, exported once; returns its path and
    the commit's short id."""
    sha = git(root, "rev-parse", "--verify", rev + "^{commit}").decode().strip()
    tree = os.path.join(work, sha[:12])
    if not os.path.isdir(tree):
        os.makedirs(tree + ".part", exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=root, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree + ".part"], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise SystemExit("git archive %s failed" % rev)
        os.rename(tree + ".part", tree)
    return tree, sha[:12]


def build(tree):
    """Builds the tree's benchmark; returns the binary's path."""
    manifest = os.path.join(tree, "benchmark", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", manifest]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit("building %s failed:\n%s" % (tree, done.stderr[-3000:]))
    return os.path.join(tree, "benchmark", "target", "release", "asj-benchmark")


def run(binary, workload, seed):
    """One run; returns its JSON result line, parsed."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)]
    cmd += ["--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=30 * SECONDS + 300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s failed (exit %d):\n%s" % (" ".join(cmd), done.returncode, done.stderr[-3000:]))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def value(result, metric):
    if metric in ("correct", "failed", "attempted"):
        return result[metric]
    return result["metrics"][metric]["value"]


def table(workload, seed, pairs, metrics):
    """Prints one workload's rows for one seed."""
    print("\n%s, seed %d, %d pairs (A then B each round, order flipped every round)\n"
          % (workload, seed, len(pairs)))
    print("| metric | A median (IQR) | B median (IQR) | change | B wins | gap > IQR(A) |")
    print("|---|---|---|---|---|---|")
    for m in metrics:
        a = [value(pa, m["name"]) for pa, _ in pairs]
        b = [value(pb, m["name"]) for _, pb in pairs]
        (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
        lower = m["better"] == "lower"
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        change = 100.0 * (mb - ma) / ma if ma else 0.0
        cell = lambda med, q1, q3: "%.6g (%.2g)" % (med, q3 - q1)
        print(ROW % (m["name"], cell(ma, qa1, qa3), cell(mb, qb1, qb3), change,
                     "%d/%d" % (wins, len(pairs)), "yes" if abs(mb - ma) > qa3 - qa1 else "no"))


def pair(args, root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    metrics = declared["end_to_end"]
    workloads = [w["name"] for w in declared["workloads"]]
    unknown = set(args.moves) - {m["name"] for m in metrics} - set(EXACT)
    if unknown:
        raise SystemExit("--moves names no metric: %s" % ", ".join(sorted(unknown)))
    work = args.work or tempfile.mkdtemp(prefix="bench-pairs-")
    os.makedirs(work, exist_ok=True)
    try:
        binaries = {}
        for side, rev in (("A", args.a), ("B", args.b)):
            tree, sha = export(root, rev, work)
            binaries[side] = build(tree)
            print("%s = %s (%s), built" % (side, rev, sha), flush=True)
        schedule = [(SEED, i) for i in range(args.rounds)]
        schedule += [(HOLDOUT_SEED, i) for i in range(args.holdout)]
        results = {}
        problems = []
        for k, (seed, i) in enumerate(schedule):
            order = ("A", "B") if k % 2 == 0 else ("B", "A")
            for w in workloads:
                got = {side: run(binaries[side], w, seed) for side in order}
                results.setdefault((w, seed), []).append((got["A"], got["B"]))
                for name in EXACT:
                    if name not in args.moves and value(got["A"], name) != value(got["B"], name):
                        problems.append("%s seed %d round %d: %s is %s on A, %s on B"
                                        % (w, seed, i, name, value(got["A"], name), value(got["B"], name)))
                print("round %d/%d seed %d %-13s op_ms A %.4g B %.4g (%s first)"
                      % (k + 1, len(schedule), seed, w, value(got["A"], "op_ms"),
                         value(got["B"], "op_ms"), order[0]), flush=True)
        for (w, seed), pairs in sorted(results.items(), key=lambda kv: (kv[0][1], workloads.index(kv[0][0]))):
            table(w, seed, pairs, metrics)
        for p in problems:
            print(p)
        return 1 if problems else 0
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pair", help="alternating paired runs of commits A and B")
    p.add_argument("a", help="the parent commit (any git revision)")
    p.add_argument("b", help="the changed commit")
    p.add_argument("--rounds", type=int, default=10, help="pairs at seed 7 (default 10)")
    p.add_argument("--holdout", type=int, default=2, help="pairs at seed 1007 (default 2)")
    p.add_argument("--moves", action="append", default=[],
                   help="a metric of %s the change moves on purpose (repeatable)" % ", ".join(EXACT))
    p.add_argument("--work", help="keep exported trees and builds here")
    args = ap.parse_args()
    return pair(args, root)


if __name__ == "__main__":
    sys.exit(main())
