#!/usr/bin/env python3
"""Planted bugs, re-killed: every mutant under `tools/mutants/` must fail
the test target it names.

    python3 tools/mutants.py [--check] [NAME ...]

A mutant is one unified diff against the tree, `tools/mutants/NAME.diff`,
after a header of `Key: value` lines (a line that starts with no key
continues the value above it):

    Bug: what the diff breaks.
    Kill: the `cargo test` arguments that must fail on it.
    Why: what the bug would cost a user of the library.

An equivalent mutant, one that no test can tell from the tree, has an
`Equivalent:` line giving the argument in place of `Kill:` and `Why:`. It
is applied, so it cannot go stale, but never run.

The script copies the tracked files of the tree into a temporary
directory. There it first runs every named target on the unmutated copy:
a kill counts only against a target that passes without the bug. Then,
one mutant at a time, it applies the diff, builds the target
(`cargo test --release --offline --no-run`), runs it for at most
`TIMEOUT` seconds and reverts the diff. All runs share one target
directory. A failing run or a timeout kills the mutant. The script
exits 1 and names the mutant when a diff no longer applies, a mutant
does not build, or one survives.

`--check` only asks whether each diff still applies to the tree as it is
(`git apply --check`), which takes seconds: a stale mutant fails the way
a stale allowlist entry fails `api_guard.py`.

Adding a mutant: make the bug in a scratch copy of the tree, write its
`git diff` to `tools/mutants/NAME.diff` below a header, and run
`python3 tools/mutants.py NAME`. Do not commit a mutant that survives:
add the smallest test that kills it first.
"""

import argparse
import glob
import os
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time

KEYS = ("Bug", "Kill", "Why", "Equivalent")
ROW = "%-8s %-44s %6.1f s build, %6.1f s run"
TIMEOUT = 600  # seconds per test run


class Mutant:
    def __init__(self, path):
        self.path = path
        self.name = os.path.basename(path)[: -len(".diff")]
        self.fields, self.problems = {}, []
        key = None
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith("diff --git "):
                    break
                head, sep, value = line.partition(":")
                if sep and head in KEYS:
                    key = head
                    if key in self.fields:
                        self.problems.append("%s: two %s lines" % (self.name, key))
                    self.fields[key] = value.strip()
                elif line.strip() and key is not None:
                    self.fields[key] += " " + line.strip()
        want = ("Bug", "Equivalent") if self.equivalent else ("Bug", "Kill", "Why")
        missing = [k for k in want if not self.fields.get(k)]
        if missing:
            self.problems.append("%s: header lacks %s" % (self.name, ", ".join(missing)))
        if "Kill" in self.fields and self.equivalent:
            self.problems.append("%s: both Kill and Equivalent" % self.name)

    @property
    def equivalent(self):
        return "Equivalent" in self.fields

    @property
    def target(self):
        return self.fields.get("Kill", "")


def git_apply(patch, cwd, *flags):
    done = subprocess.run(
        ["git", "apply", *flags, patch], cwd=cwd, capture_output=True, text=True
    )
    return done.returncode == 0, done.stderr.strip()


def copy_tracked(root, dest):
    listed = subprocess.run(
        ["git", "ls-files", "-z"], cwd=root, capture_output=True, check=True
    ).stdout.decode().split("\0")
    for rel in filter(None, listed):
        src = os.path.join(root, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def cargo_test(target, cwd, env, log, timeout=None, build_only=False):
    """Runs `cargo test --release --offline TARGET`; returns `(outcome,
    seconds)`, where outcome is "pass", "fail" or "timeout"."""
    args = shlex.split(target)
    cargo_args, sep, test_args = args, [], []
    if "--" in args:
        k = args.index("--")
        cargo_args, sep, test_args = args[:k], ["--"], args[k + 1 :]
    cmd = ["cargo", "test", "--release", "--offline", *cargo_args]
    cmd += ["--no-run"] if build_only else sep + test_args
    start = time.monotonic()
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT, start_new_session=True
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout", time.monotonic() - start
    return ("pass" if code == 0 else "fail"), time.monotonic() - start


def build_and_run(target, cwd, env, log):
    """Builds `target`, then runs it for at most `TIMEOUT` seconds: returns
    the outcome ("pass", "fail", "timeout", or "broken" when it does not
    build) and the seconds each step took."""
    built, build_s = cargo_test(target, cwd, env, log, build_only=True)
    if built != "pass":
        return "broken", build_s, 0.0
    outcome, run_s = cargo_test(target, cwd, env, log, TIMEOUT)
    return outcome, build_s, run_s


def tail(log, n=25):
    with open(log, encoding="utf-8", errors="replace") as f:
        return "".join(f.readlines()[-n:])


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="run only these mutants")
    ap.add_argument("--check", action="store_true", help="only check that every diff applies")
    args = ap.parse_args()
    root = os.path.dirname(here)

    mutants = [Mutant(p) for p in sorted(glob.glob(os.path.join(root, "tools", "mutants", "*.diff")))]
    unknown = set(args.names) - {m.name for m in mutants}
    if unknown:
        print("no such mutant: %s" % ", ".join(sorted(unknown)))
        return 1
    if args.names:
        mutants = [m for m in mutants if m.name in args.names]
    problems = [p for m in mutants for p in m.problems]
    for m in mutants:
        ok, err = git_apply(m.path, root, "--check")
        if not ok:
            problems.append("%s: the diff no longer applies: %s" % (m.name, err))
    runs = [m for m in mutants if not m.equivalent]
    print("%d mutants, %d to run, %d equivalent" % (len(mutants), len(runs), len(mutants) - len(runs)))
    if args.check or problems:
        for p in problems:
            print(p)
        return 1 if problems else 0

    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree, logs = os.path.join(tmp, "tree"), os.path.join(tmp, "logs")
        os.makedirs(logs)
        copy_tracked(root, tree)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, "target"))
        for target in sorted({m.target for m in runs}):
            log = os.path.join(logs, "unmutated.log")
            outcome, build_s, run_s = build_and_run(target, tree, env, log)
            print(ROW % (outcome, target, build_s, run_s) + "  (unmutated)")
            if outcome != "pass":
                problems.append("`%s` does not pass on the unmutated tree:\n%s" % (target, tail(log)))
        for m in mutants if not problems else []:
            if m.equivalent:
                print("%-8s %-44s equivalent, not run: %s" % ("skip", m.name, m.fields["Equivalent"]))
                continue
            log = os.path.join(logs, m.name + ".log")
            ok, err = git_apply(m.path, tree)
            if not ok:
                problems.append("%s: the diff no longer applies: %s" % (m.name, err))
                continue
            try:
                outcome, build_s, run_s = build_and_run(m.target, tree, env, log)
            finally:
                git_apply(m.path, tree, "--reverse")
            verdict = {"pass": "survived", "broken": "broken"}.get(outcome, "killed")
            note = "  (timeout)" if outcome == "timeout" else ""
            print(ROW % (verdict, m.name, build_s, run_s) + note)
            if outcome == "broken":
                problems.append("%s: does not build:\n%s" % (m.name, tail(log)))
            elif outcome == "pass":
                problems.append(
                    "%s survived `cargo test --release %s`: %s\n%s"
                    % (m.name, m.target, m.fields["Bug"], tail(log, 8))
                )
    print("wall time %.0f s" % (time.monotonic() - started))
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
