#!/usr/bin/env python3
"""Fail when a -run or -fuzz pattern in the CI workflow selects no test.

Every `go test` command in the workflow is parsed for its package
arguments and its -run/-fuzz patterns. Each top-level alternative of a
pattern must match at least one test, fuzz target, benchmark or example
that `go test -list` reports for those packages; otherwise a renamed or
deleted test silently turns its CI step into a no-op. The pattern '^$'
(run nothing) is exempt.

Usage: python3 .github/scripts/check-test-patterns.py [.github/workflows/ci.yml]
"""
import re
import shlex
import subprocess
import sys

# go test flags that take a separate value argument.
VALUE_FLAGS = {"-run", "-fuzz", "-bench", "-benchtime", "-count", "-cpu",
               "-fuzztime", "-list", "-parallel", "-skip", "-tags",
               "-timeout", "-coverprofile", "-cpuprofile", "-memprofile"}
LISTED = re.compile(r"^(Test|Fuzz|Benchmark|Example)\w*$")


def go_test_commands(path):
    for line in open(path, encoding="utf-8"):
        line = line.strip()
        if line.startswith("run:"):
            line = line[len("run:"):].strip()
        if line.startswith("go test "):
            yield line


def parse(cmd):
    """Returns (packages, patterns) of one go test command line."""
    args = shlex.split(cmd)[2:]
    pkgs, pats = [], []
    i = 0
    while i < len(args):
        a = args[i]
        if a.startswith("-"):
            name, eq, val = a.partition("=")
            if not eq and name in VALUE_FLAGS:
                i += 1
                val = args[i]
            if name in ("-run", "-fuzz"):
                pats.append(val)
        else:
            pkgs.append(a)
        i += 1
    return pkgs or ["."], pats


def alternatives(pat):
    # Split on top-level '|' only when the pattern has no groups; match the
    # top-level test name (subtest selectors follow a '/').
    alts = pat.split("|") if "(" not in pat else [pat]
    return [a.split("/")[0] for a in alts]


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else ".github/workflows/ci.yml"
    bad = 0
    checked = 0
    for cmd in go_test_commands(path):
        pkgs, pats = parse(cmd)
        for pat in pats:
            if pat == "^$":
                continue
            for alt in alternatives(pat):
                out = subprocess.run(["go", "test", "-list", alt, *pkgs],
                                     capture_output=True, text=True)
                names = [l for l in out.stdout.splitlines() if LISTED.match(l)]
                checked += 1
                if out.returncode != 0 or not names:
                    bad += 1
                    print(f"NO MATCH: {alt!r} (from {pat!r}) in {' '.join(pkgs)}\n"
                          f"  command: {cmd}\n{out.stderr}", file=sys.stderr)
    print(f"{checked} test patterns checked, {bad} match nothing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
