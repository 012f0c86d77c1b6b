#!/usr/bin/env python3
"""Self-test gate for the bouquet-* lint checks (tools/lint/).

Drives tools/lint/bouquet_lint.py over the fixtures in
tests/static/lint/fixtures/ and compares actual findings against the
`// expect-lint: <check>[, <check>]` markers embedded in each fixture, line
by line:

  * fail_*.cc    — negative fixtures: the engine must report EXACTLY the
                   marked (line, check) pairs — nothing more (false
                   positives), nothing less (the check rotted).
  * control_*.cc — positive controls: no markers allowed, and the engine
                   must report zero findings (the escape hatches work).

This mirrors the thread-safety probe gate (tests/static/check_probes.cmake):
a lint whose negative fixture stops firing is indistinguishable from a lint
that never ran, so the fixtures are executable documentation AND the rot
detector. Exit codes: 0 = all fixtures behave, 1 = mismatch, 2 = usage.
"""

import argparse
import os
import re
import subprocess
import sys

EXPECT_RE = re.compile(r"//\s*expect-lint:\s*([a-z0-9_,\- ]+)")
FINDING_RE = re.compile(r"^(.*?):(\d+):\d+: warning: .*\[([a-z0-9-]+)\]\s*$")


def expected_findings(path):
    """Sorted (line, check) pairs declared by expect-lint markers."""
    expected = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            m = EXPECT_RE.search(line)
            if m:
                for check in m.group(1).split(","):
                    expected.append((lineno, check.strip()))
    return sorted(expected)


def actual_findings(root, schema, fixture):
    """Sorted (line, check) pairs the engine reports for one fixture, each
    in its own engine invocation."""
    cmd = [sys.executable,
           os.path.join(root, "tools", "lint", "bouquet_lint.py"),
           "--root", root, "--schema", schema, fixture]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        print(f"error: engine failed on {fixture} "
              f"(exit {proc.returncode}):\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    found = []
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            found.append((int(m.group(2)), m.group(3)))
    return sorted(found)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, help="repo root")
    ap.add_argument("--schema", required=True, help="trace_schema.json path")
    ap.add_argument("fixtures", nargs="+", help="fixture .cc files")
    args = ap.parse_args(argv)

    failures = 0
    for fixture in sorted(args.fixtures):
        name = os.path.basename(fixture)
        expected = expected_findings(fixture)
        is_control = name.startswith("control_")
        if is_control and expected:
            print(f"FAIL {name}: control fixtures must not carry "
                  "expect-lint markers")
            failures += 1
            continue
        if not is_control and not expected:
            print(f"FAIL {name}: negative fixture has no expect-lint "
                  "markers — it cannot prove anything")
            failures += 1
            continue
        actual = actual_findings(args.root, args.schema, fixture)
        if actual == expected:
            what = ("clean" if is_control else
                    f"{len(expected)} expected finding(s)")
            print(f"ok   {name}: {what}")
            continue
        failures += 1
        print(f"FAIL {name}:")
        missing = [p for p in expected if p not in actual]
        surplus = [p for p in actual if p not in expected]
        for line, check in missing:
            print(f"  expected but not reported: line {line} [{check}]")
        for line, check in surplus:
            print(f"  reported but not expected: line {line} [{check}]")

    if failures:
        print(f"check_lint_fixtures: {failures} fixture(s) misbehaved",
              file=sys.stderr)
        return 1
    print(f"check_lint_fixtures: all {len(args.fixtures)} fixtures behave")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
