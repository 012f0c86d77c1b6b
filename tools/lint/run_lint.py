#!/usr/bin/env python3
"""Zero-findings sweep: run every bouquet-* check over the repo's sources.

Thin wrapper around bouquet_lint.py that discovers the file set at run time
(so ctest and run_static_analysis.sh share one definition of "the sweep"
instead of each globbing its own): all *.cc/*.h under src/, which is the
surface the checks are scoped to. Because the sweep sees every call site,
it also fails when a name of scripts/trace_schema.json is named by no
span or metric call under src/. Exit codes pass through the engine's:
0 = clean, 1 = findings, 2 = configuration error.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bouquet_lint  # noqa: E402


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--checks", default=",".join(bouquet_lint.ALL_CHECKS))
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    files = []
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in names:
            if name.endswith((".cc", ".h")):
                files.append(os.path.join(dirpath, name))
    if not files:
        print(f"error: no sources under {root}/src", file=sys.stderr)
        return 2
    return bouquet_lint.main(
        ["--root", root, "--checks", args.checks] + sorted(files),
        require_emitted=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
