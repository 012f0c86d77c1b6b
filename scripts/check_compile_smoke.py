#!/usr/bin/env python3
"""CI perf gate for incremental POSP compilation.

Compares the BENCH_compile.json emitted by `bench_compile_time --smoke`
against the recorded baseline (bench/baselines/compile_smoke.json). The
gated metrics on the fixed 2D/res-100 template are fully deterministic (no
wall-clock noise), so any increase is a real regression:
  * dp_calls: grid points the recost-first fast path failed to certify
    (fast-path coverage);
  * bound_subsets: subset bounds DpLowerBound computed (the
    moved-dimension rule's reuse); a bench that omits it fails.
memoryless dp_calls must also still equal the point count (the reference
path must not silently start skipping).

Usage: check_compile_smoke.py <BENCH_compile.json> [baseline.json]
Exit code 0 on pass, 1 on regression or malformed input.
"""

import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    os.pardir, "bench", "baselines", "compile_smoke.json")


def templates_by_name(doc):
    return {t["name"]: t for t in doc.get("templates", [])}


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    bench_path = argv[1]
    baseline_path = argv[2] if len(argv) > 2 else DEFAULT_BASELINE

    with open(bench_path) as f:
        bench = templates_by_name(json.load(f))
    with open(baseline_path) as f:
        baseline = templates_by_name(json.load(f))

    failures = []
    for name, base in baseline.items():
        cur = bench.get(name)
        if cur is None:
            failures.append(f"{name}: missing from {bench_path}")
            continue
        got_dp = cur["incremental"]["dp_calls"]
        max_dp = base["max_dp_calls"]
        points = cur["points"]
        print(f"{name}: incremental dp_calls {got_dp} "
              f"(baseline ceiling {max_dp}, {points} points)")
        if got_dp > max_dp:
            failures.append(
                f"{name}: incremental dp_calls {got_dp} > baseline ceiling "
                f"{max_dp} — fast-path coverage regressed")
        got_bs = cur["incremental"].get("bound_subsets")
        max_bs = base["max_bound_subsets"]
        if got_bs is None:
            failures.append(
                f"{name}: incremental bound_subsets missing from "
                f"{bench_path}")
        else:
            print(f"{name}: incremental bound_subsets {got_bs} "
                  f"(baseline ceiling {max_bs})")
            if got_bs > max_bs:
                failures.append(
                    f"{name}: incremental bound_subsets {got_bs} > "
                    f"baseline ceiling {max_bs} — the DP bound "
                    f"recomputes subsets no moved dimension touches")
        if cur["incremental"]["audit_failures"] != 0:
            failures.append(
                f"{name}: {cur['incremental']['audit_failures']} audit "
                f"failures — incremental diagram diverged from the full DP")
        if "memoryless" in cur and cur["memoryless"]["dp_calls"] != points:
            failures.append(
                f"{name}: memoryless dp_calls "
                f"{cur['memoryless']['dp_calls']} != points {points} — "
                f"reference path is not memoryless")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if not failures:
        print("compile smoke: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
