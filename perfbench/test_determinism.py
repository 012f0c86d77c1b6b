#!/usr/bin/env python3
"""Determinism test of the benchmark.

    python3 perfbench/test_determinism.py

For every workload, two short runs with one seed must report bit-identical
exact counters (the metrics marked "exact" in metrics.json, end-to-end and
per-layer), the same input digest and correct outputs; a run with another
seed must see different inputs. Also checks that the command fails fast,
printing no result, where the library sources are missing. Takes a few
minutes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_wire", "exec_paged", "compile_cold")


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    prov = next((json.loads(l[len("provenance "):]) for l in lines
                 if l.startswith("provenance ")), None)
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, prov, result


def main():
    defs = json.loads((HERE / "metrics.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    exact = {section: [m["name"] for m in bench[section]
                       if defs[m["name"]].get("exact")]
             for section in ("end_to_end", "per_layer")}
    for w in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            rc1, prov1, r1 = run(w, 11, trace)
            rc2, prov2, r2 = run(w, 11, trace)
            check(rc1 == 0 and rc2 == 0 and r1["correct"] and r2["correct"],
                  "%s trace=%d: both runs correct" % (w, trace))
            check(prov1["input_digest"] == prov2["input_digest"],
                  "%s trace=%d: same seed, same inputs" % (w, trace))
            for name in exact[section]:
                a = r1["metrics"][name]["value"]
                b = r2["metrics"][name]["value"]
                check(repr(a) == repr(b), "%s %s identical (%r, %r)"
                      % (w, name, a, b))
        _, prov3, r3 = run(w, 12, 0)
        check(r3["correct"] and prov3["input_digest"] != prov1["input_digest"],
              "%s: another seed, other inputs" % w)

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, _, result = run("serve_wire", 1, 0, cwd=bare)
        check(rc != 0 and result is None,
              "without the library sources: non-zero exit, no result")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
