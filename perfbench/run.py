#!/usr/bin/env python3
"""End-to-end benchmark of the plan-bouquet library.

    python3 perfbench/run.py --workload serve_wire|exec_paged|compile_cold \
        --seed N --seconds S --trace 0|1

Builds the library and the perfbench binary (perfbench/*.cc) from source into
.bench_build/ at the repository root, runs one workload, checks its outputs
and prints the metrics BENCHMARK.json declares (perfbench/metrics.json
defines them): the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1, each with its unit and sample count. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. The exit code is non-zero when any output was wrong.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("serve_wire", "exec_paged", "compile_cold")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("library sources not found under %s"
                           % (ROOT / "src"))
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=900)
    return BUILD / "perfbench"


def fixed_layout():
    """Runs in the child before exec: turns off address-space layout
    randomisation, whose per-process cache and TLB aliasing otherwise adds
    run-to-run spread to every timing."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        addr_no_randomize = 0x0040000
        libc.personality(libc.personality(0xFFFFFFFF) | addr_no_randomize)
    except (OSError, AttributeError):
        pass


def source_digest():
    """Digest of the library and benchmark sources (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".h", ".cc", ".txt", ".py",
                                            ".json"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def exact_mean(values):
    """Mean computed exactly, so whole rounds repeated k times give the
    bit-identical value for every k."""
    if not values:
        return 0.0
    return float(sum(map(Fraction, values)) / len(values))


def exact_ratio(num, den):
    num, den = sum(map(Fraction, num)), sum(map(Fraction, den))
    return float(num / den) if den else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


def load_spans(path):
    """Streams the span file, keeping the phase, compile and request spans
    (per-request child spans only carry durations the metrics do not use)."""
    phases, compiles, requests = {}, [], []
    with open(path) as f:
        for line in f:
            span = json.loads(line)
            name, attrs = span["name"], span["attrs"]
            if name == "bench.phase":
                phases[int(attrs["phase"])] = attrs
            elif name == "service.get_or_compile":
                compiles.append(attrs)
            elif name in ("client.request", "service.run"):
                attrs["dur_s"] = span["dur_s"]
                requests.append(attrs)
    return phases, compiles, requests


def per_layer(workload, span_file):
    """Per-layer metrics, the sample count behind each, and the latency
    breakdown, from the span file. Layers a workload bypasses read 0 from 0
    samples."""
    phases, compiles, a = load_spans(span_file)
    traced = phases[1]
    m, n = {}, {}
    n_req = len(a)  # request spans of the traced phase
    n_service = traced["service_requests"]
    for k in ("net.wire_us", "net.router_wait_us", "net.batch_size",
              "bouquet.sim_executions", "bouquet.driver_executions",
              "feedback.hit_frac", "feedback.contours_skipped", "executor.ms",
              "executor.ns_per_cost_unit", "storage.hit_frac",
              "storage.reads_per_req", "storage.writes_per_req",
              "storage.evictions_per_req"):
        m[k], n[k] = 0.0, 0
    m["service.cache_hit_frac"] = ratio(traced["cache_hits"], n_service)
    m["service.exec_us"] = 1e6 * ratio(traced["execute_s"], n_service)
    n["service.cache_hit_frac"] = n["service.exec_us"] = n_service

    # Compiles: the set-up compiles on serve_wire and exec_paged, every
    # request on compile_cold.
    comp = a if workload == "compile_cold" else compiles
    m["ess.compile_ms"] = 1e3 * mean([c["compile_s"] for c in comp])
    dp = [c["dp_calls"] for c in comp]
    recost = [c["recost_hits"] for c in comp]
    m["ess.dp_calls"] = exact_mean(dp)
    m["ess.recost_hit_frac"] = exact_ratio(recost, recost + dp)
    m["ess.bouquet_plans"] = exact_mean([c["plans"] for c in comp])
    for k in ("ess.compile_ms", "ess.dp_calls", "ess.recost_hit_frac",
              "ess.bouquet_plans"):
        n[k] = len(comp)

    m["bouquet.wasted_cost_frac"] = exact_ratio([x["wasted"] for x in a],
                                                [x["cost"] for x in a])
    n["bouquet.wasted_cost_frac"] = n_req

    lat = [x["dur_s"] for x in a]
    breakdown = {}
    if workload == "serve_wire":
        wire = [x["dur_s"] - x["server_s"] for x in a]
        m["net.wire_us"] = 1e6 * mean(wire)
        n["net.wire_us"] = n_req
        m["net.router_wait_us"] = 1e6 * ratio(traced["queue_wait_sum_s"],
                                              traced["queue_wait_count"])
        n["net.router_wait_us"] = traced["queue_wait_count"]
        m["net.batch_size"] = ratio(traced["router_batched"],
                                    traced["router_batches"])
        n["net.batch_size"] = traced["router_batches"]
        m["bouquet.sim_executions"] = exact_mean([x["executions"] for x in a])
        n["bouquet.sim_executions"] = n_req
        # No executor steps in simulation: the climb's self time is all of
        # the execute time.
        m["bouquet.driver_self_us"] = m["service.exec_us"]
        n["bouquet.driver_self_us"] = n_service
        breakdown = {"net.wire": m["net.wire_us"],
                     "net.router_wait": m["net.router_wait_us"],
                     "service.exec": m["service.exec_us"]}
    elif workload == "exec_paged":
        step_wall = [x["step_wall_s"] for x in a]
        self_s = [x["execute_s"] - x["step_wall_s"] for x in a]
        m["bouquet.driver_self_us"] = 1e6 * mean(self_s)
        m["bouquet.driver_executions"] = exact_mean(
            [x["executions"] for x in a])
        m["bouquet.wasted_cost_frac"] = exact_ratio(
            [x["wasted"] for x in a], [x["step_charged"] for x in a])
        m["feedback.hit_frac"] = ratio(traced["feedback_hits"],
                                       traced["feedback_lookups"])
        n["feedback.hit_frac"] = traced["feedback_lookups"]
        m["feedback.contours_skipped"] = ratio(
            traced["feedback_contours_skipped"], n_service)
        m["executor.ms"] = 1e3 * mean(step_wall)
        m["executor.ns_per_cost_unit"] = 1e9 * ratio(
            sum(step_wall), sum(x["step_charged"] for x in a))
        hits, misses = traced["buffer_hits"], traced["buffer_misses"]
        m["storage.hit_frac"] = ratio(hits, hits + misses)
        n["storage.hit_frac"] = hits + misses  # page accesses
        m["storage.reads_per_req"] = ratio(traced["physical_reads"], n_service)
        m["storage.writes_per_req"] = ratio(traced["physical_writes"],
                                            n_service)
        m["storage.evictions_per_req"] = ratio(traced["buffer_evictions"],
                                               n_service)
        for k in ("bouquet.driver_self_us", "bouquet.driver_executions",
                  "executor.ms", "executor.ns_per_cost_unit"):
            n[k] = n_req
        for k in ("feedback.contours_skipped", "storage.reads_per_req",
                  "storage.writes_per_req", "storage.evictions_per_req"):
            n[k] = n_service
        breakdown = {"service.compile":
                     1e6 * mean([x["compile_s"] for x in a]),
                     "bouquet.driver_self": m["bouquet.driver_self_us"],
                     "executor": 1e6 * mean(step_wall)}
    else:
        m["bouquet.sim_executions"] = exact_mean([x["executions"] for x in a])
        m["bouquet.driver_self_us"] = 1e6 * mean([x["execute_s"] for x in a])
        n["bouquet.sim_executions"] = n["bouquet.driver_self_us"] = n_req
        breakdown = {"ess.compile": 1e6 * mean([x["compile_s"] for x in a]),
                     "service.exec": 1e6 * mean([x["execute_s"] for x in a])}
    m["obs.tracer_overhead_pct"] = 100.0 * (
        1.0 - ratio(phases[2]["rps"], phases[0]["rps"]))
    n["obs.tracer_overhead_pct"] = (phases[0]["requests"]
                                    + phases[2]["requests"])

    # Layer times must add up to the traced latency; the rest is printed as
    # unattributed. On exec_paged and compile_cold every layer time is per
    # request, so the check is per request too; on serve_wire the router and
    # service shares are phase means.
    mean_us = 1e6 * mean(lat)
    unattributed = mean_us - sum(breakdown.values())
    details = {"requests": n_req, "mean_latency_us": mean_us,
               "layers_us": breakdown, "unattributed_us": unattributed,
               "unattributed_frac": ratio(unattributed, mean_us)}
    if workload != "serve_wire":
        shares = sorted((x["dur_s"] - x["compile_s"] - x["execute_s"])
                        / x["dur_s"] for x in a)
        details["unattributed_frac_p90"] = shares[int(0.9 * (len(shares) - 1))]
    p50 = (1e6 * phases[0]["p50_s"], 1e6 * phases[1]["p50_s"])
    details["bench_tracing_overhead"] = {
        "untraced_p50_us": p50[0], "traced_p50_us": p50[1],
        "p50_delta_us": p50[1] - p50[0],
        "untraced_mean_us": 1e6 * phases[0]["mean_s"],
        "traced_mean_us": 1e6 * phases[1]["mean_s"]}
    return m, {k: int(v) for k, v in n.items()}, details


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2

    work = BUILD / ("run-%d" % os.getpid())
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", repr(args.seconds), "--trace",
             str(args.trace), "--work-dir", str(work)],
            stdout=subprocess.PIPE, text=True, timeout=170,
            preexec_fn=fixed_layout)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            log("perfbench: the binary printed no report (exit %d)"
                % proc.returncode)
            return 1
        report = json.loads(lines[-1])
        correct = bool(report["correct"]) and proc.returncode == 0
        details = None
        if not correct:
            values, samples = {}, {}
        elif args.trace:
            values, samples, details = per_layer(args.workload,
                                                 report["span_file"])
        else:
            values = {k: v["value"] for k, v in report["metrics"].items()}
            samples = {k: v["samples"] for k, v in report["metrics"].items()}
    except subprocess.TimeoutExpired:
        log("perfbench: the binary timed out")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["provenance"].update({
        "seed": args.seed, "git_sha": git_sha(),
        "source_digest": source_digest(), "build_type": BUILD_TYPE,
        "nproc": os.cpu_count()})
    print("workload %s  seed %d  %s run" % (
        args.workload, args.seed, "traced" if args.trace else "untraced"))
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    metrics = {}
    for d in declared["per_layer" if args.trace else "end_to_end"]:
        if d["name"] not in values:
            continue
        v = values[d["name"]]
        metrics[d["name"]] = {"value": v, "unit": d["unit"]}
        print("  %-28s %16.6g %-6s n=%d" % (d["name"], v, d["unit"],
                                             samples[d["name"]]))
    if details is not None:
        print("latency breakdown (us) " + json.dumps(details, sort_keys=True))
    if report["failure_samples"]:
        print("failures " + json.dumps(report["failure_samples"]))

    attempted = max(1, int(report["attempted"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - int(report["ok"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
