#!/usr/bin/env python3
"""Unit tests for the CI checker scripts in scripts/.

Each checker guards a CI job; a checker that silently passes bad input is a
gate that rotted open, and one that rejects good input blocks CI for no
reason. These tests drive every checker as a subprocess — the same
interface CI uses — against crafted passing and failing inputs and assert
on the exit code plus the specific failure text, so a checker that starts
failing for the WRONG reason is also caught.

Covered: check_compile_smoke.py, check_serve_smoke.py, check_exec_smoke.py,
check_storage_smoke.py, check_feedback_smoke.py, check_trace_schema.py,
check_lint_fixtures.py.
Stdlib only (unittest); registered in ctest as test_check_scripts.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SCRIPTS = os.path.join(REPO, "scripts")


def run_checker(script, *args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script)] + list(args),
        capture_output=True, text=True)


class CheckerTestCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def write_json(self, name, doc):
        path = os.path.join(self.tmp, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def write_text(self, name, text):
        path = os.path.join(self.tmp, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def assert_pass(self, proc):
        self.assertEqual(
            proc.returncode, 0,
            f"expected pass, got {proc.returncode}:\n{proc.stdout}\n"
            f"{proc.stderr}")

    def assert_fail(self, proc, needle):
        self.assertEqual(
            proc.returncode, 1,
            f"expected failure, got {proc.returncode}:\n{proc.stdout}\n"
            f"{proc.stderr}")
        self.assertIn(needle, proc.stdout + proc.stderr,
                      f"failure did not mention {needle!r}:\n{proc.stdout}\n"
                      f"{proc.stderr}")


class CompileSmokeTest(CheckerTestCase):
    def bench(self):
        return {"templates": [{
            "name": "posp_2d_res100",
            "points": 100,
            "incremental": {"dp_calls": 50, "bound_subsets": 330,
                            "audit_failures": 0},
            "memoryless": {"dp_calls": 100},
        }]}

    def baseline(self):
        return {"templates": [{"name": "posp_2d_res100",
                               "max_dp_calls": 60,
                               "max_bound_subsets": 330}]}

    def check(self, bench, baseline):
        return run_checker("check_compile_smoke.py",
                           self.write_json("bench.json", bench),
                           self.write_json("baseline.json", baseline))

    def test_passes_within_ceiling(self):
        self.assert_pass(self.check(self.bench(), self.baseline()))

    def test_fails_on_dp_call_regression(self):
        bench = self.bench()
        bench["templates"][0]["incremental"]["dp_calls"] = 61
        self.assert_fail(self.check(bench, self.baseline()),
                         "fast-path coverage regressed")

    def test_fails_on_audit_failures(self):
        bench = self.bench()
        bench["templates"][0]["incremental"]["audit_failures"] = 2
        self.assert_fail(self.check(bench, self.baseline()),
                         "audit")

    def test_fails_when_memoryless_skips_points(self):
        bench = self.bench()
        bench["templates"][0]["memoryless"]["dp_calls"] = 99
        self.assert_fail(self.check(bench, self.baseline()),
                         "not memoryless")

    def test_fails_on_missing_template(self):
        self.assert_fail(self.check({"templates": []}, self.baseline()),
                         "missing")

    def test_fails_on_bound_subset_regression(self):
        bench = self.bench()
        bench["templates"][0]["incremental"]["bound_subsets"] = 331
        self.assert_fail(self.check(bench, self.baseline()),
                         "recomputes subsets no moved dimension touches")

    def test_fails_when_bound_subsets_missing(self):
        bench = self.bench()
        del bench["templates"][0]["incremental"]["bound_subsets"]
        self.assert_fail(self.check(bench, self.baseline()),
                         "bound_subsets missing")


class ServeSmokeTest(CheckerTestCase):
    def bench(self):
        return {
            "serve": {"requests": 200, "completed": 200, "errors": 0,
                      "qps": 500.0, "p50_ms": 1.0, "p99_ms": 5.0,
                      "compilations": 2, "mean_batch_size": 4.0},
            "overload": {"requests": 100, "completed": 100, "degraded": 30,
                         "shed": 30, "peak_queue_depth": 8,
                         "max_queue_depth": 8, "compilations": 2},
        }

    def baseline(self):
        return {"serve": {"max_compilations": 4, "min_mean_batch_size": 2.0,
                          "min_qps": 100.0},
                "overload": {"min_degraded": 10}}

    def check(self, bench, baseline):
        return run_checker("check_serve_smoke.py",
                           self.write_json("bench.json", bench),
                           self.write_json("baseline.json", baseline))

    def test_passes_healthy_serve(self):
        self.assert_pass(self.check(self.bench(), self.baseline()))

    def test_fails_on_compile_storm(self):
        bench = self.bench()
        bench["serve"]["compilations"] = 50
        self.assert_fail(self.check(bench, self.baseline()),
                         "amortization broke")

    def test_fails_on_queue_bound_violation(self):
        bench = self.bench()
        bench["overload"]["peak_queue_depth"] = 9
        self.assert_fail(self.check(bench, self.baseline()),
                         "queue bound")

    def test_fails_when_shedding_never_engages(self):
        bench = self.bench()
        bench["overload"]["degraded"] = bench["overload"]["shed"] = 0
        self.assert_fail(self.check(bench, self.baseline()),
                         "shedding never engaged")

    def test_fails_on_shed_accounting_divergence(self):
        bench = self.bench()
        bench["overload"]["shed"] = bench["overload"]["degraded"] - 1
        self.assert_fail(self.check(bench, self.baseline()),
                         "shed accounting diverged")


class ExecSmokeTest(CheckerTestCase):
    def bench(self):
        section = {"scalar_seconds": 0.1, "batch_seconds": 0.02,
                   "speedup": 5.0, "rows_emitted": 1234,
                   "charged_bit_equal": True, "rows_equal": True}
        return {"scan": copy.deepcopy(section),
                "join": copy.deepcopy(section)}

    def baseline(self):
        floor = {"expected_rows": 1234, "min_speedup": 1.5}
        return {"scan": dict(floor), "join": dict(floor)}

    def check(self, bench, baseline):
        return run_checker("check_exec_smoke.py",
                           self.write_json("bench.json", bench),
                           self.write_json("baseline.json", baseline))

    def test_passes_bit_equal_fast(self):
        self.assert_pass(self.check(self.bench(), self.baseline()))

    def test_fails_on_charge_divergence(self):
        bench = self.bench()
        bench["join"]["charged_bit_equal"] = False
        self.assert_fail(self.check(bench, self.baseline()),
                         "no longer bit-exact")

    def test_fails_on_row_drift(self):
        bench = self.bench()
        bench["scan"]["rows_emitted"] = 1233
        self.assert_fail(self.check(bench, self.baseline()),
                         "deterministic result drifted")

    def test_fails_on_speedup_collapse(self):
        bench = self.bench()
        bench["scan"]["speedup"] = 1.0
        self.assert_fail(self.check(bench, self.baseline()),
                         "throughput")


class StorageSmokeTest(CheckerTestCase):
    def bench(self):
        return {
            "pool_pages": 64, "dataset_pages": 512,
            "reexec": {"ratio_lru": 3.0, "ratio_2q": 3.2,
                       "rows_emitted": 777},
            "scan_mix": {"lru_over_2q": 1.4},
            "parity": {"charged_bit_equal": True, "rows_equal": True,
                       "accounting_exact": True},
        }

    def baseline(self):
        return {"reexec": {"min_ratio": 2.0, "expected_rows": 777},
                "scan_mix": {"min_lru_over_2q": 1.1}}

    def check(self, bench, baseline):
        return run_checker("check_storage_smoke.py",
                           self.write_json("bench.json", bench),
                           self.write_json("baseline.json", baseline))

    def test_passes_healthy_storage(self):
        self.assert_pass(self.check(self.bench(), self.baseline()))

    def test_fails_when_dataset_fits_in_pool(self):
        bench = self.bench()
        bench["dataset_pages"] = 255
        self.assert_fail(self.check(bench, self.baseline()),
                         "no longer exceed the pool")

    def test_fails_on_cache_ratio_collapse(self):
        bench = self.bench()
        bench["reexec"]["ratio_2q"] = 1.5
        self.assert_fail(self.check(bench, self.baseline()),
                         "re-execution re-reads")

    def test_fails_on_scan_resistance_loss(self):
        bench = self.bench()
        bench["scan_mix"]["lru_over_2q"] = 1.0
        self.assert_fail(self.check(bench, self.baseline()),
                         "scan resistance")

    def test_fails_on_accounting_mismatch(self):
        bench = self.bench()
        bench["parity"]["accounting_exact"] = False
        self.assert_fail(self.check(bench, self.baseline()),
                         "accounting_exact")


class FeedbackSmokeTest(CheckerTestCase):
    def bench(self):
        return {
            "warm": {"requests": 6, "feedback_records": 6,
                     "feedback_hits": 3, "warm_runs": 3,
                     "contours_skipped": 3, "rows_identical": True,
                     "cold_steps": 9, "warm_steps": 6,
                     "driver_contours_skipped": 1},
            "shrink": {"full_points": 1600, "shrunken_points": 400,
                       "full_dp_calls": 5000, "shrunken_dp_calls": 1200,
                       "full_wall_seconds": 0.5,
                       "shrunken_wall_seconds": 0.1},
            "oracle": {"instances": 40, "warm_runs": 900,
                       "mispredicted_runs": 150, "violations": 0},
            "shootout": [
                {"policy": p, "mso": 3.0, "aso": 1.5, "max_harm": 0.0,
                 "plans": 4}
                for p in ("native", "seer", "parqo", "pao", "bouquet")],
        }

    def baseline(self):
        return {"warm": {"min_warm_runs": 1, "min_contours_skipped": 1},
                "shrink": {"full_points": 1600},
                "oracle": {"min_runs": 1000},
                "shootout": {"policies": ["native", "seer", "parqo", "pao",
                                          "bouquet"],
                             "max_bouquet_mso": 12.0}}

    def check(self, bench, baseline):
        return run_checker("check_feedback_smoke.py",
                           self.write_json("bench.json", bench),
                           self.write_json("baseline.json", baseline))

    def test_passes_healthy_feedback_loop(self):
        self.assert_pass(self.check(self.bench(), self.baseline()))

    def test_fails_when_warm_starts_vanish(self):
        bench = self.bench()
        bench["warm"]["warm_runs"] = 0
        self.assert_fail(self.check(bench, self.baseline()),
                         "no longer warm-starts")

    def test_fails_on_result_divergence(self):
        bench = self.bench()
        bench["warm"]["rows_identical"] = False
        self.assert_fail(self.check(bench, self.baseline()),
                         "changed the query result")

    def test_fails_when_shrink_saves_nothing(self):
        bench = self.bench()
        bench["shrink"]["shrunken_dp_calls"] = bench["shrink"]["full_dp_calls"]
        self.assert_fail(self.check(bench, self.baseline()),
                         "no longer saves compile work")

    def test_fails_on_oracle_violation(self):
        bench = self.bench()
        bench["oracle"]["violations"] = 2
        self.assert_fail(self.check(bench, self.baseline()),
                         "Theorem 3 bound")

    def test_fails_on_missing_policy(self):
        bench = self.bench()
        bench["shootout"] = [r for r in bench["shootout"]
                             if r["policy"] != "pao"]
        self.assert_fail(self.check(bench, self.baseline()),
                         "missing policies")

    def test_fails_on_nonfinite_metric(self):
        bench = self.bench()
        bench["shootout"][0]["mso"] = None
        self.assert_fail(self.check(bench, self.baseline()),
                         "not finite")

    def test_fails_on_bouquet_mso_blowup(self):
        bench = self.bench()
        bench["shootout"][-1]["mso"] = 50.0
        self.assert_fail(self.check(bench, self.baseline()),
                         "robustness edge")


class TraceSchemaTest(CheckerTestCase):
    def spans(self):
        root = {"span_id": 1, "parent_id": 0, "trace_id": 1,
                "name": "driver.step", "start": 0.0, "dur": 0.5,
                "attrs": {"budget": 100.0, "charged": 90.0}, "sattrs": {}}
        child = {"span_id": 2, "parent_id": 1, "trace_id": 1,
                 "name": "exec.node", "start": 0.1, "dur": 0.2,
                 "attrs": {}, "sattrs": {"op": "scan"}}
        return [root, child]

    def check(self, spans, *extra):
        trace = self.write_text(
            "trace.jsonl", "".join(json.dumps(s) + "\n" for s in spans))
        return run_checker("check_trace_schema.py", trace, *extra)

    def test_passes_valid_trace(self):
        self.assert_pass(self.check(self.spans()))

    def test_fails_on_budget_violation(self):
        spans = self.spans()
        spans[0]["attrs"]["charged"] = 200.0  # > 100 * 1.01 + 10
        self.assert_fail(self.check(spans), "budget invariant violated")

    def test_fails_on_duplicate_span_id(self):
        spans = self.spans()
        spans[1]["span_id"] = 1
        self.assert_fail(self.check(spans), "duplicate span_id")

    def test_fails_on_missing_field(self):
        spans = self.spans()
        del spans[0]["dur"]
        self.assert_fail(self.check(spans), "missing field 'dur'")

    def test_dangling_parent_is_error_by_default(self):
        spans = self.spans()
        spans[1]["parent_id"] = 99
        self.assert_fail(self.check(spans), "not in export")

    def test_allow_dropped_demotes_dangling_parent(self):
        spans = self.spans()
        spans[1]["parent_id"] = 99
        self.assert_pass(self.check(spans, "--allow-dropped"))

    def test_require_names_enforced(self):
        self.assert_fail(self.check(self.spans(), "--require-names",
                                    "sim.step"),
                         "never appears")

    def test_empty_trace_is_invalid(self):
        self.assert_fail(self.check([]), "no spans")


class LintFixtureGateTest(CheckerTestCase):
    """The gate that validates the lint fixtures must itself reject rot:
    a negative fixture without markers, a marker the engine cannot
    reproduce, and a control with findings are all gate failures."""

    def check(self, *fixtures):
        return run_checker("check_lint_fixtures.py", "--root", REPO,
                           "--schema", os.path.join(SCRIPTS,
                                                    "trace_schema.json"),
                           *fixtures)

    def test_real_fixtures_pass(self):
        fixtures = sorted(
            os.path.join(REPO, "tests", "static", "lint", "fixtures", f)
            for f in os.listdir(
                os.path.join(REPO, "tests", "static", "lint", "fixtures"))
            if f.endswith(".cc"))
        self.assertGreaterEqual(len(fixtures), 6)
        self.assert_pass(self.check(*fixtures))

    def test_rejects_unmarked_negative_fixture(self):
        f = self.write_text("fail_unmarked.cc",
                            "void G();\nvoid F() { (void)G(); }\n")
        self.assert_fail(self.check(f), "no expect-lint markers")

    def test_rejects_marker_engine_cannot_reproduce(self):
        f = self.write_text(
            "fail_ghost.cc",
            "// expect-lint: bouquet-discarded-status\nvoid F() {}\n")
        self.assert_fail(self.check(f), "expected but not reported")

    def test_rejects_dirty_control(self):
        f = self.write_text("control_dirty.cc",
                            "void G();\nvoid F() { (void)G(); }\n")
        self.assert_fail(self.check(f), "reported but not expected")


if __name__ == "__main__":
    unittest.main(verbosity=2)
