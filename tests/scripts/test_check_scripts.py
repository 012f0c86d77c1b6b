#!/usr/bin/env python3
"""Unit tests for the CI checker scripts in scripts/.

Each checker guards a CI job; a checker that silently passes bad input is a
gate that rotted open, and one that rejects good input blocks CI for no
reason. These tests drive every checker as a subprocess — the same
interface CI uses — against crafted passing and failing inputs and assert
on the exit code plus the specific failure text, so a checker that starts
failing for the WRONG reason is also caught.

Covered: check_trace_schema.py, check_lint_fixtures.py, and the src/
sweep of tools/lint/run_lint.py (ctest test_lint_src_clean).
Stdlib only (unittest); registered in ctest as test_check_scripts.
"""

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


class LintSweepTest(CheckerTestCase):
    """The src/ sweep fails on a schema name that no call under src/ names,
    so a retired span or metric cannot linger in the schema."""

    def sweep(self, span_names):
        os.makedirs(os.path.join(self.tmp, "src"), exist_ok=True)
        os.makedirs(os.path.join(self.tmp, "scripts"), exist_ok=True)
        self.write_text(os.path.join("src", "emit.cc"),
                        "void F(obs::Tracer* t) {\n"
                        '  obs::Span s = obs::Tracer::Begin(t, "a.used", '
                        "nullptr);\n"
                        "}\n")
        self.write_text(os.path.join("scripts", "trace_schema.json"),
                        json.dumps({"known_span_names": span_names,
                                    "known_metric_names": []}))
        return subprocess.run(
            [sys.executable, os.path.join(REPO, "tools", "lint",
                                          "run_lint.py"),
             "--root", self.tmp],
            capture_output=True, text=True)

    def test_fails_on_unemitted_schema_name(self):
        self.assert_pass(self.sweep(["a.used"]))
        proc = self.sweep(["a.used", "a.retired"])
        self.assert_fail(proc, 'span name "a.retired" is in the schema')
        self.assertNotIn('"a.used"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
