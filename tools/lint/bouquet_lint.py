#!/usr/bin/env python3
"""Portable engine for the bouquet-* domain lint checks.

The checks encode repo-specific invariants the MSO guarantee depends on
(see DESIGN.md section 13 for the catalog):

  bouquet-determinism       no nondeterministic sources (clocks, rand,
                            getenv, pointer-keyed ordering, iteration over
                            unordered containers) inside accounting-critical
                            modules: src/executor, src/storage, src/ess,
                            src/bouquet. Escape: BOUQUET_NONDETERMINISM_OK
                            on the enclosing function (common/lint.h).
  bouquet-charge-order      fields tagged BOUQUET_CHARGED have an integral
                            type: the fixed-point charge type (FixedCost)
                            or a count. Integer sums are exact whatever
                            their order, which is what lets the engines
                            group and reorder charges and still agree on
                            the charge and the abort point.
  bouquet-page-guard        outside src/storage/buffer_manager.*, results
                            of BufferManager::Pin/PinNew must be bound to a
                            PageGuard (no discarded or temporary-consumed
                            pins) and Unpin is never called directly.
  bouquet-discarded-status  `(void)call(...)` casts require a recorded
                            justification; plain discards of Status /
                            Result<T> / PageGuard are compile errors via
                            [[nodiscard]], and the cast is the only
                            loophole, so the loophole needs a reason.
  bouquet-trace-name        span/metric name literals passed to
                            Tracer::Begin/BeginUnder/StartSpan and
                            MetricsRegistry::Get{Counter,Gauge,Histogram}
                            must appear in scripts/trace_schema.json, so
                            schema drift fails at analysis time instead of
                            in the runtime trace-schema CI job.

Statement-level escapes use clang-tidy comment syntax, which this engine
honors too: `// NOLINT(bouquet-…): reason` and `// NOLINTNEXTLINE(bouquet-…)`.

Output format matches clang-tidy (`file:line:col: warning: msg [check]`);
scripts/check_lint_fixtures.py holds the engine to the fixtures in
tests/static/lint/fixtures. Exit codes: 0 = clean, 1 = findings, 2 =
usage/configuration error. Stdlib only.

This engine is intentionally token-level (with comment/string stripping and
brace matching, not a real parser): it runs everywhere, including build
images without Clang. bouquet-determinism reads a .cc's same-stem .h too,
where the unordered members the .cc walks are declared.
"""

import argparse
import bisect
import json
import os
import re
import sys

ALL_CHECKS = (
    "bouquet-determinism",
    "bouquet-charge-order",
    "bouquet-page-guard",
    "bouquet-discarded-status",
    "bouquet-trace-name",
)

# Modules whose code feeds charged cost, abort points, or replay state.
# tests/static/lint/ opts its fixtures in so the self-test gate exercises
# the module-scoped checks.
ACCOUNTING_DIRS = re.compile(
    r"(^|/)(src/(executor|storage|ess|bouquet)|tests/static/lint)/")

BUFFER_MANAGER_FILES = re.compile(r"(^|/)src/storage/buffer_manager\.(h|cc)$")

NOLINT_RE = re.compile(r"NOLINT(NEXTLINE)?(?:\(([^)]*)\))?")


class SourceFile:
    """A file plus comment/string-stripped views and NOLINT bookkeeping."""

    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel
        self.text = text
        self.clean = strip_comments_and_strings(text)
        # line starts for offset -> (line, col)
        self.line_starts = [0]
        for m in re.finditer(r"\n", text):
            self.line_starts.append(m.end())
        self.nolint = self._collect_nolint(text)

    def linecol(self, offset):
        line = bisect.bisect_right(self.line_starts, offset)
        col = offset - self.line_starts[line - 1] + 1
        return line, col

    def _collect_nolint(self, text):
        """Maps line number -> set of suppressed checks ('*' = all)."""
        suppressed = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in NOLINT_RE.finditer(line):
                target = lineno + 1 if m.group(1) else lineno
                checks = m.group(2)
                entry = suppressed.setdefault(target, set())
                if checks is None:
                    entry.add("*")
                else:
                    entry.update(c.strip() for c in checks.split(","))
        return suppressed

    def suppressed(self, lineno, check):
        entry = self.nolint.get(lineno, ())
        return "*" in entry or check in entry


def strip_comments_and_strings(text):
    """Replaces comments and string/char literal bodies with spaces,
    preserving offsets and newlines so positions map 1:1."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            for k in range(i + 1, min(j, n)):
                out[k] = " "
            i = min(j, n - 1) + 1
        else:
            i += 1
    return "".join(out)


def match_brace_span(clean, open_idx):
    """Returns offset just past the brace matching clean[open_idx] == '{'."""
    depth = 0
    for i in range(open_idx, len(clean)):
        if clean[i] == "{":
            depth += 1
        elif clean[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(clean)


def statement_start(clean, idx):
    """Offset just past the previous ';', '{', or '}' before idx."""
    for i in range(idx - 1, -1, -1):
        if clean[i] in ";{}":
            return i + 1
    return 0


def call_close_paren(clean, open_idx):
    """Offset of the ')' matching clean[open_idx] == '('."""
    depth = 0
    for i in range(open_idx, len(clean)):
        if clean[i] == "(":
            depth += 1
        elif clean[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(clean) - 1


class Finding:
    def __init__(self, src, offset, check, message):
        self.src = src
        self.line, self.col = src.linecol(offset)
        self.check = check
        self.message = message

    def render(self):
        return (f"{self.src.rel}:{self.line}:{self.col}: warning: "
                f"{self.message} [{self.check}]")


def report(findings, src, offset, check, message):
    f = Finding(src, offset, check, message)
    if not src.suppressed(f.line, check):
        findings.append(f)


# --------------------------------------------------------------------------
# bouquet-determinism
# --------------------------------------------------------------------------

NONDET_PATTERNS = (
    (re.compile(r"\bstd\s*::\s*random_device\b|\brandom_device\b"),
     "std::random_device is a nondeterministic source"),
    (re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\("),
     "rand()/srand() is a nondeterministic (global-state) source"),
    (re.compile(r"\b(?:std\s*::\s*)?getenv\s*\("),
     "getenv() makes accounting depend on the environment"),
    (re.compile(r"\b\w*_clock\s*::\s*now\s*\("),
     "wall-clock reads are nondeterministic"),
    # Pointer in the KEY position only: `map<T*, …>` / `set<T*>`; pointer
    # values (`map<string, T*>`) order by their deterministic keys.
    (re.compile(r"\bstd\s*::\s*(?:multi)?(?:map|set)\s*<\s*[^,<>;]*\*\s*[,>]"),
     "pointer-keyed ordered container: iteration order is address-dependent"),
)

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<")
DECL_NAME_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:GUARDED_BY\s*\([^)]*\)\s*)?"
                          r"(?:=[^;]*)?;")
ESCAPE_MACRO = "BOUQUET_NONDETERMINISM_OK"


def nondet_escape_spans(src):
    """Character spans covered by a BOUQUET_NONDETERMINISM_OK annotation:
    from the macro through the end of the next brace-matched body."""
    spans = []
    for m in re.finditer(re.escape(ESCAPE_MACRO), src.clean):
        open_idx = src.clean.find("{", m.end())
        if open_idx == -1:
            spans.append((m.start(), len(src.clean)))
        else:
            spans.append((m.start(), match_brace_span(src.clean, open_idx)))
    return spans


def unordered_names(clean):
    """Identifiers declared with an unordered container type in `clean`
    (comment/string-stripped source). Heuristic: the declarator name is the
    identifier that ends the declaration statement containing
    `unordered_…<`."""
    names = set()
    flat = re.sub(r"\s+", " ", clean)
    for m in UNORDERED_DECL_RE.finditer(flat):
        # Walk to the ';' closing this declaration, skipping nested <>/().
        tail = flat[m.start():flat.find(";", m.start()) + 1]
        dm = DECL_NAME_RE.search(tail)
        if dm:
            names.add(dm.group(1))
    # Common aliases in this codebase: iterating `.first`/`second` of a
    # `where`-style map via an iterator also counts, but plain heuristics
    # stop at declared names.
    return names


def companion_header_clean(src):
    """Stripped text of the .h with the same stem as a .cc, or "" — a
    class's unordered members are declared there, iterated here."""
    stem, ext = os.path.splitext(src.path)
    if ext != ".cc" or not os.path.isfile(stem + ".h"):
        return ""
    with open(stem + ".h", "r", encoding="utf-8", errors="replace") as f:
        return strip_comments_and_strings(f.read())


def check_determinism(src, findings):
    if not ACCOUNTING_DIRS.search(src.rel):
        return
    escapes = nondet_escape_spans(src)

    def escaped(offset):
        return any(a <= offset < b for a, b in escapes)

    for pattern, message in NONDET_PATTERNS:
        for m in pattern.finditer(src.clean):
            if not escaped(m.start()):
                report(findings, src, m.start(), "bouquet-determinism",
                       message)
    names = unordered_names(src.clean) | unordered_names(
        companion_header_clean(src))
    if not names:
        return
    alt = "|".join(re.escape(n) for n in sorted(names))
    # Range-for over an unordered member/variable declared in this file or
    # its companion header, or explicit iterator walks over one.
    iter_res = (
        re.compile(r"for\s*\([^;()]*:\s*(?:[\w.\->]+(?:->|\.))?(" + alt +
                   r")\s*\)"),
        re.compile(r"\b(" + alt + r")\s*(?:\.|->)\s*c?begin\s*\("),
    )
    for rex in iter_res:
        for m in rex.finditer(src.clean):
            if not escaped(m.start()):
                report(
                    findings, src, m.start(), "bouquet-determinism",
                    f"iteration over unordered container '{m.group(1)}' has "
                    "unspecified order; sort keys first or annotate the "
                    "enclosing function BOUQUET_NONDETERMINISM_OK if the "
                    "order provably never feeds charge/replay state")


# --------------------------------------------------------------------------
# bouquet-charge-order
# --------------------------------------------------------------------------

CHARGED_DECL_RE = re.compile(
    r"BOUQUET_CHARGED\s+([\w:<>,\s]*?)\s*\b[A-Za-z_]\w*\s*"
    r"(?:=[^;]*|\{[^;]*\})?;")
# Integral spellings a charged field may use, qualifiers stripped.
INTEGRAL_TYPES = {
    "FixedCost", "int64_t", "int32_t", "int16_t", "int8_t", "uint64_t",
    "uint32_t", "uint16_t", "uint8_t", "size_t", "ptrdiff_t", "int", "long",
    "long long", "long int", "long long int", "short", "unsigned",
    "unsigned int", "unsigned long", "unsigned long long", "signed",
}
TYPE_QUALIFIER_RE = re.compile(
    r"\b(?:std|bouquet)\s*::\s*|\b(?:const|mutable|static|inline|"
    r"volatile|constexpr)\b")


def check_charge_order(src, findings):
    for m in CHARGED_DECL_RE.finditer(src.clean):
        spelled = " ".join(TYPE_QUALIFIER_RE.sub(" ", m.group(1)).split())
        if spelled not in INTEGRAL_TYPES:
            report(findings, src, m.start(), "bouquet-charge-order",
                   f"charged field of type '{m.group(1).strip()}' is not "
                   "integral; charged state is FixedCost (fixed-point "
                   "units) or a count, so its sums are exact in any order")


# --------------------------------------------------------------------------
# bouquet-page-guard
# --------------------------------------------------------------------------

PIN_CALL_RE = re.compile(r"(?:\.|->)\s*(Pin|PinNew)\s*\(")
UNPIN_CALL_RE = re.compile(r"(?:\.|->)\s*Unpin\s*\(")


def check_page_guard(src, findings):
    if BUFFER_MANAGER_FILES.search(src.rel):
        return
    for m in UNPIN_CALL_RE.finditer(src.clean):
        report(findings, src, m.start(), "bouquet-page-guard",
               "direct Unpin() call; page pins are released only by their "
               "owning PageGuard")
    for m in PIN_CALL_RE.finditer(src.clean):
        start = statement_start(src.clean, m.start())
        head = src.clean[start:m.start()]
        close = call_close_paren(src.clean, src.clean.find("(", m.end() - 1))
        tail = src.clean[close + 1:close + 4].lstrip()
        if tail.startswith(".") or tail.startswith("->"):
            report(findings, src, m.start(), "bouquet-page-guard",
                   f"{m.group(1)}() result consumed as a temporary; the pin "
                   "is released at the end of the statement — bind it to a "
                   "PageGuard for the access lifetime")
            continue
        if "=" not in head and "return" not in head:
            report(findings, src, m.start(), "bouquet-page-guard",
                   f"{m.group(1)}() result is not bound to a PageGuard; a "
                   "discarded pin is an unpin pulse that distorts pin "
                   "telemetry and can never be read")


# --------------------------------------------------------------------------
# bouquet-discarded-status
# --------------------------------------------------------------------------

VOID_CAST_RE = re.compile(r"\(\s*void\s*\)\s*([A-Za-z_:][\w:.\->]*\s*\()")


def check_discarded_status(src, findings):
    for m in VOID_CAST_RE.finditer(src.clean):
        report(findings, src, m.start(), "bouquet-discarded-status",
               "(void)-cast silently discards a call result; Status/Result "
               "are [[nodiscard]] and the cast is the only loophole — "
               "handle the result or add NOLINT(bouquet-discarded-status) "
               "with the reason it is safe to drop")


# --------------------------------------------------------------------------
# bouquet-trace-name
# --------------------------------------------------------------------------

SPAN_CALL_RE = re.compile(
    r"(?:Tracer\s*::\s*Begin(?:Under)?|(?:\.|->)\s*StartSpan)\s*\(")
METRIC_CALL_RE = re.compile(r"(?:\.|->)\s*Get(Counter|Gauge|Histogram)\s*\(")
STRING_LIT_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


def first_literal_in_call(src, open_paren):
    close = call_close_paren(src.clean, open_paren)
    m = STRING_LIT_RE.search(src.text, open_paren, close)
    return m


def is_declaration_context(clean, idx):
    """True when the qualified name starting at idx is preceded by a type
    (return type of a declaration/definition) rather than an expression."""
    i = idx - 1
    while i >= 0 and (clean[i].isalnum() or clean[i] in "_:"):
        i -= 1  # swallow enclosing qualifiers like `obs::`
    while i >= 0 and clean[i].isspace():
        i -= 1
    if i < 0 or not (clean[i].isalnum() or clean[i] in "_>*&"):
        return False
    j = i
    while j >= 0 and (clean[j].isalnum() or clean[j] == "_"):
        j -= 1
    return clean[j + 1:i + 1] != "return"


def check_trace_name(src, findings, schema):
    if schema is None or not re.search(r"(^|/)(src|tests/static/lint)/",
                                       src.rel):
        return
    span_names = set(schema.get("known_span_names", ()))
    metric_names = set(schema.get("known_metric_names", ()))
    for rex, names, what in ((SPAN_CALL_RE, span_names, "span"),
                             (METRIC_CALL_RE, metric_names, "metric")):
        for m in rex.finditer(src.clean):
            if is_declaration_context(src.clean, m.start()):
                continue  # `Span Tracer::Begin(...)` definition, not a call
            open_paren = src.clean.find("(", m.end() - 1)
            lit = first_literal_in_call(src, open_paren)
            if lit is None:
                report(findings, src, m.start(), "bouquet-trace-name",
                       f"non-literal {what} name defeats schema checking; "
                       "pass a literal from scripts/trace_schema.json")
            elif lit.group(1) not in names:
                report(findings, src, lit.start(), "bouquet-trace-name",
                       f'{what} name "{lit.group(1)}" is not in '
                       "scripts/trace_schema.json; add it to the schema "
                       "(and teach the trace-schema CI job) or fix the typo")


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def load_sources(root, paths):
    sources = []
    for p in sorted(paths):
        ap = os.path.abspath(p)
        rel = os.path.relpath(ap, root).replace(os.sep, "/")
        try:
            with open(ap, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"error: cannot read {p}: {e}", file=sys.stderr)
            sys.exit(2)
        sources.append(SourceFile(ap, rel, text))
    return sources


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", help="C++ sources/headers to lint")
    ap.add_argument("--root", default=None,
                    help="repo root for module scoping (default: nearest "
                    "ancestor of this script)")
    ap.add_argument("--schema", default=None,
                    help="trace_schema.json path (default: "
                    "<root>/scripts/trace_schema.json)")
    ap.add_argument("--checks", default=",".join(ALL_CHECKS),
                    help="comma-separated subset of checks to run")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        print("\n".join(ALL_CHECKS))
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    enabled = {c.strip() for c in args.checks.split(",") if c.strip()}
    unknown = enabled.difference(ALL_CHECKS)
    if unknown:
        print(f"error: unknown checks: {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    schema = None
    schema_path = args.schema or os.path.join(root, "scripts",
                                              "trace_schema.json")
    if os.path.exists(schema_path):
        with open(schema_path, "r", encoding="utf-8") as f:
            schema = json.load(f)
    elif "bouquet-trace-name" in enabled:
        print(f"error: trace schema not found at {schema_path} "
              "(needed by bouquet-trace-name; pass --schema)",
              file=sys.stderr)
        return 2

    sources = load_sources(root, args.files)
    findings = []
    for src in sources:
        if "bouquet-determinism" in enabled:
            check_determinism(src, findings)
        if "bouquet-charge-order" in enabled:
            check_charge_order(src, findings)
        if "bouquet-page-guard" in enabled:
            check_page_guard(src, findings)
        if "bouquet-discarded-status" in enabled:
            check_discarded_status(src, findings)
        if "bouquet-trace-name" in enabled:
            check_trace_name(src, findings, schema)

    findings.sort(key=lambda f: (f.src.rel, f.line, f.col, f.check))
    for f in findings:
        print(f.render())
    if findings:
        print(f"bouquet-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
