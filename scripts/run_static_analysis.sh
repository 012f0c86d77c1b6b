#!/usr/bin/env bash
# Static-analysis gate, runnable locally and in CI with the same config.
#
#   scripts/run_static_analysis.sh [--strict] [--build-dir DIR]
#                                  [--skip clang-tidy|cppcheck|thread-safety|lint]
#
# Four passes:
#   clang-tidy     — .clang-tidy config (bugprone/concurrency/performance/
#                    misc-const-correctness) over src/, tests/, bench/, and
#                    examples/, zero findings required.
#   cppcheck       — warning+portability+performance over the same scope,
#                    zero findings required.
#   thread-safety  — full Clang build with BOUQUET_THREAD_SAFETY=ON
#                    (-Werror=thread-safety); configuring it also runs the
#                    tests/static/ negative-compilation probe gate.
#   lint           — the bouquet-* domain checks (tools/lint/bouquet_lint.py):
#                    fixture self-test (every check fires on its negative
#                    fixture, escapes hold on the control) then a
#                    zero-findings sweep over src/.
#
# Default mode skips a pass whose tool is not installed (local dev boxes);
# --strict (used by CI) fails instead, so CI can never silently lose a pass.

set -euo pipefail
cd "$(dirname "$0")/.."

STRICT=0
BUILD_DIR=build-static
declare -A SKIP=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --strict) STRICT=1 ;;
    --build-dir) BUILD_DIR=$2; shift ;;
    --skip) SKIP[$2]=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

FAILURES=()

missing_tool() {
  local tool=$1 pass=$2
  if [[ $STRICT -eq 1 ]]; then
    echo "ERROR: $tool not found but required for the '$pass' pass (--strict)" >&2
    FAILURES+=("$pass (tool missing)")
  else
    echo "SKIP: $tool not found; skipping the '$pass' pass" >&2
  fi
}

# Sources the gate covers: the library proper plus the tests, benches, and
# examples that ship with it. tests/static/ is excluded — its probes and
# lint fixtures are DELIBERATE violations compiled outside the build graph
# (they have no compile_commands entries, and linting them would demand
# "fixing" code whose entire job is to be wrong).
mapfile -t SOURCES < <(find src tests bench examples \
                         \( -name '*.cc' -o -name '*.cpp' \) \
                         -not -path 'tests/static/*' | sort)

# --- compile database ------------------------------------------------------
# CMAKE_EXPORT_COMPILE_COMMANDS is always ON (top-level CMakeLists), so any
# configured build dir works; make a dedicated one to keep flags canonical.
# Benchmarks/examples stay ON so their sources appear in the database.
if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  mkdir -p "$BUILD_DIR"
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        > "$BUILD_DIR/configure.log" 2>&1 \
    || { cat "$BUILD_DIR/configure.log" >&2; exit 1; }
fi

# --- pass 1: clang-tidy ----------------------------------------------------
if [[ -z ${SKIP[clang-tidy]:-} ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy ($(clang-tidy --version | head -1)) =="
    if ! clang-tidy -p "$BUILD_DIR" --quiet "${SOURCES[@]}"; then
      FAILURES+=("clang-tidy")
    fi
  else
    missing_tool clang-tidy clang-tidy
  fi
fi

# --- pass 2: cppcheck ------------------------------------------------------
if [[ -z ${SKIP[cppcheck]:-} ]]; then
  if command -v cppcheck >/dev/null 2>&1; then
    echo "== cppcheck ($(cppcheck --version)) =="
    if ! cppcheck --enable=warning,performance,portability \
                  --std=c++20 --language=c++ --inline-suppr \
                  --suppress=missingIncludeSystem \
                  --suppress=unusedFunction \
                  --error-exitcode=2 \
                  -I src "${SOURCES[@]}"; then
      FAILURES+=("cppcheck")
    fi
  else
    missing_tool cppcheck cppcheck
  fi
fi

# --- pass 3: Clang thread-safety build ------------------------------------
if [[ -z ${SKIP[thread-safety]:-} ]]; then
  if command -v clang++ >/dev/null 2>&1; then
    echo "== thread-safety build (clang++ -Werror=thread-safety) =="
    TS_DIR="$BUILD_DIR-tsa"
    # Configure runs the tests/static/ probe gate under enforcement; the
    # build proves the whole tree is warning-free under the analysis.
    if cmake -B "$TS_DIR" -S . -DCMAKE_CXX_COMPILER=clang++ \
             -DCMAKE_BUILD_TYPE=RelWithDebInfo -DBOUQUET_THREAD_SAFETY=ON \
             -DBOUQUET_BUILD_BENCHMARKS=OFF -DBOUQUET_BUILD_EXAMPLES=OFF \
      && cmake --build "$TS_DIR" -j"$(nproc)"; then
      ctest --test-dir "$TS_DIR" -R test_static_probe_gate \
            --output-on-failure || FAILURES+=("thread-safety probe gate")
    else
      FAILURES+=("thread-safety build")
    fi
  else
    missing_tool clang++ thread-safety
  fi
fi

# --- pass 4: bouquet-* domain lint -----------------------------------------
if [[ -z ${SKIP[lint]:-} ]]; then
  if command -v python3 >/dev/null 2>&1; then
    echo "== bouquet lint: fixture self-test (tools/lint) =="
    if ! python3 scripts/check_lint_fixtures.py --root . \
           --schema scripts/trace_schema.json \
           tests/static/lint/fixtures/*.cc; then
      FAILURES+=("lint fixture gate")
    fi
    echo "== bouquet lint: zero-findings sweep over src/ =="
    if ! python3 tools/lint/run_lint.py --root .; then
      FAILURES+=("lint src sweep")
    fi
  else
    missing_tool python3 lint
  fi
fi

# --- verdict ---------------------------------------------------------------
if [[ ${#FAILURES[@]} -gt 0 ]]; then
  echo
  echo "static analysis FAILED: ${FAILURES[*]}" >&2
  exit 1
fi
echo
echo "static analysis clean"
