#!/bin/sh
# CLI error-contract smoke test (wired as ctest `check_cli`).
#
# Exercises the stable exit-code mapping of docs/ROBUSTNESS.md on the
# shipped CLIs — tc_profile, lotus_diff_repro, and (when given) tc_serve —
# end to end: success (0), invalid argument (2), io error (3), out of memory
# (4), deadline exceeded (5), plus the one-line "error (<code>): ..." stderr
# contract and the metrics resilience section of a degraded run.
# Deterministic failures come from the LOTUS_FAULTS injection hook
# (util/fault.hpp), not from real resource pressure.
#
# Usage: check_cli.sh <tc_profile-binary> <lotus_diff_repro-binary> [tc_serve-binary]
set -eu

TC_PROFILE=${1:?usage: check_cli.sh <tc_profile> <lotus_diff_repro> [tc_serve]}
DIFF_REPRO=${2:?usage: check_cli.sh <tc_profile> <lotus_diff_repro> [tc_serve]}
TC_SERVE=${3:-}

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "check_cli: FAIL: $1" >&2
  exit 1
}

# expect_exit <description> <wanted-exit-code> <command...>
# Captures stdout/stderr in $TMP/out and $TMP/err for follow-up greps.
expect_exit() {
  desc=$1
  want=$2
  shift 2
  set +e
  "$@" >"$TMP/out" 2>"$TMP/err"
  got=$?
  set -e
  if [ "$got" -ne "$want" ]; then
    sed 's/^/  stderr: /' "$TMP/err" >&2
    fail "$desc: exit $got, want $want"
  fi
  echo "check_cli: ok: $desc (exit $want)"
}

expect_error_line() {
  grep -q "error ($1)" "$TMP/err" ||
    fail "$2: stderr lacks the \"error ($1): ...\" line"
}

# --- tc_profile ------------------------------------------------------------

expect_exit "tc_profile clean run" 0 \
  "$TC_PROFILE" --algo lotus --factor 0.05
grep -q '"status": "ok"' "$TMP/out" ||
  fail "clean run: resilience status is not ok"

expect_exit "unknown algorithm -> invalid_argument" 2 \
  "$TC_PROFILE" --algo not-an-algorithm
expect_error_line invalid_argument "unknown algorithm"

expect_exit "missing graph file -> io_error" 3 \
  "$TC_PROFILE" --algo lotus --graph "$TMP/does-not-exist.el"
expect_error_line io_error "missing graph file"

printf 'LOTUSGR1' >"$TMP/truncated.bin"
expect_exit "truncated binary graph -> io_error" 3 \
  "$TC_PROFILE" --algo lotus --graph "$TMP/truncated.bin"
expect_error_line io_error "truncated binary graph"

expect_exit "1ms deadline -> deadline_exceeded" 5 \
  "$TC_PROFILE" --algo lotus --factor 0.2 --deadline-ms 1
expect_error_line deadline_exceeded "1ms deadline"
grep -q '"status": "deadline_exceeded"' "$TMP/out" ||
  fail "deadline run: resilience section does not say deadline_exceeded"

# The alloc fault site fires on the first accounted allocation; lotus then
# degrades to gap-forward and still answers (recorded in the report).
# (`env VAR=...` rather than a prefix assignment: assignments before a shell
# *function* call persist in some POSIX shells.)
expect_exit "alloc fault degrades lotus" 0 \
  env LOTUS_FAULTS=alloc:1 "$TC_PROFILE" --algo lotus --factor 0.05
grep -q '"degradations"' "$TMP/out" ||
  fail "degraded run: report lacks a degradations list"
grep -q 'fallback=gap-forward' "$TMP/out" ||
  fail "degraded run: report does not name the gap-forward fallback"

# ... unless degradation is disabled, which must surface out_of_memory.
expect_exit "alloc fault + --no-degrade -> out_of_memory" 4 \
  env LOTUS_FAULTS=alloc:1 "$TC_PROFILE" --algo lotus --factor 0.05 --no-degrade
expect_error_line out_of_memory "alloc fault + --no-degrade"

# --- lotus_diff_repro ------------------------------------------------------

expect_exit "diff repro --list" 0 "$DIFF_REPRO" --list

expect_exit "diff repro corpus match" 0 \
  "$DIFF_REPRO" --graph wheel_24 --path lotus
grep -q 'MATCH' "$TMP/out" || fail "corpus match: no MATCH line"

expect_exit "diff repro unknown path -> usage" 2 \
  "$DIFF_REPRO" --graph wheel_24 --path not-a-path

expect_exit "diff repro unreadable graph -> io_error" 3 \
  "$DIFF_REPRO" --graph "$TMP/missing.el" --path lotus
expect_error_line io_error "diff repro unreadable graph"

# --- tc_serve --------------------------------------------------------------

if [ -n "$TC_SERVE" ]; then
  expect_exit "tc_serve clean replay" 0 \
    "$TC_SERVE" --factor 0.05 --queries 6 --drivers 2 \
    --metrics-out "$TMP/engine.json"
  grep -q 'speedup:' "$TMP/out" || fail "tc_serve: no speedup line"
  grep -q 'cache hits' "$TMP/out" || fail "tc_serve: no cache-hit summary"
  grep -q '"engine"' "$TMP/engine.json" ||
    fail "tc_serve: metrics JSON lacks the engine section"
  grep -q '"schema_version": "lotus-metrics/8"' "$TMP/engine.json" ||
    fail "tc_serve: metrics JSON is not schema lotus-metrics/8"
  grep -q '"engine_telemetry"' "$TMP/engine.json" ||
    fail "tc_serve: metrics JSON lacks the engine_telemetry section"

  # Telemetry exports: the Prometheus exposition must parse (TYPE headers,
  # histogram families, exact completed count) and the query log must carry
  # one JSON line per query at the default sampling rate.
  expect_exit "tc_serve telemetry export" 0 \
    "$TC_SERVE" --factor 0.05 --queries 6 --drivers 2 --mode engine \
    --telemetry-out "$TMP/engine.prom" --query-log "$TMP/queries.jsonl" \
    --stats-interval-s 0.2
  grep -q '^# TYPE lotus_engine_query_stage_seconds histogram' "$TMP/engine.prom" ||
    fail "tc_serve: telemetry-out lacks the stage histogram family"
  grep -q '^# TYPE lotus_engine_cache_outcome_seconds histogram' "$TMP/engine.prom" ||
    fail "tc_serve: telemetry-out lacks the cache-outcome histogram family"
  grep -q '^lotus_engine_queries_completed_total 6$' "$TMP/engine.prom" ||
    fail "tc_serve: telemetry-out completed count is wrong"
  grep -q 'le="+Inf"' "$TMP/engine.prom" ||
    fail "tc_serve: telemetry-out lacks +Inf buckets"
  [ "$(grep -c '^{"query_id":' "$TMP/queries.jsonl")" = 6 ] ||
    fail "tc_serve: query log does not have one JSON line per query"
  grep -q '"cache_outcome":"hit"' "$TMP/queries.jsonl" ||
    fail "tc_serve: query log records no cache hit"

  expect_exit "tc_serve unwritable query log -> io_error" 3 \
    "$TC_SERVE" --factor 0.05 --queries 2 --mode engine \
    --query-log "$TMP/no-such-dir/queries.jsonl"
  expect_error_line io_error "tc_serve unwritable query log"

  expect_exit "tc_serve negative stats interval -> invalid_argument" 2 \
    "$TC_SERVE" --stats-interval-s -1
  expect_error_line invalid_argument "tc_serve negative stats interval"

  expect_exit "tc_serve unknown algorithm -> invalid_argument" 2 \
    "$TC_SERVE" --mix lotus,not-an-algorithm
  expect_error_line invalid_argument "tc_serve unknown algorithm"

  expect_exit "tc_serve unknown mode -> invalid_argument" 2 \
    "$TC_SERVE" --mode sideways
  expect_error_line invalid_argument "tc_serve unknown mode"

  expect_exit "tc_serve missing graph file -> io_error" 3 \
    "$TC_SERVE" --graph "$TMP/does-not-exist.el"
  expect_error_line io_error "tc_serve missing graph file"
else
  echo "check_cli: note: tc_serve binary not given, skipping its checks"
fi

echo "check_cli: all CLI exit-code checks passed"
