#!/usr/bin/env bash
# Runs the membq_tests cases a gtest filter selects, repeatedly, under one
# wall-clock timeout, so a rare race or a hang fails under its own test
# names instead of somewhere inside a full ctest run.
#
#   tests/gtest_repeat.sh LABEL FILTER REPEAT TIMEOUT_S
#
# Run from the repository root after building into build/. It fails when
# the filter selects no test, when a run fails or outlives TIMEOUT_S, and
# when the repeated run executed no test. LABEL names the two logs it
# leaves in the working directory (LABEL-selected.txt, LABEL-run.txt).
set -euo pipefail

if [ "$#" -ne 4 ]; then
  echo "usage: $0 LABEL FILTER REPEAT TIMEOUT_S" >&2
  exit 2
fi
label=$1
filter=$2
repeat=$3
limit=$4
tests=./build/membq_tests

"$tests" --gtest_filter="$filter" --gtest_list_tests \
  | tee "$label-selected.txt"
if ! grep -q '^  ' "$label-selected.txt"; then
  echo '::error::gtest filter selects zero tests'
  exit 1
fi
timeout "$limit" "$tests" --gtest_filter="$filter" \
  --gtest_repeat="$repeat" 2>&1 | tee "$label-run.txt"
if ! grep -Eq '\[==========\] Running [1-9][0-9]* tests? from' \
    "$label-run.txt"; then
  echo "::error::$label run executed zero tests"
  exit 1
fi
