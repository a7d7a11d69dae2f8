#!/bin/sh
# Build, test, and regenerate every table/figure of the paper, capturing
# the outputs the repo's EXPERIMENTS.md is based on. Configures and tests
# exactly like the tier-1 recipe (ROADMAP.md), so it reuses a build/ tree
# that recipe made; a failing test fails the script.
set -e

cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j

# POSIX sh has no pipefail: a `ctest | tee` pipeline would report tee's
# status and hide test failures, so capture first and check the status.
status=0
(cd build && ctest --output-on-failure -j) > test_output.txt 2>&1 \
    || status=$?
cat test_output.txt
if [ "$status" -ne 0 ]; then
    echo "run_all.sh: ctest failed (exit $status); see test_output.txt" >&2
    exit "$status"
fi

: > bench_output.txt
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo "===== $b =====" | tee -a bench_output.txt
    # Same reason as above: capture, log, then check the bench's own
    # status — a failing bench fails the script.
    status=0
    output=$("$b" 2>&1) || status=$?
    printf '%s\n' "$output" | tee -a bench_output.txt
    if [ "$status" -ne 0 ]; then
        echo "run_all.sh: $b failed (exit $status); see bench_output.txt" >&2
        exit "$status"
    fi
    echo | tee -a bench_output.txt
done
