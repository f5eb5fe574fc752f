#!/usr/bin/env bash
# The figure benches read their scale knobs (bench/harness.hh) the way
# the tools read flags: a value that is not a whole in-range word exits
# 2 with a message naming the variable, before any run.
#
# Usage: run_bench_knobs.sh <figure-bench-binary>
set -u

BENCH=${1:?usage: run_bench_knobs.sh <figure-bench-binary>}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
STATUS=0

expect_refused() { # <variable> <value>
    local var=$1 value=$2 rc=0
    env "$var=$value" "$BENCH" >"$WORK/out" 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: $var=$value exited $rc (want 2)" >&2
        head -20 "$WORK/out" >&2
        STATUS=1
    elif ! grep -qF "$var" "$WORK/out"; then
        echo "FAIL: $var=$value does not name $var:" >&2
        cat "$WORK/out" >&2
        STATUS=1
    else
        echo "ok: $var=$value refused"
    fi
}

expect_refused CMPQOS_JOBS abc
expect_refused CMPQOS_JOB_INSTR 12.5e3
# Longer than some benchmark's job runs inside its address window.
expect_refused CMPQOS_JOB_INSTR 1099511627776

exit $STATUS
