#!/usr/bin/env bash
# Golden-file tests for the CLI tools. Runs cluster_driver (Poisson
# and trace-replay-with-faults scenarios) and telemetry_dump against
# pinned fixtures, normalises the host-dependent fields (wall-clock
# time and derived rates -- everything else is deterministic at a
# pinned thread count), and diffs the output against tests/cli/golden.
#
# Usage:   run_cli_golden.sh <cluster_driver> <telemetry_dump> <case> [qosctl]
#          case: driver | dump | usage | all (usage needs the qosctl path)
# Update:  UPDATE_GOLDEN=1 run_cli_golden.sh ... all
set -u

DRIVER=${1:?usage: run_cli_golden.sh <cluster_driver> <telemetry_dump> <case> [qosctl]}
DUMP=${2:?usage: run_cli_golden.sh <cluster_driver> <telemetry_dump> <case> [qosctl]}
CASE=${3:-all}
QOSCTL=${4:-}
HERE=$(cd "$(dirname "$0")" && pwd)
FIXTURES=$HERE/fixtures
GOLDEN=$HERE/golden
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
UPDATE=${UPDATE_GOLDEN:-0}
STATUS=0

# Strip host-side values: the stdout timing line, and the wall-clock
# fields on the metrics/trace meta lines. Thread count is pinned by
# the scenarios, so it is NOT normalised -- a change there is a real
# regression.
normalise() {
    sed -E \
        -e 's|^host time .*|host time                  (normalised)|' \
        -e 's|"wall_seconds":[0-9.eE+-]+|"wall_seconds":0|g' \
        -e 's|wall_seconds=[0-9.eE+-]+|wall_seconds=0|g' \
        -e 's|"jobs_per_second":[0-9.eE+-]+|"jobs_per_second":0|g'
}

check() { # <golden-name> <actual-file>
    local name=$1 file=$2
    if [ "$UPDATE" = 1 ]; then
        mkdir -p "$GOLDEN"
        cp "$file" "$GOLDEN/$name"
        echo "updated golden/$name"
        return 0
    fi
    if [ ! -f "$GOLDEN/$name" ]; then
        echo "FAIL: missing golden/$name (run with UPDATE_GOLDEN=1)" >&2
        STATUS=1
        return 0
    fi
    if ! diff -u "$GOLDEN/$name" "$file"; then
        echo "FAIL: $name diverged from golden" >&2
        STATUS=1
    else
        echo "ok: $name"
    fi
}

# Shared scenario: trace replay + fault plan + invariant oracle. Both
# the driver goldens and the telemetry_dump goldens feed off this run
# so the two tools are checked against the SAME event stream. The run
# writes $WORK/<tag>.{out,jsonl,csv,trace.jsonl}; further arguments
# are added to the command line.
run_fault_scenario() { # <tag> [cluster_driver args...]
    local tag=$1
    shift
    "$DRIVER" --nodes 4 --threads 2 --quantum 500000 --seed 11 \
        --instructions 400000 \
        --trace "$FIXTURES/arrivals.trace" \
        --fault-plan "$FIXTURES/sample.plan" \
        --check-invariants \
        --jsonl "$WORK/$tag.jsonl" \
        --csv "$WORK/$tag.csv" \
        --trace-out "$WORK/$tag.trace.jsonl" \
        "$@" >"$WORK/$tag.out" 2>&1
    local rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: fault scenario '$tag' exited $rc (expected 0)" >&2
        cat "$WORK/$tag.out" >&2
        exit 1
    fi
}

case_driver() {
    # 1. Clean Poisson run: stdout only.
    "$DRIVER" --nodes 4 --threads 2 --jobs 16 --quantum 500000 \
        --instructions 400000 --mean-interarrival 150000 --seed 11 \
        --check-invariants >"$WORK/driver_poisson.out" 2>&1
    local rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: poisson scenario exited $rc (expected 0)" >&2
        cat "$WORK/driver_poisson.out" >&2
        exit 1
    fi
    normalise <"$WORK/driver_poisson.out" >"$WORK/driver_poisson.norm"
    check driver_poisson.txt "$WORK/driver_poisson.norm"

    # 2. Trace replay with the fault plan: stdout + metrics exports.
    run_fault_scenario fault
    normalise <"$WORK/fault.out" >"$WORK/fault.norm"
    check driver_fault.txt "$WORK/fault.norm"
    normalise <"$WORK/fault.jsonl" >"$WORK/fault_metrics.norm"
    check driver_fault_metrics.jsonl "$WORK/fault_metrics.norm"
    check driver_fault_nodes.csv "$WORK/fault.csv"

    # 2b. The same run with the feedback controller on: node 1 crashes
    # and restarts while nodes 2 and 3 are retuned, so the carried
    # work, energy and controller tallies all reach the exports.
    run_fault_scenario control --control on
    normalise <"$WORK/control.out" >"$WORK/control.norm"
    check driver_fault_control.txt "$WORK/control.norm"
    normalise <"$WORK/control.jsonl" >"$WORK/control_metrics.norm"
    check driver_fault_control_metrics.jsonl "$WORK/control_metrics.norm"
    check driver_fault_control_nodes.csv "$WORK/control.csv"

    # 2c. Sharded over two uds links, every node snapshot crosses the
    # wire field by field and must come back unchanged.
    run_fault_scenario control_uds --control on --shards 2 --transport uds
    if [ "$UPDATE" != 1 ]; then
        if cmp -s "$WORK/control.csv" "$WORK/control_uds.csv"; then
            echo "ok: sharded controller run writes the same CSV"
        else
            echo "FAIL: --shards 2 --transport uds CSV differs:" >&2
            diff -u "$WORK/control.csv" "$WORK/control_uds.csv" >&2
            STATUS=1
        fi
    fi

    # 3. A malformed plan must fail loudly with the offending line.
    printf 'crash 1 2\nfrobnicate 0 0\n' >"$WORK/bad.plan"
    if "$DRIVER" --nodes 2 --jobs 1 --fault-plan "$WORK/bad.plan" \
        >"$WORK/bad.out" 2>&1; then
        echo "FAIL: malformed plan was accepted" >&2
        STATUS=1
    elif ! grep -q "line 2" "$WORK/bad.out"; then
        echo "FAIL: parse error does not name line 2:" >&2
        cat "$WORK/bad.out" >&2
        STATUS=1
    else
        echo "ok: malformed plan rejected with line number"
    fi

    # 4. A word after the last operand, and a count that is not one
    # whole number, fail the same way: fatal, naming the line.
    printf 'crash 1 2\ncrash 0 5 junk\n' >"$WORK/trailing.plan"
    expect_fatal "line 2" --fault-plan "$WORK/trailing.plan"
    printf '0 bzip2 gold\n100 bzip2 gold 12.5e3\n' >"$WORK/fraction.trace"
    expect_fatal "fraction.trace:2:" --trace "$WORK/fraction.trace"
}

# A bad plan or trace line is fatal (exit 1), naming the line.
expect_fatal() { # <needle> <cluster_driver args...>
    local needle=$1 rc=0
    shift
    "$DRIVER" --nodes 2 --jobs 1 "$@" >"$WORK/fatal.out" 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "FAIL: cluster_driver $* exited $rc (want 1)" >&2
        cat "$WORK/fatal.out" >&2
        STATUS=1
    elif ! grep -qF "$needle" "$WORK/fatal.out"; then
        echo "FAIL: cluster_driver $* does not name '$needle':" >&2
        cat "$WORK/fatal.out" >&2
        STATUS=1
    else
        echo "ok: cluster_driver $* refused at '$needle'"
    fi
}

case_dump() {
    run_fault_scenario fault
    "$DUMP" "$WORK/fault.trace.jsonl" >"$WORK/dump_summary.out" 2>&1 || {
        echo "FAIL: telemetry_dump summary exited non-zero" >&2
        exit 1
    }
    normalise <"$WORK/dump_summary.out" >"$WORK/dump_summary.norm"
    check dump_summary.txt "$WORK/dump_summary.norm"

    "$DUMP" "$WORK/fault.trace.jsonl" --faults >"$WORK/dump_faults.out" \
        2>&1 || {
        echo "FAIL: telemetry_dump --faults exited non-zero" >&2
        exit 1
    }
    normalise <"$WORK/dump_faults.out" >"$WORK/dump_faults.norm"
    check dump_faults.txt "$WORK/dump_faults.norm"
}

# Flag hygiene: unknown flags / commands must exit 2 with a usage
# message naming the offender, and --version must identify the build.
# Behavioural checks only -- usage text itself may evolve freely.
expect_usage_error() { # <label> <needle> <rc> <cmd...>
    local label=$1 needle=$2 want_rc=$3
    shift 3
    local rc=0
    "$@" >"$WORK/usage.out" 2>&1 || rc=$?
    if [ "$rc" -ne "$want_rc" ]; then
        echo "FAIL: $label exited $rc (want $want_rc)" >&2
        cat "$WORK/usage.out" >&2
        STATUS=1
    elif ! grep -qF "$needle" "$WORK/usage.out"; then
        echo "FAIL: $label output does not mention '$needle':" >&2
        cat "$WORK/usage.out" >&2
        STATUS=1
    elif [ "$want_rc" -ne 0 ] && ! grep -q "^usage:" "$WORK/usage.out"; then
        echo "FAIL: $label printed no usage text" >&2
        STATUS=1
    else
        echo "ok: $label"
    fi
}

# A bad flag value is refused before anything is built: exit 2 with a
# message naming the flag.
expect_refused() { # <flag> <cluster_driver args...>
    local flag=$1
    shift
    local rc=0
    "$DRIVER" "$@" >"$WORK/refused.out" 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: cluster_driver $* exited $rc (want 2)" >&2
        cat "$WORK/refused.out" >&2
        STATUS=1
    elif ! grep -qF -- "$flag" "$WORK/refused.out"; then
        echo "FAIL: cluster_driver $* does not name $flag:" >&2
        cat "$WORK/refused.out" >&2
        STATUS=1
    else
        echo "ok: cluster_driver $* refused"
    fi
}

case_usage() {
    [ -n "$QOSCTL" ] || {
        echo "usage case needs the qosctl path as the 4th argument" >&2
        exit 1
    }
    expect_usage_error "cluster_driver unknown flag" \
        "unknown option '--frobnicate'" 2 \
        "$DRIVER" --frobnicate
    expect_usage_error "qosctl unknown flag" \
        "unknown option '--frobnicate'" 2 \
        "$QOSCTL" --frobnicate
    expect_usage_error "qosctl unknown command" \
        "unknown command 'frobnicate'" 2 \
        "$QOSCTL" --socket /nonexistent frobnicate
    expect_usage_error "qosctl submit unknown flag" \
        "unknown option '--frobnicate'" 2 \
        "$QOSCTL" --socket /nonexistent submit --frobnicate
    expect_usage_error "cluster_driver --version" "cmpqos" 0 \
        "$DRIVER" --version
    expect_usage_error "qosctl --version" "cmpqos" 0 \
        "$QOSCTL" --version

    expect_refused --quantum --quantum 0
    expect_refused --nodes --nodes 0
    expect_refused --nodes --nodes eight
    expect_refused --elastic-x --elastic-x nan
    expect_refused --seed --seed abc
    expect_refused --mean-interarrival --mean-interarrival -5
    expect_refused --shards --shards 0
    expect_refused --shards --nodes 2 --shards 3
    expect_refused --threads --threads abc
    # Above the named maximum: refused before any thread is started.
    expect_refused --threads --threads 1025

    # Federation flags. A bogus transport is a fatal-style error (no
    # usage text, exit 1) naming the offender ...
    local rc=0
    "$DRIVER" --transport frobnicate >"$WORK/fed.out" 2>&1 || rc=$?
    if [ "$rc" -ne 1 ] ||
        ! grep -q "unknown transport 'frobnicate'" "$WORK/fed.out"; then
        echo "FAIL: bogus --transport exited $rc without naming it" >&2
        cat "$WORK/fed.out" >&2
        STATUS=1
    else
        echo "ok: cluster_driver bogus --transport"
    fi
    # ... and the accepted spellings run a federated engine end to
    # end, reporting the topology.
    if ! "$DRIVER" --nodes 2 --jobs 4 --quantum 500000 \
        --instructions 400000 --shards 2 --transport uds \
        >"$WORK/fed_run.out" 2>&1; then
        echo "FAIL: federated run via new flags failed" >&2
        cat "$WORK/fed_run.out" >&2
        STATUS=1
    elif ! grep -q "federation: 2 shards over uds transport" \
        "$WORK/fed_run.out"; then
        echo "FAIL: federated run did not report its topology" >&2
        cat "$WORK/fed_run.out" >&2
        STATUS=1
    else
        echo "ok: cluster_driver --shards/--transport run"
    fi
}

case "$CASE" in
    driver) case_driver ;;
    dump) case_dump ;;
    usage) case_usage ;;
    all)
        case_driver
        case_dump
        case_usage
        ;;
    *)
        echo "unknown case '$CASE' (want driver, dump, usage or all)" >&2
        exit 1
        ;;
esac

exit $STATUS
