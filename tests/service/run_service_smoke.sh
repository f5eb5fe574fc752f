#!/usr/bin/env bash
# End-to-end smoke for the admission service: boot qosd on a unix
# socket, push 10k submissions through qosctl, stream a few events to
# a subscriber, drain gracefully, then replay the journal with
# cluster_driver at 1, 2 and 4 threads and require each replay to
# reproduce the live run's fingerprint byte-identically (invariant
# oracle enabled on both sides). qosd runs with every replayed key off
# its default, so the journal's `# replay:` line carries every flag
# cluster_driver reads back.
#
# Usage: run_service_smoke.sh <qosd> <qosctl> <cluster_driver>
set -u

QOSD=${1:?usage: run_service_smoke.sh <qosd> <qosctl> <cluster_driver>}
QOSCTL=${2:?missing qosctl path}
DRIVER=${3:?missing cluster_driver path}

work=$(mktemp -d "${TMPDIR:-/tmp}/cmpqos-service-smoke.XXXXXX")
daemon_pid=
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null
    rm -rf "$work"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    if [ -n "$daemon_pid" ] && ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "qosd is no longer running; its stderr:" >&2
        cat "$work/qosd.err" >&2
    fi
    exit 1
}

sock="$work/qosd.sock"
journal_dir="$work/journal"

# Bad sizing values are refused before the socket or the journal
# exists, with a message naming what was wrong. The timeout ends a
# daemon that wrongly starts instead.
refused() { # <needle> <qosd args...>
    local needle=$1
    shift
    timeout 60 "$QOSD" --socket "$sock" --journal-dir "$journal_dir" "$@" \
        >"$work/refused.out" 2>&1 && fail "qosd $* was accepted"
    grep -qF -- "$needle" "$work/refused.out" ||
        fail "qosd $* does not name $needle: $(cat "$work/refused.out")"
    if [ -e "$sock" ] || [ -e "$journal_dir" ]; then
        fail "qosd $* was refused too late"
    fi
}
refused --threads --threads 1025
refused "5 shards" --nodes 4 --shards 5

"$QOSD" --socket "$sock" --journal-dir "$journal_dir" \
        --nodes 4 --quantum 200000 --instructions 100000 \
        --arrival-gap 20000 --threads 2 --quiet \
        --seed 7 --policy earliest-slot --no-negotiate \
        --elastic-x 0.125 --control on \
        2>"$work/qosd.err" &
daemon_pid=$!

# On a loaded machine (ctest -j, sanitizer builds) daemon start-up
# can outlast the clients' own connect-retry budget, so gate on the
# socket actually existing before dialling it.
for _ in $(seq 1 300); do
    [ -S "$sock" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || fail "qosd died at start-up"
    sleep 0.1
done
[ -S "$sock" ] || fail "daemon socket never appeared"

# The subscriber rides along while the submissions flow. Wait for
# its "subscribed" marker before submitting: events are only sent to
# sessions subscribed when they happen, so an unsequenced subscriber
# can miss the whole run and then see the shutdown as a reset
# connection.
"$QOSCTL" --socket "$sock" subscribe --max-events 5 \
    >"$work/events.out" 2>"$work/subscribe.err" &
subscriber_pid=$!
for _ in $(seq 1 300); do
    grep -q "^subscribed$" "$work/subscribe.err" 2>/dev/null && break
    kill -0 "$subscriber_pid" 2>/dev/null ||
        fail "subscriber died early: $(cat "$work/subscribe.err")"
    sleep 0.1
done
grep -q "^subscribed$" "$work/subscribe.err" ||
    fail "subscriber did not come up: $(cat "$work/subscribe.err")"

"$QOSCTL" --socket "$sock" submit --count 10000 --quiet \
    >"$work/submit.out" || fail "submit failed"
grep -q "^submitted 10000:" "$work/submit.out" ||
    fail "unexpected submit summary: $(cat "$work/submit.out")"

"$QOSCTL" --socket "$sock" status >"$work/status.out" ||
    fail "status failed"
grep -Eq "^submitted +10000$" "$work/status.out" ||
    fail "status does not show the submissions"

"$QOSCTL" --socket "$sock" drain --shutdown >"$work/drain.out" ||
    fail "drain failed"
live=$(sed -n 's/^fingerprint //p' "$work/drain.out")
[ -n "$live" ] || fail "no fingerprint in drain output"

wait "$daemon_pid" || fail "qosd exited non-zero after drain"
daemon_pid=
wait "$subscriber_pid" || fail "subscriber exited non-zero"
[ -s "$work/events.out" ] || fail "subscriber saw no events"

journal="$journal_dir/epoch-0000.trace"
[ -f "$journal" ] || fail "journal missing: $journal"
grep -q "^# end: 10000 submissions" "$journal" ||
    fail "journal not sealed with the submission count"

# Replay exactly what the journal header says (the cluster_driver
# binary under test substituted in), at several thread counts.
replay=$(sed -n 's/^# replay: cluster_driver //p' "$journal")
[ -n "$replay" ] || fail "no replay command in journal header"
for threads in 1 2 4; do
    # shellcheck disable=SC2086 # replay is a flag list by contract
    out=$("$DRIVER" $replay --threads "$threads") ||
        fail "replay at $threads threads failed"
    fp=$(printf '%s\n' "$out" | sed -n 's/^fingerprint //p')
    [ "$fp" = "$live" ] || fail "fingerprint diverged at $threads threads
  live:   $live
  replay: $fp"
done

echo "service smoke OK: 10000 submissions drained;" \
     "replay byte-identical at 1/2/4 threads"
