#!/usr/bin/env bash
# End-to-end smoke for the federated engine: the same workload run
# single-process, federated in-process, and federated across spawned
# shard worker processes (UDS + --shard-bin) must produce one
# byte-identical fingerprint, drained and as a controller-on open-loop
# run; a link-fault chaos plan must stay deterministic for a fixed
# topology with the invariant oracle green.
#
# Usage: run_federation_smoke.sh <cluster_driver> <federation_shard>
set -u

DRIVER=${1:?usage: run_federation_smoke.sh <cluster_driver> <federation_shard>}
SHARD_BIN=${2:?missing federation_shard path}

work=$(mktemp -d "${TMPDIR:-/tmp}/cmpqos-federation-smoke.XXXXXX")
cleanup() { rm -rf "$work"; }
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

args="--nodes 8 --jobs 64 --seed 7 --check-invariants --fingerprint"

fp() { sed -n 's/^fingerprint //p'; }

# 1. Baseline: the plain single-process engine.
base=$("$DRIVER" $args --threads 2 | fp) || fail "baseline run failed"
[ -n "$base" ] || fail "baseline produced no fingerprint"

# 2. Federated in one process, both transports, odd shard split.
for transport in inproc uds; do
    got=$("$DRIVER" $args --threads 2 --shards 3 \
          --transport "$transport" | fp) ||
        fail "federated $transport run failed"
    [ "$got" = "$base" ] || fail "$transport fingerprint diverged
  base:      $base
  federated: $got"
done

# 3. Federated across real processes: four spawned shard workers.
got=$("$DRIVER" $args --threads 2 --shards 4 --transport uds \
      --shard-bin "$SHARD_BIN" | fp) ||
    fail "multi-process run failed"
[ "$got" = "$base" ] || fail "multi-process fingerprint diverged
  base:          $base
  multi-process: $got"

# 4. Open-loop, controller on: controllers step before every advance
#    the driver issues, so a run cut at a horizon retunes identically
#    single-process, federated in-process and across worker processes.
open_args="$args --threads 2 --duration 8000000 --control on"
open_base=$("$DRIVER" $open_args | fp) || fail "open-loop baseline failed"
[ -n "$open_base" ] || fail "open-loop baseline produced no fingerprint"
got=$("$DRIVER" $open_args --shards 3 | fp) ||
    fail "open-loop federated run failed"
[ "$got" = "$open_base" ] || fail "open-loop inproc fingerprint diverged
  base:      $open_base
  federated: $got"
got=$("$DRIVER" $open_args --shards 4 --transport uds \
      --shard-bin "$SHARD_BIN" | fp) ||
    fail "open-loop multi-process run failed"
[ "$got" = "$open_base" ] || fail "open-loop multi-process fingerprint diverged
  base:          $open_base
  multi-process: $got"

# 5. Link-fault chaos: drop/dup/delay/partition perturb admission
#    traffic (fingerprint may differ from base) but the run must be
#    deterministic for the fixed topology -- in-process threads=1 vs
#    spawned workers threads=4 -- and the oracle must stay green.
plan="$work/link.plan"
cat >"$plan" <<'EOF'
link-drop 0 1 2
link-dup 1 2 2
link-delay 0 3 2 150000
partition 1 2 1
crash 2 2
restart 2 4
EOF
chaos_args="$args --shards 2 --fault-plan $plan"
a=$("$DRIVER" $chaos_args --threads 1 --transport inproc \
    | tee "$work/chaos.out" | fp) || fail "chaos inproc run failed"
grep -q ", 0 violations" "$work/chaos.out" ||
    fail "chaos run reported invariant violations"
b=$("$DRIVER" $chaos_args --threads 4 --transport uds \
    --shard-bin "$SHARD_BIN" | fp) ||
    fail "chaos multi-process run failed"
[ "$a" = "$b" ] || fail "chaos fingerprint diverged across backends
  inproc:        $a
  multi-process: $b"

echo "federation smoke OK: single/inproc/uds/multi-process" \
     "byte-identical, drained and open-loop with the controller on;" \
     "link chaos deterministic, oracle green"
