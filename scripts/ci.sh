#!/usr/bin/env bash
# Local CI gate: run this before sending a PR.
#
#   scripts/ci.sh            # release build + full test suite + clippy
#
# Mirrors what the tier-1 check runs (build + test at the workspace
# root), then adds the slower stages:
#   1. release-mode `--include-ignored` tests — the experiment smoke
#      tests, the suite determinism tests and the speed-ratio test
#      (`crates/bench/tests/speed_ratios.rs`: production vs frozen
#      event queue, traced vs untraced label-heavy simulation, each
#      ratio taken inside one run) are `#[ignore]`d because debug
#      builds make them slow or meaningless; they run here in release.
#      The speed-ratio test runs on its own with `--nocapture`, so every
#      log shows its four readings next to their floors,
#   2. a scenario-cache smoke: the quick suite runs twice into one
#      results directory; the second run must serve ≥90% of its
#      simulations from the cache, reproduce every artifact
#      byte-for-byte, and be ≥1.3x faster than the first,
#   3. a fixed-seed chaos soak: 200 random audited cases (random device
#      geometry x workload mix x fault plan) must all run with zero
#      invariant-auditor and validate() violations; a failure shrinks
#      to a JSON repro under results/repro/ replayable with
#      `hyperq repro`,
#   4. a service crash-recovery smoke: start `hyperq serve`, prove that
#      panicking and deadline-exceeded jobs come back as structured
#      errors while the server keeps serving, then `kill -9` it
#      mid-burst, restart with `--recover-only`, and require that the
#      journal replays the unfinished jobs and every accepted job's
#      artifact is byte-identical to a direct `run_scenario` rendering,
#   5. a group-commit gate: a standalone server with one-job dispatch
#      and a 200 µs group-commit window serves a warm 8-client loadgen
#      burst that must land strictly under one journal fsync per
#      accepted job, and a separate --verify burst proves served
#      artifacts stay byte-identical to direct runs (serving throughput
#      is not gated here: perfbench compares it change against parent),
#   6. a fleet failover smoke: start the TCP coordinator with three
#      supervised worker processes, drive a verified loadgen burst,
#      then a second burst that `kill -9`s a worker mid-burst — every
#      accepted job must still complete with artifacts byte-identical
#      to direct runs — and a SIGTERM drain that must seal every
#      shard's journal,
#   7. a multi-tenant overload gate: one paced tenant is measured solo,
#      then re-measured while a flooding tenant slams the same server
#      with cold jobs under a per-tenant queue quota. The paced
#      tenant's p99 must stay within 3x its solo baseline, the paced
#      tenant must see zero sheds and zero losses, the flood tenant
#      must see nonzero sheds (the quota actually bit), per-tenant
#      stats must show up in --status, and a kill -9 mid-backlog
#      followed by --recover-only must replay every accepted job with
#      artifacts byte-identical to direct runs — sheds never reach the
#      journal, accepted work always survives,
#   7b. a torture-and-scrub gate: a seeded `hyperq torture` soak runs
#      multi-tenant service bursts under joint host-I/O and network
#      fault plans (short writes, EINTR, fsync EIO, ENOSPC, torn
#      renames, bit flips, mid-frame disconnects, trickle reads, lost
#      accepted-acks) and must lose zero accepted jobs and dedup every
#      duplicate submit; then a clean store gets a cache entry and an
#      artifact byte-flipped, `hyperq scrub --repair` must heal both by
#      deterministic re-execution, a second verify-only `hyperq scrub`
#      must exit 0, and the repaired artifact must be byte-identical
#      to a direct rendering,
#   8. clippy with warnings denied (skipped with a notice when the
#      component is not installed, e.g. minimal toolchains).
#
# Every timed or served binary goes through fresh_bin first: `cargo
# build --release` has been observed to report success while leaving a
# stale binary behind; the guard compares the binary's mtime against
# the sources cargo built it from and forces a rebuild when it lags.

set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE_RESULTS=""
SMOKE_SNAP=""
SMOKE_LOG=""
SVC_DIR=""
SRV_PID=""
THR_DIR=""
THR_PID=""
FLEET_TMP=""
FLEET_PID=""
OVL_DIR=""
OVL_PID=""
FLOOD_PID=""
TOR_DIR=""
SCRUB_DIR=""
SCRUB_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
    [ -n "$THR_PID" ] && kill -9 "$THR_PID" 2>/dev/null || true
    [ -n "$OVL_PID" ] && kill -9 "$OVL_PID" 2>/dev/null || true
    [ -n "$FLOOD_PID" ] && kill -9 "$FLOOD_PID" 2>/dev/null || true
    [ -n "$SCRUB_PID" ] && kill -9 "$SCRUB_PID" 2>/dev/null || true
    if [ -n "$FLEET_PID" ]; then
        kill -9 "$FLEET_PID" 2>/dev/null || true
        # The coordinator's workers survive a kill -9 of their parent.
        for pf in "$FLEET_TMP"/fleet/shard-*/worker.pid; do
            [ -f "$pf" ] && kill -9 "$(cat "$pf")" 2>/dev/null || true
        done
    fi
    [ -n "$SMOKE_RESULTS" ] && rm -rf "$SMOKE_RESULTS"
    [ -n "$SMOKE_SNAP" ] && rm -rf "$SMOKE_SNAP"
    [ -n "$SMOKE_LOG" ] && rm -f "$SMOKE_LOG"
    [ -n "$SVC_DIR" ] && rm -rf "$SVC_DIR"
    [ -n "$FLEET_TMP" ] && rm -rf "$FLEET_TMP"
    [ -n "$OVL_DIR" ] && rm -rf "$OVL_DIR"
    [ -n "$TOR_DIR" ] && rm -rf "$TOR_DIR"
    [ -n "$SCRUB_DIR" ] && rm -rf "$SCRUB_DIR"
    true
}
trap cleanup EXIT

# Is target/release/$1 missing, without cargo's dep-info file
# (target/release/$1.d), or older than a source that file lists? Only
# the binary's own sources count: cargo leaves an unchanged binary with
# its old mtime, so a test or another binary's source edited since
# must not read as staleness.
bin_is_stale() {
    local path="target/release/$1" dep="target/release/$1.d" src
    { [ -f "$path" ] && [ -f "$dep" ]; } || return 0
    for src in $(sed 's/^[^:]*://' "$dep"); do
        [ "$src" -nt "$path" ] && return 0
    done
    return 1
}

# Guard against the stale-release-binary trap: build the specific bin,
# then require it to be newer than every source it is built from; if
# not, delete it and rebuild once, failing hard if it is still stale.
fresh_bin() {
    local pkg="$1" bin="$2"
    cargo build --release -q -p "$pkg" --bin "$bin"
    if bin_is_stale "$bin"; then
        echo "stale release binary $bin detected; forcing a rebuild"
        rm -f "target/release/$bin"
        cargo build --release -q -p "$pkg" --bin "$bin"
        if bin_is_stale "$bin"; then
            echo "FAIL: $bin is still older than its sources after a forced rebuild"
            exit 1
        fi
    fi
}

# Pull one flat numeric field out of a loadgen --json report. A missing
# or non-numeric field fails the run, naming the file and key, rather
# than reading as an empty string that awk would compare as 0.
jfield() {
    local v
    v="$(sed -n "s/^  \"$2\": \([0-9.]*\),\{0,1\}\$/\1/p" "$1")"
    [ -n "$v" ] || { echo "FAIL: $1 has no numeric field \"$2\"" >&2; exit 1; }
    echo "$v"
}

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --workspace --release -q -- --include-ignored"
cargo test --workspace --release -q -- --include-ignored \
    --skip speed_ratios_hold_against_in_process_references

echo "==> speed ratios (release, each next to its floor)"
cargo test --release -q -p hq-bench --test speed_ratios -- --include-ignored --nocapture

echo "==> scenario-cache smoke (quick suite cold, then warm)"
fresh_bin hq-bench all_experiments
SMOKE_RESULTS="$(mktemp -d)"
SMOKE_SNAP="$(mktemp -d)"
SMOKE_LOG="$(mktemp)"
T0=$(date +%s%N)
HQ_RESULTS="$SMOKE_RESULTS" target/release/all_experiments --quick >/dev/null
T1=$(date +%s%N)
cp "$SMOKE_RESULTS"/*.md "$SMOKE_RESULTS"/*.csv "$SMOKE_SNAP"/
T2=$(date +%s%N)
HQ_RESULTS="$SMOKE_RESULTS" target/release/all_experiments --quick >/dev/null 2>"$SMOKE_LOG"
T3=$(date +%s%N)
# The warm run must be faster than the cold one by the same margin the
# scenario cache has always had to show (cold/warm ≥ 1.3), both timed
# here on the same box.
awk -v c=$((T1 - T0)) -v w=$((T3 - T2)) 'BEGIN {
    printf "cold run %.3f s, warm run %.3f s (%.1fx)\n", c / 1e9, w / 1e9, c / w;
    if (c < 1.3 * w) { print "FAIL: warm-cache rerun is not 1.3x faster than the cold run"; exit 1 }
}'
# The warm run must be served almost entirely from the scenario cache
# (the counters land on stderr as "scenario cache: H hits, M misses").
awk '/^scenario cache:/ {
    h = $3 + 0; m = $5 + 0;
    printf "warm run: %d hits, %d misses\n", h, m;
    if (h + m == 0 || h < 0.9 * (h + m)) { print "FAIL: warm-run cache hit rate below 90%"; exit 1 }
    found = 1
}
END { if (!found) { print "FAIL: no scenario-cache counter line in warm-run stderr"; exit 1 } }' "$SMOKE_LOG"
for f in "$SMOKE_SNAP"/*; do
    cmp "$f" "$SMOKE_RESULTS/$(basename "$f")" \
        || { echo "FAIL: artifact $(basename "$f") differs between cold and warm-cache runs"; exit 1; }
done
echo "warm-cache rerun reproduced every artifact byte-for-byte"

echo "==> chaos soak (200 cases, seed 7)"
fresh_bin hyperq-repro hyperq
HQ=target/release/hyperq
"$HQ" chaos --cases 200 --seed 7

echo "==> service crash-recovery smoke"
SVC_DIR="$(mktemp -d)"
SOCK="$SVC_DIR/hq.sock"
HQ_RESULTS="$SVC_DIR" "$HQ" serve --socket "$SOCK" --workers 1 --queue-depth 16 \
    >"$SVC_DIR/serve.log" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "FAIL: server never bound $SOCK"; cat "$SVC_DIR/serve.log"; exit 1; }

# Structured failures must come back as answers, not connection drops.
PANIC_OUT="$(HQ_RESULTS="$SVC_DIR" "$HQ" submit --socket "$SOCK" -w needle --panic)"
echo "$PANIC_OUT" | grep -q "panicked" \
    || { echo "FAIL: scripted panic did not answer 'panicked': $PANIC_OUT"; exit 1; }
# A 1 ms deadline behind a pinned worker expires while queued. (The
# admission forecaster only sheds classes it has served before; this
# signature is first-contact, so the job is accepted and then expires —
# --deadline-ms 0 is now a parse-time usage error.)
HQ_RESULTS="$SVC_DIR" "$HQ" submit --socket "$SOCK" --no-wait -w "gaussian*4+srad*4" --streams 8 --seed 50 >/dev/null
DEADLINE_OUT="$(HQ_RESULTS="$SVC_DIR" "$HQ" submit --socket "$SOCK" -w needle --deadline-ms 1 --seed 5)"
echo "$DEADLINE_OUT" | grep -q "deadline-exceeded" \
    || { echo "FAIL: 1 ms deadline did not answer 'deadline-exceeded': $DEADLINE_OUT"; exit 1; }
RC=0; "$HQ" submit --socket "$SOCK" -w needle --deadline-ms 0 >/dev/null 2>&1 || RC=$?
[ "$RC" = 2 ] || { echo "FAIL: --deadline-ms 0 must be a usage error (exit 2), got $RC"; exit 1; }
# ... and the server keeps serving afterwards.
OK_OUT="$(HQ_RESULTS="$SVC_DIR" "$HQ" submit --socket "$SOCK" -w gaussian+needle --streams 4 --seed 9)"
echo "$OK_OUT" | grep -q "^job [0-9]*: ok" \
    || { echo "FAIL: healthy job after failures did not succeed: $OK_OUT"; exit 1; }
ART="$(echo "$OK_OUT" | sed -n 's/^artifact: //p')"
HQ_RESULTS="$SVC_DIR" "$HQ" submit --direct -w gaussian+needle --streams 4 --seed 9 >"$SVC_DIR/direct.tmp"
cmp "$ART" "$SVC_DIR/direct.tmp" \
    || { echo "FAIL: served artifact differs from direct run"; exit 1; }

# Burst: one heavy job pins the single worker, light jobs queue behind
# it, and kill -9 lands mid-burst — the journal must carry them all.
HEAVY_WL="gaussian*6+srad*6"
HQ_RESULTS="$SVC_DIR" "$HQ" submit --socket "$SOCK" --no-wait -w "$HEAVY_WL" --streams 16 --seed 100 >/dev/null
for s in 101 102 103 104 105; do
    HQ_RESULTS="$SVC_DIR" "$HQ" submit --socket "$SOCK" --no-wait -w gaussian+needle --streams 4 --seed "$s" >/dev/null
done
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""

REC_OUT="$(HQ_RESULTS="$SVC_DIR" "$HQ" serve --socket "$SOCK" --recover-only 2>/dev/null)"
echo "$REC_OUT" | head -1
REPLAYED="$(printf '%s\n' "$REC_OUT" | sed -n 's/^recovery: replayed \([0-9]*\) job(s).*/\1/p')"
[ -n "$REPLAYED" ] || { echo "FAIL: no recovery summary in: $REC_OUT"; exit 1; }
[ "$REPLAYED" -ge 1 ] || { echo "FAIL: kill -9 mid-burst left nothing to replay"; exit 1; }

# Every burst job's artifact must be byte-identical to a direct
# rendering of the same spec, whether it ran before the crash or was
# replayed from the journal after it.
check_artifact() {
    local wl="$1" streams="$2" seed="$3" f
    HQ_RESULTS="$SVC_DIR" "$HQ" submit --direct -w "$wl" --streams "$streams" --seed "$seed" >"$SVC_DIR/direct.tmp"
    for f in "$SVC_DIR"/service/job-*.out; do
        cmp -s "$f" "$SVC_DIR/direct.tmp" && return 0
    done
    echo "FAIL: no served artifact matches direct run of -w $wl --streams $streams --seed $seed"
    return 1
}
check_artifact "$HEAVY_WL" 16 100
for s in 101 102 103 104 105; do
    check_artifact gaussian+needle 4 "$s"
done
# A second recovery pass finds nothing left to do.
REC2="$(HQ_RESULTS="$SVC_DIR" "$HQ" serve --socket "$SOCK" --recover-only 2>/dev/null)"
printf '%s\n' "$REC2" | grep -q "^recovery: replayed 0 job(s)" \
    || { echo "FAIL: second recovery pass was not idempotent: $REC2"; exit 1; }
echo "crash recovery replayed $REPLAYED job(s); all burst artifacts byte-identical to direct runs"

echo "==> group-commit gate (one-job dispatch + group-commit journal)"
fresh_bin hq-bench loadgen
# The throughput server's journal and artifacts live on tmpfs when the
# box has one: the CI VM's block device meters fsyncs through a
# burst-credit IOPS bucket, so on-disk serving throughput measures the
# hypervisor's token refill rate (4x run-to-run spread on an idle
# box), not the serving path. tmpfs keeps the syscall and coalescing
# behaviour — the fsync ratio is unchanged — with
# run-to-run spread under 10%. Durability itself is proven by the
# crash-recovery smoke above and the journal test suite, on disk.
THR_DIR="$(mktemp -d -p /dev/shm 2>/dev/null || mktemp -d)"
THR_SOCK="$THR_DIR/hq.sock"
HQ_RESULTS="$THR_DIR" "$HQ" serve --socket "$THR_SOCK" --workers 2 --queue-depth 64 \
    >"$THR_DIR/serve.log" 2>&1 &
THR_PID=$!
for _ in $(seq 1 100); do [ -S "$THR_SOCK" ] && break; sleep 0.1; done
[ -S "$THR_SOCK" ] || { echo "FAIL: throughput server never bound $THR_SOCK"; cat "$THR_DIR/serve.log"; exit 1; }

# Warmup burst primes the scenario cache for loadgen's default seed
# pool; the measured burst then exercises the pure serving hot path.
HQ_RESULTS="$THR_DIR" target/release/loadgen --socket "$THR_SOCK" \
    --jobs 32 --conns 8 >/dev/null

# One warm 8-client burst. It runs without --verify, so concurrent
# accepts arrive as fast as the server takes them and the commit
# window can coalesce their fsyncs; fidelity gets its own burst below.
HQ_RESULTS="$THR_DIR" target/release/loadgen --socket "$THR_SOCK" \
    --jobs 640 --conns 8 --json "$THR_DIR/burst.json"

# Verified burst: every artifact the server renders must be
# byte-identical to a direct run — loadgen exits non-zero on any lost
# or diverging job.
HQ_RESULTS="$THR_DIR" target/release/loadgen --socket "$THR_SOCK" \
    --jobs 64 --conns 8 --verify >/dev/null \
    || { echo "FAIL: served artifacts diverge from direct runs"; exit 1; }

# Group commit must actually bite under the 8-client burst: strictly
# fewer than one journal fsync per accepted job.
THR_FSY="$(jfield "$THR_DIR/burst.json" fsyncs_per_accept)"
awk -v f="$THR_FSY" 'BEGIN {
    if (f == "" || f + 0 >= 1.0) {
        printf "FAIL: %s fsyncs per accept is not < 1 under the 8-client burst\n", f; exit 1
    }
}'
HQ_RESULTS="$THR_DIR" "$HQ" submit --socket "$THR_SOCK" --shutdown >/dev/null 2>&1 || kill "$THR_PID" 2>/dev/null || true
wait "$THR_PID" 2>/dev/null || true
THR_PID=""
echo "group-commit gate: fsyncs/accept $THR_FSY"

echo "==> fleet failover smoke (3 workers, kill -9 mid-burst)"
FLEET_TMP="$(mktemp -d)"
FLEET_DIR="$FLEET_TMP/fleet"
HQ_RESULTS="$FLEET_TMP/coord-results" "$HQ" serve --tcp 127.0.0.1:0 --fleet 3 \
    --fleet-dir "$FLEET_DIR" --heartbeat-ms 100 \
    >"$FLEET_TMP/fleet.log" 2>&1 &
FLEET_PID=$!
for _ in $(seq 1 300); do [ -s "$FLEET_DIR/addr" ] && break; sleep 0.1; done
[ -s "$FLEET_DIR/addr" ] || { echo "FAIL: coordinator never published its address"; cat "$FLEET_TMP/fleet.log"; exit 1; }
ADDR="$(cat "$FLEET_DIR/addr")"

# Healthy burst: every accepted job completes with artifacts
# byte-identical to direct runs, or loadgen exits 1.
HQ_RESULTS="$FLEET_TMP/client-results" target/release/loadgen --tcp "$ADDR" \
    --jobs 48 --conns 4 --verify \
    || { echo "FAIL: healthy fleet burst lost or diverged jobs"; cat "$FLEET_TMP/fleet.log"; exit 1; }

# Chaos burst: kill -9 one worker after the 5th completion. Zero
# accepted-job loss and byte-identical artifacts, or loadgen exits 1.
HQ_RESULTS="$FLEET_TMP/client-results" target/release/loadgen --tcp "$ADDR" \
    --jobs 40 --conns 4 --verify \
    --kill-pidfile "$FLEET_DIR/shard-1/worker.pid" --kill-after 5 \
    || { echo "FAIL: jobs lost or diverged across a mid-burst worker crash"; cat "$FLEET_TMP/fleet.log"; exit 1; }
grep -q "restarting shard-1 in place" "$FLEET_TMP/fleet.log" \
    || { echo "FAIL: supervisor never restarted the killed worker"; cat "$FLEET_TMP/fleet.log"; exit 1; }

# Graceful drain: SIGTERM must seal every shard's journal and reap all
# worker processes before the coordinator exits 0.
kill -TERM "$FLEET_PID"
FLEET_OK=0
for _ in $(seq 1 600); do
    if ! kill -0 "$FLEET_PID" 2>/dev/null; then FLEET_OK=1; break; fi
    sleep 0.1
done
[ "$FLEET_OK" = 1 ] || { echo "FAIL: coordinator did not drain after SIGTERM"; cat "$FLEET_TMP/fleet.log"; exit 1; }
wait "$FLEET_PID" 2>/dev/null || { echo "FAIL: coordinator exited non-zero"; cat "$FLEET_TMP/fleet.log"; exit 1; }
FLEET_PID=""
grep -q "drained, workers sealed and reaped" "$FLEET_TMP/fleet.log" \
    || { echo "FAIL: no drain summary in coordinator log"; cat "$FLEET_TMP/fleet.log"; exit 1; }
for shard in shard-0 shard-1 shard-2; do
    tail -1 "$FLEET_DIR/$shard/journal/service.wal" | awk -v s="$shard" \
        '{ if ($2 != "S") { print "FAIL: " s " journal not sealed (last record type " $2 ")"; exit 1 } }' \
        || exit 1
done
echo "fleet smoke: healthy burst verified, mid-burst crash lost nothing, all journals sealed"

echo "==> multi-tenant overload gate (flood vs paced, kill -9 mid-backlog)"
OVL_DIR="$(mktemp -d)"
OVL_SOCK="$OVL_DIR/hq.sock"
HQ_RESULTS="$OVL_DIR" "$HQ" serve --socket "$OVL_SOCK" --workers 2 --queue-depth 32 \
    --tenant-max-queued 4 \
    >"$OVL_DIR/serve.log" 2>&1 &
OVL_PID=$!
for _ in $(seq 1 100); do [ -S "$OVL_SOCK" ] && break; sleep 0.1; done
[ -S "$OVL_SOCK" ] || { echo "FAIL: overload server never bound $OVL_SOCK"; cat "$OVL_DIR/serve.log"; exit 1; }

# Phase 0: the paced tenant alone, cold seeds — the latency baseline.
HQ_RESULTS="$OVL_DIR" target/release/loadgen --socket "$OVL_SOCK" --tenant paced \
    --jobs 20 --conns 1 --pace-ms 2 --seed 9000 --seed-pool 100000 --verify \
    --json "$OVL_DIR/solo.json" >/dev/null
# Phase 1: a flooding tenant slams the server with distinct cold jobs
# over more connections than its quota admits (--allow-shed: it takes
# each shed as the answer), while the paced tenant re-runs fresh cold
# seeds. The flood must shed; the paced tenant must not notice.
HQ_RESULTS="$OVL_DIR" target/release/loadgen --socket "$OVL_SOCK" --tenant flood \
    --allow-shed --jobs 6000 --conns 8 --seed 50000 --seed-pool 100000 \
    --json "$OVL_DIR/flood.json" >/dev/null 2>&1 &
FLOOD_PID=$!
sleep 0.3
HQ_RESULTS="$OVL_DIR" target/release/loadgen --socket "$OVL_SOCK" --tenant paced \
    --jobs 20 --conns 1 --pace-ms 2 --seed 12000 --seed-pool 100000 --verify \
    --json "$OVL_DIR/paced.json" >/dev/null
STATUS_OUT="$(HQ_RESULTS="$OVL_DIR" "$HQ" submit --socket "$OVL_SOCK" --status)"
wait "$FLOOD_PID" || { echo "FAIL: flood loadgen lost accepted jobs"; exit 1; }
FLOOD_PID=""

SOLO_P99="$(jfield "$OVL_DIR/solo.json" p99_ms)"
PACED_P99="$(jfield "$OVL_DIR/paced.json" p99_ms)"
PACED_FAIL="$(jfield "$OVL_DIR/paced.json" failures)"
PACED_SHED="$(jfield "$OVL_DIR/paced.json" shed)"
FLOOD_SHED="$(jfield "$OVL_DIR/flood.json" shed)"
echo "overload: solo p99 ${SOLO_P99} ms, contended p99 ${PACED_P99} ms, flood shed ${FLOOD_SHED}"
[ "$PACED_FAIL" = 0 ] || { echo "FAIL: paced tenant lost $PACED_FAIL job(s) under flood"; exit 1; }
[ "$PACED_SHED" = 0 ] || { echo "FAIL: paced tenant was shed $PACED_SHED time(s) despite staying under quota"; exit 1; }
awk -v shed="$FLOOD_SHED" 'BEGIN { if (shed + 0 < 1) { print "FAIL: flood tenant was never shed — quota did not bite"; exit 1 } }'
awk -v solo="$SOLO_P99" -v contended="$PACED_P99" 'BEGIN {
    floor = solo; if (floor < 50) floor = 50;
    if (contended > 3 * floor) {
        printf "FAIL: paced p99 %.3f ms exceeds 3x solo baseline %.3f ms\n", contended, floor; exit 1
    }
}'
grep -q "^tenant flood: .* shed [1-9]" <<<"$STATUS_OUT" \
    || { echo "FAIL: --status has no flood tenant shed line: $STATUS_OUT"; exit 1; }
grep -q "^tenant paced: .* shed 0" <<<"$STATUS_OUT" \
    || { echo "FAIL: --status has no clean paced tenant line: $STATUS_OUT"; exit 1; }

# Phase 2: accepted multi-tenant backlog survives kill -9. Two heavy
# jobs pin both workers, lights from two tenants queue behind them
# (each inside its 4-deep tenant quota), and the crash lands with the
# backlog in the journal. Accepted ids are captured so each artifact
# can be checked by id after replay.
OVL_HEAVY="gaussian*6+srad*6"
OVL_JOBS=()
ovl_submit() {
    local tenant="$1" wl="$2" streams="$3" seed="$4" out id
    out="$(HQ_RESULTS="$OVL_DIR" "$HQ" submit --socket "$OVL_SOCK" --no-wait \
        --tenant "$tenant" -w "$wl" --streams "$streams" --seed "$seed")"
    id="${out#accepted job }"
    { [ -n "$id" ] && [ "$id" != "$out" ]; } \
        || { echo "FAIL: backlog submit for $tenant seed $seed not accepted: $out"; exit 1; }
    OVL_JOBS+=("$id $wl $streams $seed")
}
ovl_submit acme "$OVL_HEAVY" 16 200
ovl_submit globex "$OVL_HEAVY" 16 210
for s in 201 202 203; do ovl_submit acme gaussian+needle 4 "$s"; done
for s in 204 205 206; do ovl_submit globex gaussian+needle 4 "$s"; done
kill -9 "$OVL_PID"
wait "$OVL_PID" 2>/dev/null || true
OVL_PID=""

INSPECT_OUT="$("$HQ" journal inspect "$OVL_DIR/journal/service.wal")"
grep -q "^tenant acme:" <<<"$INSPECT_OUT" \
    || { echo "FAIL: journal inspect lost tenant acme: $INSPECT_OUT"; exit 1; }
grep -q "^tenant globex:" <<<"$INSPECT_OUT" \
    || { echo "FAIL: journal inspect lost tenant globex: $INSPECT_OUT"; exit 1; }
grep -q "sealed=no" <<<"$INSPECT_OUT" \
    || { echo "FAIL: kill -9 left a sealed journal?: $INSPECT_OUT"; exit 1; }

OVL_REC="$(HQ_RESULTS="$OVL_DIR" "$HQ" serve --socket "$OVL_SOCK" --recover-only 2>/dev/null)"
OVL_REPLAYED="$(printf '%s\n' "$OVL_REC" | sed -n 's/^recovery: replayed \([0-9]*\) job(s).*/\1/p')"
[ -n "$OVL_REPLAYED" ] && [ "$OVL_REPLAYED" -ge 1 ] \
    || { echo "FAIL: overload kill -9 left nothing to replay: $OVL_REC"; exit 1; }
# Tenancy never leaks into the simulation: every replayed artifact
# must be byte-identical to a tenant-less --direct rendering.
for job in "${OVL_JOBS[@]}"; do
    set -- $job
    id="$1" wl="$2" streams="$3" seed="$4"
    HQ_RESULTS="$OVL_DIR" "$HQ" submit --direct -w "$wl" --streams "$streams" --seed "$seed" >"$OVL_DIR/direct.tmp"
    cmp "$OVL_DIR/service/job-$id.out" "$OVL_DIR/direct.tmp" \
        || { echo "FAIL: job $id (-w $wl --streams $streams --seed $seed) diverges from direct run"; exit 1; }
done
echo "overload gate: paced p99 held under flood, $OVL_REPLAYED job(s) replayed, all tenant artifacts byte-identical"

echo "==> torture soak (joint I/O + network fault plans, seed 11)"
TOR_DIR="$(mktemp -d)"
# Each case runs a real server on a unix socket under a per-case fault
# plan; the harness itself enforces zero accepted-job loss, duplicate
# dedup, journal durability and a clean scrub --repair, exiting 1 with
# a shrunk JSON repro on the first violation.
HQ_RESULTS="$TOR_DIR" "$HQ" torture --cases 15 --seed 11 --repro-dir "$TOR_DIR/repro" \
    || { echo "FAIL: torture soak violated an invariant"; cat "$TOR_DIR"/repro/torture-*.json 2>/dev/null; exit 1; }

echo "==> scrub self-healing gate (byte-flip cache entry + artifact, repair, re-verify)"
# XOR one byte in place: guaranteed to actually change the file, unlike
# overwriting with a constant that might already be there.
flip_byte() {
    python3 -c '
import sys
path, off = sys.argv[1], int(sys.argv[2])
with open(path, "r+b") as f:
    data = bytearray(f.read())
    data[off % len(data)] ^= 0x41
    f.seek(0)
    f.write(data)
' "$1" "$2"
}
SCRUB_DIR="$(mktemp -d)"
SCRUB_SOCK="$SCRUB_DIR/hq.sock"
HQ_RESULTS="$SCRUB_DIR" "$HQ" serve --socket "$SCRUB_SOCK" --workers 1 --queue-depth 16 \
    >"$SCRUB_DIR/serve.log" 2>&1 &
SCRUB_PID=$!
for _ in $(seq 1 100); do [ -S "$SCRUB_SOCK" ] && break; sleep 0.1; done
[ -S "$SCRUB_SOCK" ] || { echo "FAIL: scrub server never bound $SCRUB_SOCK"; cat "$SCRUB_DIR/serve.log"; exit 1; }
SCRUB_ART0="$(HQ_RESULTS="$SCRUB_DIR" "$HQ" submit --socket "$SCRUB_SOCK" -w gaussian+needle --streams 4 --seed 300 | sed -n 's/^artifact: //p')"
SCRUB_ART1="$(HQ_RESULTS="$SCRUB_DIR" "$HQ" submit --socket "$SCRUB_SOCK" -w gaussian+needle --streams 4 --seed 301 | sed -n 's/^artifact: //p')"
[ -s "$SCRUB_ART0" ] && [ -s "$SCRUB_ART1" ] \
    || { echo "FAIL: scrub-gate submits produced no artifacts"; cat "$SCRUB_DIR/serve.log"; exit 1; }
HQ_RESULTS="$SCRUB_DIR" "$HQ" submit --socket "$SCRUB_SOCK" --shutdown >/dev/null
wait "$SCRUB_PID" 2>/dev/null || true
SCRUB_PID=""

HQ_RESULTS="$SCRUB_DIR" "$HQ" scrub >/dev/null \
    || { echo "FAIL: pristine store does not scrub clean"; exit 1; }
SCRUB_CACHE="$(ls "$SCRUB_DIR"/.scenario-cache/*.v2 | head -1)"
[ -s "$SCRUB_CACHE" ] || { echo "FAIL: no scenario-cache entry to corrupt"; exit 1; }
flip_byte "$SCRUB_ART0" 7
flip_byte "$SCRUB_CACHE" 40
RC=0; HQ_RESULTS="$SCRUB_DIR" "$HQ" scrub >/dev/null 2>&1 || RC=$?
[ "$RC" = 1 ] || { echo "FAIL: verify-only scrub must exit 1 on a damaged store (got $RC)"; exit 1; }
HQ_RESULTS="$SCRUB_DIR" "$HQ" scrub --repair \
    || { echo "FAIL: scrub --repair left unresolved damage"; exit 1; }
# Self-healing contract: after one repair pass, a verify-only scrub
# finds nothing — and the regenerated artifact is byte-identical to a
# direct rendering of the journaled spec.
HQ_RESULTS="$SCRUB_DIR" "$HQ" scrub >/dev/null \
    || { echo "FAIL: store still damaged after scrub --repair"; exit 1; }
for s in 300 301; do
    HQ_RESULTS="$SCRUB_DIR" "$HQ" submit --direct -w gaussian+needle --streams 4 --seed "$s" >"$SCRUB_DIR/direct.tmp"
    art="$SCRUB_ART0"; [ "$s" = 301 ] && art="$SCRUB_ART1"
    cmp "$art" "$SCRUB_DIR/direct.tmp" \
        || { echo "FAIL: repaired artifact for seed $s diverges from direct run"; exit 1; }
done
echo "scrub gate: corruption detected, repaired by re-execution, second scrub clean"

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint (rustup component add clippy)"
fi

echo "==> ci.sh: all checks passed"
