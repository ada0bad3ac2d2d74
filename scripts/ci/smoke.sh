#!/usr/bin/env bash
# End-to-end CLI smoke: a SHARDED multi-process campaign must produce
# byte-identical evaluation tables to the direct single-process run, and
# the archives it streams must replay to the same table through
# cmd/evaluate (plain and sharded replay) — binary archives directly,
# JSONL ones after evaluate -index converts a copy (replay refuses a
# JSONL file). This drives the bit-identity guarantee through the real
# binaries — subprocess workers, pipes, both archive codecs — instead of
# only through unit tests.
set -euo pipefail

cd "$(dirname "$0")/../.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

DEVICES=4 MONTHS=3 WINDOW=60

echo "== building CLIs"
go build -o "$workdir/agingtest" ./cmd/agingtest
go build -o "$workdir/shardworker" ./cmd/shardworker
go build -o "$workdir/evaluate" ./cmd/evaluate
go build -o "$workdir/figures" ./cmd/figures

# extract_table prints the Table I block of a run's output.
extract_table() {
    grep -A 12 'EVALUATION RESULT OF SRAM PUF QUALITIES' "$1"
}

echo "== direct single-process run (rig path)"
"$workdir/agingtest" -devices $DEVICES -months $MONTHS -window $WINDOW \
    -harness > "$workdir/direct.txt"
extract_table "$workdir/direct.txt" > "$workdir/direct.table"

echo "== rig path with every capture on the event loop (-workers 1)"
"$workdir/agingtest" -devices $DEVICES -months $MONTHS -window $WINDOW \
    -harness -workers 1 > "$workdir/rig-serial.txt"
extract_table "$workdir/rig-serial.txt" > "$workdir/rig-serial.table"
diff -u "$workdir/direct.table" "$workdir/rig-serial.table"

echo "== Fig. 3: rig power waveforms keep the paper's 3.8 s on / 1.6 s off"
"$workdir/figures" -fig 3 > "$workdir/fig3.txt"
for ch in S3 S4 S11 S12; do
    grep -qE "^  $ch +measured period: 5\.40 s, on-time: 3\.80 s$" "$workdir/fig3.txt" || {
        echo "Fig. 3 lacks '$ch measured period: 5.40 s, on-time: 3.80 s':" >&2
        cat "$workdir/fig3.txt" >&2
        exit 1
    }
done

echo "== sharded run: 2 shardworker subprocesses, archive streamed"
"$workdir/agingtest" -devices $DEVICES -months $MONTHS -window $WINDOW \
    -shards 2 -shardworker "$workdir/shardworker" \
    -archive "$workdir/campaign.jsonl" > "$workdir/sharded.txt"
extract_table "$workdir/sharded.txt" > "$workdir/sharded.table"

echo "== comparing sharded table to the direct run"
diff -u "$workdir/direct.table" "$workdir/sharded.table"

echo "== archive sanity: records per board"
lines=$(wc -l < "$workdir/campaign.jsonl")
want=$((DEVICES * (MONTHS + 1) * WINDOW))
if [ "$lines" -ne "$want" ]; then
    echo "archive has $lines records, want $want" >&2
    exit 1
fi

echo "== replay refuses a JSONL archive without -index, naming -index"
if "$workdir/evaluate" -archive "$workdir/campaign.jsonl" -window $WINDOW \
    > "$workdir/replay-jsonl.txt" 2>&1; then
    echo "evaluate replayed a JSONL archive without -index" >&2
    exit 1
fi
grep -q -- '-index' "$workdir/replay-jsonl.txt" || {
    echo "evaluate's JSONL refusal does not name -index:" >&2
    cat "$workdir/replay-jsonl.txt" >&2
    exit 1
}

echo "== replaying the sharded archive: evaluate -index on a copy, then replay"
cp "$workdir/campaign.jsonl" "$workdir/replay-copy.jsonl"
"$workdir/evaluate" -index -archive "$workdir/replay-copy.jsonl" -window $WINDOW \
    > "$workdir/replay.txt"
extract_table "$workdir/replay.txt" > "$workdir/replay.table"
diff -u "$workdir/direct.table" "$workdir/replay.table"

echo "== sharded replay (2 shardworker subprocesses) of the same archive: -index on a copy, then replay"
cp "$workdir/campaign.jsonl" "$workdir/replay-sharded-copy.jsonl"
"$workdir/evaluate" -index -archive "$workdir/replay-sharded-copy.jsonl" -window $WINDOW \
    -shards 2 -shardworker "$workdir/shardworker" > "$workdir/replay-sharded.txt"
extract_table "$workdir/replay-sharded.txt" > "$workdir/replay-sharded.table"
diff -u "$workdir/direct.table" "$workdir/replay-sharded.table"

echo "== sharded run again, streaming a BINARY archive (.bin)"
"$workdir/agingtest" -devices $DEVICES -months $MONTHS -window $WINDOW \
    -shards 2 -shardworker "$workdir/shardworker" \
    -archive "$workdir/campaign.bin" > "$workdir/sharded-bin.txt"
extract_table "$workdir/sharded-bin.txt" > "$workdir/sharded-bin.table"
diff -u "$workdir/direct.table" "$workdir/sharded-bin.table"

echo "== binary archive sanity: magic present, smaller than the JSONL archive"
head -c 6 "$workdir/campaign.bin" | grep -q 'SRPUFA' || {
    echo "campaign.bin does not start with the binary archive magic" >&2
    exit 1
}
jsonl_size=$(wc -c < "$workdir/campaign.jsonl")
bin_size=$(wc -c < "$workdir/campaign.bin")
if [ $((bin_size * 2)) -gt "$jsonl_size" ]; then
    echo "binary archive ($bin_size bytes) is not at least 2x smaller than JSONL ($jsonl_size bytes)" >&2
    exit 1
fi

echo "== replaying the binary archive through evaluate (unsharded)"
"$workdir/evaluate" -archive "$workdir/campaign.bin" -window $WINDOW \
    > "$workdir/replay-bin.txt"
extract_table "$workdir/replay-bin.txt" > "$workdir/replay-bin.table"
diff -u "$workdir/direct.table" "$workdir/replay-bin.table"
diff -u "$workdir/replay.table" "$workdir/replay-bin.table"

echo "== sharded replay (2 shardworker subprocesses) of the binary archive"
"$workdir/evaluate" -archive "$workdir/campaign.bin" -window $WINDOW \
    -shards 2 -shardworker "$workdir/shardworker" > "$workdir/replay-bin-sharded.txt"
extract_table "$workdir/replay-bin-sharded.txt" > "$workdir/replay-bin-sharded.table"
diff -u "$workdir/direct.table" "$workdir/replay-bin-sharded.table"

echo "== index sanity: collected .bin archive carries the v2 trailer index"
tail -c 8 "$workdir/campaign.bin" | grep -q 'SRPUFIX2' || {
    echo "campaign.bin does not end with the v2 index trailer magic" >&2
    exit 1
}

echo "== evaluate -index upgrades a JSONL archive in place to indexed binary"
cp "$workdir/campaign.jsonl" "$workdir/upgraded.bin"
"$workdir/evaluate" -index -archive "$workdir/upgraded.bin" -window $WINDOW \
    > "$workdir/replay-upgraded.txt"
tail -c 8 "$workdir/upgraded.bin" | grep -q 'SRPUFIX2' || {
    echo "upgraded.bin does not end with the v2 index trailer magic" >&2
    exit 1
}
extract_table "$workdir/replay-upgraded.txt" > "$workdir/replay-upgraded.table"
diff -u "$workdir/direct.table" "$workdir/replay-upgraded.table"

echo "== evaluate -index is idempotent on an already-indexed archive"
before=$(cksum < "$workdir/upgraded.bin")
"$workdir/evaluate" -index -archive "$workdir/upgraded.bin" -window $WINDOW \
    > "$workdir/replay-upgraded2.txt"
after=$(cksum < "$workdir/upgraded.bin")
if [ "$before" != "$after" ]; then
    echo "evaluate -index rewrote an already-indexed archive" >&2
    exit 1
fi
extract_table "$workdir/replay-upgraded2.txt" > "$workdir/replay-upgraded2.table"
diff -u "$workdir/direct.table" "$workdir/replay-upgraded2.table"

echo "== smoke OK: sharded runs, binary/indexed replays and converted JSONL replays (plain, sharded, upgraded) are byte-identical to the direct run"

# ---------------------------------------------------------------------------
# Key-lifecycle leg: the streamed enrollment -> reconstruction workload must
# render byte-identical key tables across the direct run, the sharded run,
# and the archive replay — screening and enrollment derive from
# (profile, devices, seed) alone, never from the execution shape.
# ---------------------------------------------------------------------------

# extract_keytable prints the key-lifecycle block: banner, leakage line,
# column header, and one row per evaluated month.
extract_keytable() {
    grep -A $((MONTHS + 3)) 'KEY LIFECYCLE' "$1"
}

echo "== key-lifecycle: direct run"
"$workdir/agingtest" -devices $DEVICES -months $MONTHS -window $WINDOW \
    -keylife > "$workdir/kl-direct.txt"
extract_keytable "$workdir/kl-direct.txt" > "$workdir/kl-direct.keytable"
recon=$(grep -c "$DEVICES/$DEVICES" "$workdir/kl-direct.keytable" || true)
if [ "$recon" -ne $((MONTHS + 1)) ]; then
    echo "key table reports $recon fully-reconstructed months, want $((MONTHS + 1)):" >&2
    cat "$workdir/kl-direct.keytable" >&2
    exit 1
fi

echo "== key-lifecycle: sharded run (2 shardworker subprocesses), binary archive streamed"
"$workdir/agingtest" -devices $DEVICES -months $MONTHS -window $WINDOW \
    -keylife -shards 2 -shardworker "$workdir/shardworker" \
    -archive "$workdir/kl.bin" > "$workdir/kl-sharded.txt"
extract_keytable "$workdir/kl-sharded.txt" > "$workdir/kl-sharded.keytable"
diff -u "$workdir/kl-direct.keytable" "$workdir/kl-sharded.keytable"

echo "== key-lifecycle: archive replay through evaluate -keylife"
"$workdir/evaluate" -archive "$workdir/kl.bin" -window $WINDOW \
    -keylife > "$workdir/kl-replay.txt"
extract_keytable "$workdir/kl-replay.txt" > "$workdir/kl-replay.keytable"
diff -u "$workdir/kl-direct.keytable" "$workdir/kl-replay.keytable"

echo "== smoke OK: key-lifecycle tables are byte-identical across direct, sharded, and archive-replay runs"

# ---------------------------------------------------------------------------
# Fleet-screening leg: a 50 000-device mixed fleet — far too large to
# materialise eagerly (tens of GB of arrays) — runs lazily with a stability
# floor, direct and sharded, and must render byte-identical tables and
# survivor counts: lazy chip construction and prune decisions derive from
# (seed, global index, per-device metrics) alone, never from the execution
# shape.
# ---------------------------------------------------------------------------

FDEV=50000 FMONTHS=1 FWINDOW=4 FLOOR=0.95
FLEET=fleetnode-1kb,fleetnode-2kb

echo "== fleet screening: direct lazy run ($FDEV devices, mixed fleet)"
"$workdir/agingtest" -fleet $FLEET -devices $FDEV \
    -months $FMONTHS -window $FWINDOW -seed 4242 -screen-floor $FLOOR \
    > "$workdir/fleet-direct.txt"
extract_table "$workdir/fleet-direct.txt" > "$workdir/fleet-direct.table"
grep "devices survive" "$workdir/fleet-direct.txt" > "$workdir/fleet-direct.survive"

echo "== fleet screening: sharded lazy run (2 shardworker subprocesses)"
"$workdir/agingtest" -fleet $FLEET -devices $FDEV \
    -months $FMONTHS -window $FWINDOW -seed 4242 -screen-floor $FLOOR \
    -shards 2 -shardworker "$workdir/shardworker" > "$workdir/fleet-sharded.txt"
extract_table "$workdir/fleet-sharded.txt" > "$workdir/fleet-sharded.table"
grep "devices survive" "$workdir/fleet-sharded.txt" > "$workdir/fleet-sharded.survive"

echo "== comparing screened fleet tables and survivor counts"
diff -u "$workdir/fleet-direct.table" "$workdir/fleet-sharded.table"
diff -u "$workdir/fleet-direct.survive" "$workdir/fleet-sharded.survive"

# The floor must actually have screened — survivors strictly below the
# population — and the attrition summary must attribute prunes to both
# fleet profiles (the worker-streamed breakdown reaching the CLI).
if grep -q "screening: $FDEV of $FDEV" "$workdir/fleet-direct.txt"; then
    echo "screening floor $FLOOR pruned nothing at $FDEV devices" >&2
    exit 1
fi
for prof in FleetNode-1KB FleetNode-2KB; do
    grep -q "$prof" "$workdir/fleet-direct.txt" || {
        echo "no $prof attrition in the screened fleet output" >&2
        exit 1
    }
done

echo "== smoke OK: $FDEV-device screened fleet tables are byte-identical sharded vs direct"

# ---------------------------------------------------------------------------
# Service leg: the same bit-identity guarantee through assessd — a campaign
# (single-profile on the rig, or a screened fleet on the direct sim source)
# submitted over HTTP and streamed back must render the identical table; a
# campaign hard-killed (SIGKILL) mid-run must resume from its checkpoint on
# restart and still render the identical table; cancel must stick.
# ---------------------------------------------------------------------------

echo "== service leg: building assessd"
go build -o "$workdir/assessd" ./cmd/assessd

port=$((20000 + RANDOM % 20000))
base="http://127.0.0.1:$port"
datadir="$workdir/assessd-data"
assessd_pid=""

cleanup() {
    [ -n "$assessd_pid" ] && kill -9 "$assessd_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

start_assessd() {
    "$workdir/assessd" -addr "127.0.0.1:$port" -data "$datadir" \
        -workers 4 -max-active 2 >> "$workdir/assessd.log" 2>&1 &
    assessd_pid=$!
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
            exec 3>&- || true
            return 0
        fi
        sleep 0.1
    done
    echo "assessd did not start listening on :$port" >&2
    cat "$workdir/assessd.log" >&2
    exit 1
}

start_assessd

echo "== service run over HTTP, streamed to completion"
"$workdir/agingtest" -devices $DEVICES -months $MONTHS -window $WINDOW \
    -remote "$base" > "$workdir/service.txt"
extract_table "$workdir/service.txt" > "$workdir/service.table"
diff -u "$workdir/direct.table" "$workdir/service.table"

echo "== service fleet run: a screened lazy fleet over HTTP matches the local run"
SFLEET_ARGS="-fleet $FLEET -devices 64 -months $MONTHS -window $WINDOW -screen-floor 0.9"
"$workdir/agingtest" $SFLEET_ARGS > "$workdir/sfleet-local.txt"
if grep -q "screening: 64 of 64" "$workdir/sfleet-local.txt"; then
    echo "service fleet leg: screening floor 0.9 pruned nothing" >&2
    exit 1
fi
"$workdir/agingtest" $SFLEET_ARGS -remote "$base" > "$workdir/sfleet-remote.txt"
extract_table "$workdir/sfleet-local.txt" > "$workdir/sfleet-local.table"
extract_table "$workdir/sfleet-remote.txt" > "$workdir/sfleet-remote.table"
diff -u "$workdir/sfleet-local.table" "$workdir/sfleet-remote.table"

echo "== cancel: a long campaign cancelled mid-run ends cancelled"
cancel_id=$("$workdir/agingtest" -devices 4 -months 300 -window 16 \
    -remote "$base" -remote-detach)
sleep 0.3
# Cancellation is asynchronous: the request is acknowledged immediately,
# the campaign reaches "cancelled" at its next cancellation point.
"$workdir/agingtest" -remote "$base" -remote-cancel "$cancel_id" > /dev/null
for _ in $(seq 1 100); do
    if "$workdir/agingtest" -remote "$base" -remote-status "$cancel_id" \
        | grep -q "cancelled"; then
        cancelled=1
        break
    fi
    sleep 0.1
done
if [ "${cancelled:-0}" -ne 1 ]; then
    echo "campaign $cancel_id never reached cancelled" >&2
    exit 1
fi

echo "== kill+restart resume: hard-kill assessd mid-campaign"
RM=40 RW=60
"$workdir/agingtest" -devices $DEVICES -months $RM -window $RW \
    -harness > "$workdir/direct-resume.txt"
extract_table "$workdir/direct-resume.txt" > "$workdir/direct-resume.table"

resume_id=$("$workdir/agingtest" -devices $DEVICES -months $RM -window $RW \
    -remote "$base" -remote-detach)
for _ in $(seq 1 200); do
    months_done=$("$workdir/agingtest" -remote "$base" -remote-status "$resume_id" \
        | sed -n 's/.*, \([0-9]*\) months done.*/\1/p')
    [ "${months_done:-0}" -ge 2 ] && break
    sleep 0.05
done
if [ "${months_done:-0}" -lt 2 ]; then
    echo "campaign $resume_id never reached 2 months" >&2
    exit 1
fi
kill -9 "$assessd_pid"
wait "$assessd_pid" 2>/dev/null || true
assessd_pid=""

echo "== restarting assessd over the same data dir"
start_assessd
for _ in $(seq 1 600); do
    status=$("$workdir/agingtest" -remote "$base" -remote-status "$resume_id")
    case "$status" in
        *": done,"*) break ;;
        *": failed,"*|*": cancelled,"*)
            echo "resumed campaign $resume_id ended badly: $status" >&2
            exit 1 ;;
    esac
    sleep 0.1
done
case "$status" in
    *": done,"*) ;;
    *) echo "resumed campaign $resume_id never finished: $status" >&2; exit 1 ;;
esac

echo "== resumed table must be byte-identical to the uninterrupted run"
"$workdir/agingtest" -remote "$base" -remote-watch "$resume_id" \
    > "$workdir/resumed.txt"
extract_table "$workdir/resumed.txt" > "$workdir/resumed.table"
diff -u "$workdir/direct-resume.table" "$workdir/resumed.table"

echo "== the resumed campaign's sealed archive replays to the same table, every month recorded once"
"$workdir/evaluate" -archive "$datadir/$resume_id.bin" -window $RW \
    > "$workdir/resumed-replay.txt"
extract_table "$workdir/resumed-replay.txt" > "$workdir/resumed-replay.table"
diff -u "$workdir/direct-resume.table" "$workdir/resumed-replay.table"
resume_records=$((DEVICES * RW * (RM + 1)))
grep -q ", $resume_records records)" "$workdir/resumed-replay.txt" || {
    echo "resumed archive does not hold exactly $resume_records records:" >&2
    head -3 "$workdir/resumed-replay.txt" >&2
    exit 1
}

echo "== graceful drain: SIGTERM leaves the service exitable"
kill -TERM "$assessd_pid"
wait "$assessd_pid" 2>/dev/null || true
assessd_pid=""

echo "== smoke OK: service submit/stream (rig and fleet), cancel, and kill+restart resume are byte-identical to direct runs"
