#!/usr/bin/env bash
# Smoke check: tier-1 tests plus a ~30-second mini-campaign that exercises
# the parallel executor, the JSONL store, resume-by-hash and the canonical
# summary — so the multiprocessing path is driven on every change, not
# just in CI benchmarks.  A final pass runs the same tiny grid on all
# three execution backends (reference simulator, per-scenario vectorized
# fast path, mega-batched fast path) and byte-compares the canonical
# summaries; a large-n leg (n = 20/24, where the batched kernel's NumPy
# merge gathers only the PT senders) byte-compares the batched and
# vectorized summaries; the batched backend's journal bytes are
# additionally checked to be independent of the jobs count / batch
# partition, and a scheduler-planned heterogeneous-latency family leg
# (--jobs 2, tiny --batch-memory envelope) is diffed against the serial
# reference run.
# A mixed-n leg (--jobs 4, --metrics) byte-compares journal and summary
# against the serial batched run and checks that the planner packed the
# n = 4..7 grid.
# A final telemetry leg records a --metrics sidecar (schema-validated,
# all four engine sections non-zero) and byte-compares the journal
# against a metrics-off run.
#
# Usage: scripts/smoke.sh [extra pytest args...]

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q "$@"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
store="$workdir/journal.jsonl"
summary_a="$workdir/summary_jobs2.jsonl"
summary_b="$workdir/summary_resumed.jsonl"
grid=(-n 5 6 8 -k 2 3 --seeds 4 --noise 0.0 0.2)

echo
echo "== mini-campaign: parallel run (--jobs 2) =="
python -m repro campaign run --store "$store" --jobs 2 \
    --summary "$summary_a" "${grid[@]}"

echo
echo "== mini-campaign: resume executes nothing new =="
python -m repro campaign run --store "$store" --jobs 2 "${grid[@]}" \
    | grep -E "executed now +0"

echo
echo "== mini-campaign: drop half the journal, resume only the rest =="
total=$(wc -l < "$store")
head -n $((total / 2)) "$store" > "$store.half" && mv "$store.half" "$store"
python -m repro campaign run --store "$store" --jobs 2 \
    --summary "$summary_b" "${grid[@]}"

cmp "$summary_a" "$summary_b"
echo "summaries byte-identical after resume: OK"

echo
echo "== backend equivalence: fast paths vs reference =="
eq_grid=(-n 4 6 -k 2 --seeds 3 --noise 0.0 0.25)
summary_ref="$workdir/summary_reference.jsonl"
summary_vec="$workdir/summary_vectorized.jsonl"
summary_bat="$workdir/summary_batched.jsonl"
python -m repro campaign run --store "$workdir/journal_ref.jsonl" \
    --backend reference --summary "$summary_ref" "${eq_grid[@]}"
python -m repro campaign run --store "$workdir/journal_vec.jsonl" \
    --backend vectorized --summary "$summary_vec" "${eq_grid[@]}"
python -m repro campaign run --store "$workdir/journal_bat.jsonl" \
    --backend batched --summary "$summary_bat" "${eq_grid[@]}"
cmp "$summary_ref" "$summary_vec"
cmp "$summary_ref" "$summary_bat"
echo "reference, vectorized and batched summaries byte-identical: OK"

echo
echo "== large-n leg: sparse PT merge (batched) vs dense merge (vectorized) =="
# From n = 16 the batched kernel merges only each owner's PT senders; the
# single-lane vectorized kernel keeps the dense merge, so equal summaries
# byte-compare the two merges end to end (6 scenarios, n = 20 and 24).
large_grid=(-n 20 24 -k 3 --seeds 1 --noise 0.3 --no-progress)
python -m repro campaign run --store "$workdir/journal_large_vec.jsonl" \
    --backend vectorized --summary "$workdir/summary_large_vec.jsonl" \
    "${large_grid[@]}" > /dev/null
python -m repro campaign run --store "$workdir/journal_large_bat.jsonl" \
    --backend batched --summary "$workdir/summary_large_bat.jsonl" \
    "${large_grid[@]}" > /dev/null
test "$(wc -l < "$workdir/summary_large_bat.jsonl")" -eq 6
cmp "$workdir/summary_large_vec.jsonl" "$workdir/summary_large_bat.jsonl"
echo "large-n vectorized and batched summaries byte-identical: OK"

echo
echo "== mega-batch partition invariance: --jobs 2 journal bytes =="
# The batched backend tags every supported scenario "batched" whatever
# the batch grouping, and the pool releases results in plan order, so
# the journal (not just the summary) of a chunked parallel run must be
# byte-identical to the serial run's.
python -m repro campaign run --store "$workdir/journal_bat2.jsonl" \
    --backend batched --jobs 2 --summary "$workdir/summary_bat2.jsonl" \
    "${eq_grid[@]}" > /dev/null
cmp "$summary_bat" "$workdir/summary_bat2.jsonl"
cmp "$workdir/journal_bat.jsonl" "$workdir/journal_bat2.jsonl"
echo "batched journal bytes independent of jobs/partition: OK"

echo
echo "== experiment registry: every family as a campaign =="
# One small scenario grid per registered family through
# `campaign run --family`; where the family supports the vectorized fast
# path, run it on both backends and byte-compare the canonical summaries.
run_family() {
    local family="$1"; shift
    local args=("$@")
    local fdir="$workdir/family_$family"
    mkdir -p "$fdir"
    echo "-- family: $family (reference) --"
    python -m repro campaign run --family "$family" \
        --store "$fdir/ref.jsonl" --summary "$fdir/ref_summary.jsonl" \
        --backend reference "${args[@]}" > /dev/null
    # Resume executes nothing new.  (Capture, then grep: `grep -q` would
    # close the pipe early and SIGPIPE the CLI.)
    python -m repro campaign run --family "$family" \
        --store "$fdir/ref.jsonl" --backend reference "${args[@]}" \
        > "$fdir/resume.out"
    grep -qE "executed now +0" "$fdir/resume.out"
    python -m repro campaign report --family "$family" \
        --store "$fdir/ref.jsonl" "${args[@]}" > /dev/null
}

run_family_vectorized() {
    local family="$1"; shift
    local args=("$@")
    local fdir="$workdir/family_$family"
    echo "-- family: $family (vectorized vs reference) --"
    python -m repro campaign run --family "$family" \
        --store "$fdir/vec.jsonl" --summary "$fdir/vec_summary.jsonl" \
        --backend vectorized "${args[@]}" > /dev/null
    cmp "$fdir/ref_summary.jsonl" "$fdir/vec_summary.jsonl"
}

run_family_batched() {
    local family="$1"; shift
    local args=("$@")
    local fdir="$workdir/family_$family"
    echo "-- family: $family (mega-batched vs reference) --"
    python -m repro campaign run --family "$family" \
        --store "$fdir/bat.jsonl" --summary "$fdir/bat_summary.jsonl" \
        --backend batched "${args[@]}" > /dev/null
    cmp "$fdir/ref_summary.jsonl" "$fdir/bat_summary.jsonl"
}

run_family figure1
run_family theorem2 -n 6 -k 3
run_family sweeps -n 5 6 -k 2 --seeds 2 --noise 0.1
run_family_vectorized sweeps -n 5 6 -k 2 --seeds 2 --noise 0.1
run_family_batched sweeps -n 5 6 -k 2 --seeds 2 --noise 0.1
run_family termination -n 5 6 --seeds 2
run_family_vectorized termination -n 5 6 --seeds 2
run_family_batched termination -n 5 6 --seeds 2
run_family ablation -n 5 -k 2 --seeds 2
run_family duality -n 6 --density 0.1 0.3 --seeds 2
run_family eventual -n 5 --bad-rounds 0 2 --seeds 1
run_family_batched eventual -n 5 --bad-rounds 0 2 --seeds 1
run_family latency -n 5 6 --seeds 2 --noise 0.1
run_family_vectorized latency -n 5 6 --seeds 2 --noise 0.1
run_family_batched latency -n 5 6 --seeds 2 --noise 0.1
echo "all families ran as campaigns (summaries backend-identical): OK"

echo
echo "== batch scheduler: heterogeneous-latency leg (--jobs 2) vs serial reference =="
# A noise×n LATENCY-DIST grid is exactly the interleaved-heterogeneous
# shape the scheduler plans into packed, lane-compacting batches; a
# parallel auto run must byte-match the serial reference-backend
# summary (and an absurdly small --batch-memory envelope must too).
het_args=(--family latency -n 5 6 --seeds 2 --noise 0.0 0.4)
python -m repro campaign run "${het_args[@]}" --backend reference \
    --store "$workdir/het_ref.jsonl" \
    --summary "$workdir/het_ref_summary.jsonl" > /dev/null
python -m repro campaign run "${het_args[@]}" --backend auto --jobs 2 \
    --batch-memory 64 --store "$workdir/het_sched.jsonl" \
    --summary "$workdir/het_sched_summary.jsonl" > /dev/null
cmp "$workdir/het_ref_summary.jsonl" "$workdir/het_sched_summary.jsonl"
echo "scheduler-planned parallel run byte-matches serial reference: OK"

echo
echo "== cross-n packing: mixed-n leg (--jobs 4) =="
# A sparse mixed-n grid (n=4..7 share one round bucket, 6 lanes per n)
# is planned as one padded tensor group, cut into batches for four
# workers — serial and pool share that plan, so journal records and
# summary must byte-match the serial batched run, and the sidecar must
# show the padding.
pack_grid=(-n 4 5 6 7 -k 2 --seeds 3 --noise 0.3)
python -m repro campaign run "${pack_grid[@]}" --backend batched \
    --store "$workdir/pack_serial.jsonl" \
    --summary "$workdir/pack_serial_summary.jsonl" > /dev/null
python -m repro campaign run "${pack_grid[@]}" --backend batched \
    --jobs 4 --metrics --no-progress \
    --store "$workdir/pack_pooled.jsonl" \
    --summary "$workdir/pack_pooled_summary.jsonl" > /dev/null
cmp "$workdir/pack_serial_summary.jsonl" "$workdir/pack_pooled_summary.jsonl"
cmp "$workdir/pack_serial.jsonl" "$workdir/pack_pooled.jsonl"
echo "pooled journal bytes match serial: OK"
python - "$workdir/pack_pooled.jsonl.metrics.json" <<'PY'
import sys
from repro.engine.telemetry import read_sidecar

det = read_sidecar(sys.argv[1])["deterministic"]["counters"]
assert det.get("scheduler.padded_lane_width", 0) > 0, det
print("planner packed the mixed-n grid: OK")
PY

echo
echo "== store-native aggregation: percentile table from the journal =="
python -m repro campaign report --family latency --aggregate \
    --store "$workdir/family_latency/ref.jsonl" -n 5 6 --seeds 2 \
    --noise 0.1 > "$workdir/aggregate.out"
grep -q "p50_decide" "$workdir/aggregate.out"
echo "aggregate report: OK"

echo
echo "== telemetry: --metrics sidecar, journal bytes untouched =="
# A --metrics run must write a schema-valid sidecar with non-zero
# scheduler/executor/kernel/store sections while leaving the journal
# byte-identical to a metrics-off run of the same grid.
met_args=(--family latency -n 5 6 --seeds 2 --noise 0.1)
python -m repro campaign run "${met_args[@]}" --jobs 1 \
    --store "$workdir/met_on.jsonl" --metrics --no-progress > /dev/null
python -m repro campaign run "${met_args[@]}" --jobs 1 \
    --store "$workdir/met_off.jsonl" --no-progress > /dev/null
cmp "$workdir/met_on.jsonl" "$workdir/met_off.jsonl"
echo "journal bytes identical with metrics on/off: OK"
python - "$workdir/met_on.jsonl.metrics.json" <<'PY'
import sys
from repro.engine.telemetry import read_sidecar

side = read_sidecar(sys.argv[1])  # validates schema + structure
counters = {
    **side["deterministic"]["counters"],
    **side["volatile"]["counters"],
}
for prefix in ("scheduler.", "executor.", "kernel.", "store."):
    assert any(
        name.startswith(prefix) and value > 0
        for name, value in counters.items()
    ), f"no non-zero {prefix} counters in sidecar"
print("sidecar schema and non-zero sections: OK")
PY
python -m repro campaign report "${met_args[@]}" \
    --store "$workdir/met_on.jsonl" --metrics > "$workdir/metrics.out"
grep -q "kernel.lanes" "$workdir/metrics.out"
echo "campaign report --metrics renders the sidecar: OK"

echo
echo "== fuzz family: randomized differential campaign under contracts =="
# Every fuzz case re-runs the drawn scenario on every engine and
# byte-compares canonical summaries; --contracts additionally arms the
# sampled re-derive checkpoints.  A non-zero exit means a divergence
# (with a shrunk repro in the journal) — set -e asserts it.
python -m repro campaign run --family fuzz --seeds 6 \
    --store "$workdir/fuzz.jsonl" --contracts --no-progress \
    > "$workdir/fuzz.out"
grep -q "state: ok" "$workdir/fuzz.out"
echo "fuzz campaign (6 cases, contracts on): OK"

echo
echo "== fault injection: seeded kill+torn plan reconverges byte-identically =="
# Seed 31 deterministically selects 2 kill victims (worker crashes,
# absorbed in-run by --max-retries) and 2 torn victims (truncated
# journal appends; each aborts the run once, the ledger prevents a
# refire, resume heals the tail and re-runs the scenario).  After the
# bounded retry loop the canonical summary must be byte-identical to a
# fault-free run of the same grid.
fault_grid=(-n 5 6 -k 2 --seeds 3 --noise 0.1)
python -m repro campaign run "${fault_grid[@]}" --jobs 2 \
    --store "$workdir/fault_clean.jsonl" \
    --summary "$workdir/fault_clean_summary.jsonl" --no-progress > /dev/null
fault_attempts=0
until python -m repro campaign run "${fault_grid[@]}" --jobs 2 \
        --max-retries 2 --faults "seed=31,kill=0.4,torn=0.4" \
        --store "$workdir/faulted.jsonl" \
        --summary "$workdir/faulted_summary.jsonl" --no-progress \
        > /dev/null 2> "$workdir/faulted.err"; do
    fault_attempts=$((fault_attempts + 1))
    if [ "$fault_attempts" -gt 6 ]; then
        cat "$workdir/faulted.err"
        echo "faulted campaign failed to reconverge" >&2
        exit 1
    fi
done
cmp "$workdir/fault_clean_summary.jsonl" "$workdir/faulted_summary.jsonl"
test -s "$workdir/faulted.jsonl.faults.ledger"
grep -q "^kill:" "$workdir/faulted.jsonl.faults.ledger"
grep -q "^torn:" "$workdir/faulted.jsonl.faults.ledger"
echo "faulted summary byte-identical after $fault_attempts resume(s); ledger fired: OK"

echo
echo "== campaign service: daemon-served campaigns over HTTP =="
# Boot `campaign serve` on an ephemeral port, submit the fuzz family
# (contracts armed) plus a standard latency family through the thin
# `campaign run --connect` client, check the status client, then SIGTERM
# and require a clean (exit 0) drain.
daemon_spool="$workdir/daemon_spool"
port_file="$workdir/daemon.url"
python -m repro campaign serve --port 0 --port-file "$port_file" \
    --jobs 2 --slots 2 --spool "$daemon_spool" --contracts \
    2> "$workdir/daemon.err" &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || {
        cat "$workdir/daemon.err" >&2
        echo "daemon died during startup" >&2
        exit 1
    }
    sleep 0.1
done
daemon_url="$(cat "$port_file")"
echo "daemon listening at $daemon_url"
python -m repro campaign run --connect "$daemon_url" --family fuzz \
    --seeds 4 --store "$workdir/served_fuzz.jsonl" --contracts \
    --no-progress > "$workdir/served_fuzz.out"
grep -q "state: ok" "$workdir/served_fuzz.out"
python -m repro campaign run --connect "$daemon_url" --family latency \
    -n 5 6 --seeds 2 --noise 0.1 --store "$workdir/served_lat.jsonl" \
    --no-progress > "$workdir/served_lat.out"
grep -q "state: ok" "$workdir/served_lat.out"
python -m repro campaign status --connect "$daemon_url" --family latency \
    -n 5 6 --seeds 2 --noise 0.1 --store "$workdir/served_lat.jsonl" \
    > /dev/null
kill -TERM "$daemon_pid"
wait "$daemon_pid" || {
    echo "daemon exited non-zero on SIGTERM" >&2
    cat "$workdir/daemon.err" >&2
    exit 1
}
grep -q "shutting down" "$workdir/daemon.err"
echo "daemon leg (fuzz + latency served, clean SIGTERM drain): OK"

echo
echo "== distributed execution: 2 remote workers vs serial, byte-compared =="
# Boot two `repro worker --listen` processes on ephemeral ports, ship the
# heterogeneous-latency family to them with `campaign run --workers`
# (planned like a two-job pool: one batch per worker), and require the
# shard-merged journal AND summary to be byte-identical to the serial
# single-host run — then SIGTERM both workers and require clean (exit 0)
# shutdowns.
dist_args=(--family latency -n 5 6 --seeds 2 --noise 0.0 0.4)
python -m repro campaign run "${dist_args[@]}" --jobs 1 \
    --store "$workdir/dist_serial.jsonl" \
    --summary "$workdir/dist_serial_summary.jsonl" --no-progress > /dev/null
worker_pids=()
for i in 0 1; do
    python -m repro worker --listen 127.0.0.1:0 \
        --port-file "$workdir/worker$i.port" \
        2> "$workdir/worker$i.err" &
    worker_pids+=($!)
done
for i in 0 1; do
    for _ in $(seq 1 100); do
        [ -s "$workdir/worker$i.port" ] && break
        kill -0 "${worker_pids[$i]}" 2>/dev/null || {
            cat "$workdir/worker$i.err" >&2
            echo "worker $i died during startup" >&2
            exit 1
        }
        sleep 0.1
    done
done
dist_workers="$(cat "$workdir/worker0.port"),$(cat "$workdir/worker1.port")"
echo "workers listening at $dist_workers"
python -m repro campaign run "${dist_args[@]}" --workers "$dist_workers" \
    --store "$workdir/dist_remote.jsonl" \
    --summary "$workdir/dist_remote_summary.jsonl" --no-progress > /dev/null
cmp "$workdir/dist_serial.jsonl" "$workdir/dist_remote.jsonl"
cmp "$workdir/dist_serial_summary.jsonl" "$workdir/dist_remote_summary.jsonl"
for pid in "${worker_pids[@]}"; do
    kill -TERM "$pid"
done
for i in 0 1; do
    wait "${worker_pids[$i]}" || {
        echo "worker $i exited non-zero on SIGTERM" >&2
        cat "$workdir/worker$i.err" >&2
        exit 1
    }
done
echo "distributed journal+summary byte-identical to serial; workers drained: OK"

echo
python -m repro campaign status --store "$store" "${grid[@]}"
echo
echo "smoke: OK"
