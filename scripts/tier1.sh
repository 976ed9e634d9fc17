#!/usr/bin/env bash
# Tier-1 verification: hermetic build + tests + a bench smoke run.
#
# The workspace has zero non-workspace dependencies, so everything here runs
# with --offline against an empty registry cache. Any new external
# dependency will fail this script — that is intentional (see ISSUE 1 /
# CHANGES.md): reproductions must build from source alone.
#
# Campaign-shaped stages (bench smoke, chaos, fault-injection acceptance)
# run through sas-runner (DESIGN.md §8): every cell is an isolated child
# process with a watchdog, failures are recorded instead of aborting the
# campaign, and deterministic failures get minimized repro bundles.
#
# Usage: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-D warnings"

echo "== tier1: offline release build (all targets) =="
cargo build --release --offline --workspace --benches --examples --bins

echo "== tier1: clippy (every crate and target, warnings are errors) =="
# A lint that is wrong for some code is allowed on that item only, with a
# one-line reason; no crate- or workspace-wide allow.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== tier1: simulator reads no environment =="
# Every number the simulator produces is a function of its explicit inputs
# (program, config, mitigation, fault plan). No crate that builds or runs a
# simulated machine may read an environment variable; fault plans arrive as
# `--fault-plan SPEC` flags.
if grep -rnE 'env::var' crates/{isa,mte,mem,pipeline,telemetry,oracle,core,snap,workloads,attacks}/src \
    crates/ptest/src/fault.rs; then
  echo "tier1: FAIL — simulator code reads the environment (lines above)" >&2
  exit 1
fi
# Nor does the engine touch files: progress reporting (heartbeats) belongs
# to the supervised-run loop in sas-bench, checkpoints to sas-snap/core.
if grep -rn 'std::fs' crates/{isa,mte,mem,pipeline,telemetry,oracle,workloads}/src; then
  echo "tier1: FAIL — simulator engine code does file I/O (lines above)" >&2
  exit 1
fi
# One restore path in workspace code: only `restore_system_checked` (in
# crates/core/src/snapshot.rs) calls the unchecked `restore_system`.
if grep -rn 'restore_system(' crates/*/src src | grep -v '^crates/core/src/snapshot.rs'; then
  echo "tier1: FAIL — workspace code calls the unchecked restore_system (lines above)" >&2
  exit 1
fi
# One way to name and build a machine: front ends build workloads through
# `sas_bench::Target`, never by calling the workload generators themselves.
if grep -rnE 'build_(parsec_)?workload\(' crates/*/src src | grep -vE '^crates/(workloads|bench)/src/'; then
  echo "tier1: FAIL — code outside sas-workloads and sas-bench builds workloads (lines above)" >&2
  exit 1
fi

echo "== tier1: offline test suite =="
cargo test -q --offline

echo "== tier1: benchmark crate (hostbench) builds against the current APIs =="
# hostbench is a workspace of its own, so the build above does not compile
# it; a public API it calls that changes must fail here. Same target
# directory as hostbench/run.sh picks.
CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-hostbench/target/cargo} \
  cargo test -q --offline --manifest-path hostbench/Cargo.toml

echo "== tier1: bench smoke (fig6 grid via sas-runner, 75 isolated cells) =="
./target/release/sas-runner fig6 --iters 2 --jobs 2 --timeout-ms 120000 \
  --manifest target/sas-runner/tier1-fig6.jsonl

echo "== tier1: figure and ablation renderers (figures + ablations bench targets) =="
# The figures target simulates every distinct Fig. 6-9 cell once and renders
# the four figures from the results; ablations renders its six studies. At
# smoke length each must emit its full JSONL row set with no invalid cell.
BENCHDIR=$PWD/target/sas-bench/tier1 # absolute: cargo bench runs in crates/bench
rm -rf "$BENCHDIR"; mkdir -p "$BENCHDIR"
run_bench() { # run_bench <target> <jsonl> — run the target at 2 iterations into <jsonl>
  SAS_BENCH_ITERS=2 SAS_BENCH_JSONL="$2" \
    cargo bench -q --offline -p sas-bench --bench "$1" >/dev/null
  if grep -q '"valid":false' "$2"; then
    echo "tier1: FAIL — $1 emitted an invalid cell" >&2
    exit 1
  fi
}
count_rows() { grep -c "^{\"bench\":\"$1\"" "$2" || true; }
run_bench figures "$BENCHDIR/figures.jsonl"
[ "$(wc -l < "$BENCHDIR/figures.jsonl")" -eq 210 ]
[ "$(count_rows fig6 "$BENCHDIR/figures.jsonl")" -eq 64 ]
[ "$(count_rows fig7 "$BENCHDIR/figures.jsonl")" -eq 32 ]
[ "$(count_rows fig8 "$BENCHDIR/figures.jsonl")" -eq 66 ]
[ "$(count_rows fig9 "$BENCHDIR/figures.jsonl")" -eq 48 ]
run_bench ablations "$BENCHDIR/ablations.jsonl"
[ "$(wc -l < "$BENCHDIR/ablations.jsonl")" -eq 22 ]

echo "== tier1: telemetry exports (sas-trace on spectre-v1, every mitigation) =="
# For each mitigation, one telemetry-enabled spectre-v1 run must export a
# Chrome trace that passes the checked-in trace_event validator, a Konata
# log covering every committed instruction, a CPI stack whose buckets sum
# exactly to the cycle count (--verify checks all three), and a metrics
# JSONL whose key schema matches the checked-in golden list.
mkdir -p target/sas-trace
for m in unsafe mte fence stt ghostminion specasan speccfi specasan+cfi; do
  safe=${m//+/-}
  ./target/release/sas-trace spectre-v1 --mitigation "$m" \
    --chrome "target/sas-trace/tier1-$safe.json" \
    --konata "target/sas-trace/tier1-$safe.konata" \
    --metrics "target/sas-trace/tier1-$safe.jsonl" \
    --verify --golden crates/telemetry/golden_metrics.txt >/dev/null
done

echo "== tier1: static analysis cross-validation (sas-lint --all-attacks) =="
# The static analyzer must flag exactly the attacks whose dynamic run leaks,
# its CSDB suggestions must reach zero gadget findings, and the verdict
# table must be byte-identical to the checked-in expectation (determinism).
cargo run -q --release --offline -p sas-analyze --bin sas-lint -- \
  --all-attacks --expect crates/analyze/expected_verdicts.txt

echo "== tier1: differential fuzzing (corpus replay + 500-case campaign) =="
# Every checked-in counterexample in crates/fuzz/corpus/ must replay with
# its recorded static and dynamic verdicts, and a fixed-seed smoke campaign
# must classify every synthesized gadget as agree or documented imprecision
# — an unexplained disagreement fails the stage and prints per-case replay
# seeds plus the campaign SAS_PTEST_SEED. The campaign also emits a
# BENCH_lint.json throughput/tally artifact, under target/ so the gate
# leaves the committed copy (and the tree) as it found them.
FUZZDIR=target/sas-fuzz/tier1
rm -rf "$FUZZDIR"; mkdir -p "$FUZZDIR"
./target/release/sas-fuzz replay
./target/release/sas-fuzz campaign --cases 500 --bench "$FUZZDIR/BENCH_lint.json"
./target/release/sas-fuzz validate "$FUZZDIR/BENCH_lint.json"

echo "== tier1: chaos campaigns (60 seeded fault campaigns via sas-runner) =="
# Every injected corruption must be caught (oracle divergence, fault,
# deadlock, or post-run audit) and replay exactly from its reported seed;
# a silent escape, stressor divergence or panic fails its cell.
./target/release/sas-runner chaos --campaigns 60 --jobs 2 --timeout-ms 120000 \
  --manifest target/sas-runner/tier1-chaos.jsonl

echo "== tier1: supervisor kill-path selftest (panic / hang / flaky cells) =="
# Self-verifying campaign over deliberately misbehaving cells: a panicking
# child is recorded without aborting the campaign, a hung child is killed by
# the watchdog and recorded as exit:"timeout", and an environmental flake
# succeeds on retry. SAS_RUNNER_SELFTEST=1 opts the hang cell in.
SAS_RUNNER_SELFTEST=1 ./target/release/sas-runner selftest --timeout-ms 5000 \
  --manifest target/sas-runner/tier1-selftest.jsonl

echo "== tier1: snapshot round-trip + checkpoint verify + corruption detection =="
# In-process bit-identity is property-tested (crates/core/tests/snapshot_prop);
# this stage proves the same contract across the release binaries: a cell
# crashed right after its first checkpoint leaves a file `sas-snap verify`
# accepts, resuming from it reproduces the uninterrupted cycle count exactly,
# and a single flipped byte is rejected — degrading to replay-from-start with
# the same numbers, never resuming corrupt state. The chaos cell at the end is
# a snap_corrupt-class campaign (campaign_seed(1): flips one byte of a mid-run
# snapshot image; the cell fails unless the restore path detects it).
SNAPDIR=target/sas-runner/tier1-snap
rm -rf "$SNAPDIR"; mkdir -p "$SNAPDIR"
CKPT="$SNAPDIR/cell.ckpt.snap"
SNAP_CELL="spec/505.mcf_r/unsafe"
result_cycles() { sed -n 's/^SAS_RUNNER_RESULT .*"cycles":\([0-9]*\).*/\1/p'; }
ref=$(./target/release/sas-runner cell "$SNAP_CELL" --iters 25 | result_cycles)
[ -n "$ref" ] && [ "$ref" -gt 10000 ]
if ./target/release/sas-runner cell "$SNAP_CELL" --iters 25 --checkpoint "$CKPT" \
   --checkpoint-every 5000 --crash-after-checkpoints 1 >/dev/null 2>&1; then
  echo "tier1: FAIL — checkpoint crash hook did not fire" >&2
  exit 1
fi
./target/release/sas-snap verify "$CKPT"
# A fresh checkpoint is written in the current format (version 7).
./target/release/sas-snap inspect "$CKPT" > "$SNAPDIR/inspect.txt"
grep -qx '  version:  7' "$SNAPDIR/inspect.txt"
resumed=$(./target/release/sas-runner cell "$SNAP_CELL" --iters 25 --checkpoint "$CKPT" 2>/dev/null)
echo "$resumed" | grep -q '"restored":true'
[ "$(echo "$resumed" | result_cycles)" = "$ref" ]
[ ! -e "$CKPT" ] # completed cells drop their checkpoint
./target/release/sas-runner cell "$SNAP_CELL" --iters 25 --checkpoint "$CKPT" \
  --checkpoint-every 5000 --crash-after-checkpoints 1 >/dev/null 2>&1 || true
size=$(wc -c < "$CKPT"); off=$((size / 2))
byte=$(od -An -tu1 -j"$off" -N1 "$CKPT" | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 64)))" \
  | dd of="$CKPT" bs=1 seek="$off" count=1 conv=notrunc 2>/dev/null
if ./target/release/sas-snap verify "$CKPT" 2>/dev/null; then
  echo "tier1: FAIL — sas-snap verify accepted a flipped byte" >&2
  exit 1
fi
degraded=$(./target/release/sas-runner cell "$SNAP_CELL" --iters 25 --checkpoint "$CKPT" 2>/dev/null)
! echo "$degraded" | grep -q '"restored":true'
[ "$(echo "$degraded" | result_cycles)" = "$ref" ]
./target/release/sas-runner run --cells chaos/0x9e3779ba43eadb04 --no-shrink \
  --timeout-ms 120000 --manifest target/sas-runner/tier1-snapcorrupt.jsonl

echo "== tier1: fault-injection acceptance (graceful degradation + repro replay) =="
# A fault plan deterministically deadlocks one SPEC cell. The campaign must
# complete every other cell, exit nonzero naming the failed cell, and write
# a minimized repro bundle whose replay reproduces the failure class.
rm -rf target/repro-tier1 target/sas-runner/tier1-acceptance.jsonl
if ./target/release/sas-runner fig6 --benchmarks 505.mcf_r --iters 2 --jobs 2 \
    --timeout-ms 120000 \
    --fault-cell spec/505.mcf_r/stt --fault-plan "seed=0x2a mshr_drop_fill=1000,2" \
    --manifest target/sas-runner/tier1-acceptance.jsonl \
    --repro-dir target/repro-tier1; then
  echo "tier1: FAIL — campaign with an injected fault must exit nonzero" >&2
  exit 1
fi
grep -q '"cell":"spec/505.mcf_r/stt","ok":false' \
  target/sas-runner/tier1-acceptance.jsonl
[ "$(grep -c '"ok":true' target/sas-runner/tier1-acceptance.jsonl)" -eq 4 ]
./target/release/sas-runner replay target/repro-tier1/spec-505.mcf_r-stt

echo "== tier1: service (sas-serve: smoke RPCs, 503 saturation, SIGKILL resume, SIGTERM drain) =="
# The persistent daemon's end-to-end robustness contract (DESIGN.md §13),
# exercised over raw TCP (bash /dev/tcp — hermetic, no curl):
#   1. simulate / lint / trace smoke against a live daemon, and a lint of a
#      program binding one label twice answers kind:"parse" and leaves the
#      only worker alive;
#   2. a saturated queue answers an explicit 503 (kind:"full"), never hangs,
#      and /status counts it as the one rejection; journal rows carry no
#      `priority` or `client` field;
#   3. SIGKILL mid-simulation, restart: the journaled job resumes from its
#      checkpoint and reports cycle counts identical to an uninterrupted run;
#   4. SIGTERM with a job in flight: the daemon parks it and exits 0 inside
#      the drain deadline, and a restart finishes the parked job — zero
#      accepted jobs lost.
SERVEDIR=target/sas-serve/tier1
rm -rf "$SERVEDIR"; mkdir -p "$SERVEDIR"
rpc() { # rpc <port> <json-body> — one JSON-RPC POST, prints the full response
  local port=$1 body=$2
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'POST /rpc HTTP/1.1\r\nhost: t\r\ncontent-length: %d\r\n\r\n%s' \
    "${#body}" "$body" >&3
  cat <&3
  exec 3<&- 3>&-
}
http_get() { # http_get <port> <path> — raw GET, prints the full response
  local port=$1 path=$2
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'GET %s HTTP/1.1\r\nhost: t\r\n\r\n' "$path" >&3
  cat <&3
  exec 3<&- 3>&-
}
serve_start() { # serve_start <state-dir> <log> [extra args...] — sets SERVE_PID/SERVE_PORT
  local state=$1 log=$2; shift 2
  ./target/release/sas-serve --state-dir "$state" "$@" >"$log" 2>"$log.err" &
  SERVE_PID=$!
  SERVE_PORT=
  for _ in $(seq 1 200); do
    SERVE_PORT=$(sed -n 's/^sas-serve: listening on 127.0.0.1:\([0-9]*\)$/\1/p' "$log")
    [ -n "$SERVE_PORT" ] && break
    sleep 0.05
  done
  [ -n "$SERVE_PORT" ]
}
QUICK='.entry main\nmain:\nMOVZ X1, #7\nMOVZ X2, #35\nADD X3, X1, X2\nHALT\n'
FOREVER='.entry main\nmain:\nloop:\nADD X1, X1, #1\nB loop\n'
LONG='.entry main\nmain:\nMOVZ X2, #200\nouter:\nMOVZ X1, #60000\ninner:\nSUB X1, X1, #1\nCBNZ X1, inner\nSUB X2, X2, #1\nCBNZ X2, outer\nHALT\n'

# --- smoke + saturation (instance A: 1 worker, queue cap 2) ---
serve_start "$SERVEDIR/a" "$SERVEDIR/a.log" --workers 1 --queue-cap 2
rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":1,"method":"simulate","params":{"program":"'"$QUICK"'"}}' \
  | grep -q '"cycles":'
rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":2,"method":"lint","params":{"program":".entry main\nmain:\nLDRW X1, [X2]\nLDRW X3, [X1]\nHALT\n","suggest":true}}' \
  | grep -q '"gadgets":'
rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":3,"method":"trace","params":{"program":"'"$QUICK"'","chrome":true}}' \
  | grep -q '"chrome":'
# A label bound twice is a parse error, not a panic that kills the only
# worker: the occupy job below must still reach "running".
rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":3,"method":"lint","params":{"program":"a:\na:\nHALT\n"}}' \
  | grep -q '"kind":"parse"'
occupy='{"jsonrpc":"2.0","id":4,"method":"simulate","params":{"program":"'"$FOREVER"'","wait":false,"deadline_ms":60000}}'
resp=$(rpc "$SERVE_PORT" "$occupy")
echo "$resp" | grep -q '"status":"queued"'
jid=$(echo "$resp" | sed -n 's/.*"job":\([0-9]*\).*/\1/p' | head -1)
for _ in $(seq 1 200); do   # the worker must claim it before we fill the queue
  rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":4,"method":"job","params":{"job":'"$jid"'}}' \
    | grep -q '"status":"running"' && break
  sleep 0.05
done
rpc "$SERVE_PORT" "$occupy" | grep -q '"status":"queued"'   # queue slot 1
rpc "$SERVE_PORT" "$occupy" | grep -q '"status":"queued"'   # queue slot 2
saturated=$(rpc "$SERVE_PORT" "$occupy")
echo "$saturated" | grep -q '503 Service Unavailable'
echo "$saturated" | grep -qi 'retry-after'
echo "$saturated" | grep -q '"kind":"full"'
http_get "$SERVE_PORT" /status | grep -q '"rejected":{"full":1,"draining":0}'
[ "$(grep -cE '"priority"|"client"' "$SERVEDIR/a/journal.jsonl")" -eq 0 ]
kill -9 "$SERVE_PID" 2>/dev/null; wait "$SERVE_PID" 2>/dev/null || true

# --- SIGKILL mid-job, restart, bit-identical resume (instance B) ---
serve_start "$SERVEDIR/b" "$SERVEDIR/b1.log" --workers 1 --chunk 100000
ref=$(rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":5,"method":"simulate","params":{"program":"'"$LONG"'","deadline_ms":120000}}' \
  | sed -n 's/.*"cycles":\([0-9]*\).*/\1/p' | head -1)
[ -n "$ref" ] && [ "$ref" -gt 100000 ]
resp=$(rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":6,"method":"simulate","params":{"program":"'"$LONG"'","wait":false,"deadline_ms":120000}}')
job=$(echo "$resp" | sed -n 's/.*"job":\([0-9]*\).*/\1/p' | head -1)
[ -n "$job" ]
for _ in $(seq 1 400); do   # wait for the first mid-run checkpoint
  [ -e "$SERVEDIR/b/job-$job.ckpt.snap" ] && break
  sleep 0.02
done
[ -e "$SERVEDIR/b/job-$job.ckpt.snap" ]
kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true

serve_start "$SERVEDIR/b" "$SERVEDIR/b2.log" --workers 1 --chunk 100000
grep -q "resuming journaled job $job" "$SERVEDIR/b2.log.err"
status=
for _ in $(seq 1 600); do
  status=$(rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":7,"method":"job","params":{"job":'"$job"'}}')
  echo "$status" | grep -q '"status":"done:completed"' && break
  sleep 0.1
done
echo "$status" | grep -q '"status":"done:completed"'
echo "$status" | grep -q '"restored":true'
resumed_cycles=$(echo "$status" | sed -n 's/.*"cycles":\([0-9]*\).*/\1/p' | head -1)
[ "$resumed_cycles" = "$ref" ] # bit-identical to the uninterrupted run

# --- SIGTERM drain with a job in flight: exit 0, nothing lost (instance B) ---
resp=$(rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":8,"method":"simulate","params":{"program":"'"$LONG"'","wait":false,"deadline_ms":120000}}')
job=$(echo "$resp" | sed -n 's/.*"job":\([0-9]*\).*/\1/p' | head -1)
for _ in $(seq 1 400); do
  [ -e "$SERVEDIR/b/job-$job.ckpt.snap" ] && break
  sleep 0.02
done
kill -TERM "$SERVE_PID"
rc=0; wait "$SERVE_PID" || rc=$?
[ "$rc" -eq 0 ] # graceful drain must exit 0 inside the drain deadline
serve_start "$SERVEDIR/b" "$SERVEDIR/b3.log" --workers 1 --chunk 100000
grep -q "resuming journaled job $job" "$SERVEDIR/b3.log.err"
for _ in $(seq 1 600); do
  rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":9,"method":"job","params":{"job":'"$job"'}}' \
    | grep -q '"status":"done:completed"' && break
  sleep 0.1
done
rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":10,"method":"job","params":{"job":'"$job"'}}' \
  | grep -q '"status":"done:completed"' # the parked job was never lost
kill -TERM "$SERVE_PID"
rc=0; wait "$SERVE_PID" || rc=$?
[ "$rc" -eq 0 ]

echo "== tier1: campaign analytics + live observability (sas-query, /metrics, /watch) =="
# The query layer (DESIGN.md §14) over the fig6 smoke manifest:
#   1. the ISSUE-10 acceptance query returns exactly 5 stt rows (the engine
#      itself is oracle-property-tested in crates/query/tests/query_prop.rs)
#      and emits a BENCH_query.json ingest/query-throughput artifact
#      (under $QUERYDIR, so the committed copy is left as it is);
#   2. three pinned queries (group-by/agg, aliased CPI filter, sorted row
#      slice) must render byte-identically to scripts/golden_queries.txt —
#      cycle counts are pinned by crates/bench/golden_fig6_cycles.txt;
#   3. against a live daemon: GET /watch/<job> streams ≥2 strictly
#      monotonic SSE progress frames plus a terminal done frame, GET
#      /metrics exposes request counters / latency histograms / job and
#      queue gauges, and the `query` RPC slices the journal + job table.
QUERYDIR=target/sas-query/tier1
rm -rf "$QUERYDIR"; mkdir -p "$QUERYDIR"

./target/release/sas-trace query \
  'where mitigation=stt and cpi.mem_bound>0 sort wall_ms desc limit 5' \
  --from target/sas-runner/tier1-fig6.jsonl \
  --bench "$QUERYDIR/BENCH_query.json" > "$QUERYDIR/acceptance.txt"
[ "$(tail -n +3 "$QUERYDIR/acceptance.txt" | wc -l)" -eq 5 ]
[ "$(grep -c '/stt' "$QUERYDIR/acceptance.txt")" -eq 5 ]
grep -q '"schema": "sas-bench-query-v1"' "$QUERYDIR/BENCH_query.json"
grep -q '"rows": 75' "$QUERYDIR/BENCH_query.json"
grep -q '"index_rows_per_sec"' "$QUERYDIR/BENCH_query.json"

{
  sed -n '1,/^$/p' scripts/golden_queries.txt   # keep the header comment
  grep '^\$ query ' scripts/golden_queries.txt | while IFS= read -r line; do
    q=${line#\$ query }
    echo "\$ query $q"
    ./target/release/sas-trace query "$q" \
      --from target/sas-runner/tier1-fig6.jsonl 2>/dev/null
    echo ''
  done
} > "$QUERYDIR/golden_queries.out"
# diff -u … trailing-newline nit: golden ends with one blank line per block
diff -u scripts/golden_queries.txt "$QUERYDIR/golden_queries.out"

# --- live daemon: SSE watch, metrics exposition, query RPC ---
serve_start "$SERVEDIR/q" "$SERVEDIR/q.log" --workers 1 --chunk 100000
http_get "$SERVE_PORT" /status | grep -q '"schema":"sas-serve-status-v3"'
resp=$(rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":11,"method":"simulate","params":{"program":"'"$LONG"'","wait":false,"deadline_ms":120000}}')
job=$(echo "$resp" | sed -n 's/.*"job":\([0-9]*\).*/\1/p' | head -1)
[ -n "$job" ]
# Blocks until the terminal done frame closes the stream.
http_get "$SERVE_PORT" "/watch/$job" > "$QUERYDIR/watch.sse"
grep -q '^event: done' "$QUERYDIR/watch.sse"
grep -A1 '^event: done' "$QUERYDIR/watch.sse" | grep -q '"status":"done:completed"'
[ "$(grep -c '^event: progress' "$QUERYDIR/watch.sse")" -ge 2 ]
# Progress cycles must be strictly monotonic (sort -cnu rejects disorder
# and duplicates).
sed -n 's/.*"cycle":\([0-9]*\).*/\1/p' "$QUERYDIR/watch.sse" | sort -cnu

http_get "$SERVE_PORT" /metrics > "$QUERYDIR/metrics.txt"
grep -q '^sas_serve_up 1$' "$QUERYDIR/metrics.txt"
grep -q '^sas_serve_jobs_total{outcome="completed"} 1$' "$QUERYDIR/metrics.txt"
grep -q '^sas_serve_requests_total{method="watch"} 1$' "$QUERYDIR/metrics.txt"
grep -q '^sas_serve_request_latency_us_count{method="rpc:simulate"} 1$' "$QUERYDIR/metrics.txt"
grep -q 'sas_serve_request_latency_us{method="watch",quantile="0.95"}' "$QUERYDIR/metrics.txt"
grep -q '^sas_serve_workers_alive 1$' "$QUERYDIR/metrics.txt"
grep -q '^sas_serve_journal_bytes ' "$QUERYDIR/metrics.txt"
[ "$(sed -n 's/^sas_serve_sse_events_total \([0-9]*\)$/\1/p' "$QUERYDIR/metrics.txt")" -ge 3 ]

rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":12,"method":"query","params":{"q":"show job,status,cycles where source=jobs sort job"}}' \
  | grep -q '"done:completed"'
rpc "$SERVE_PORT" '{"jsonrpc":"2.0","id":13,"method":"query","params":{"q":"where source=journal group by event agg count sort event"}}' \
  | grep -q '"columns":\["event","count"\]'
kill -TERM "$SERVE_PID"
rc=0; wait "$SERVE_PID" || rc=$?
[ "$rc" -eq 0 ]

echo "== tier1: OK =="
