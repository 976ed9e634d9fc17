#!/usr/bin/env bash
# The repository's host-time benchmark: builds the release binaries and the
# benchmark crate offline, then measures workloads.
#
#   hostbench/run.sh [--workload NAME|all] [--seed N] [--seconds 12]
#                    [--trace [0|1]] [--out DIR]
#   hostbench/run.sh compare A_DIR B_DIR
#
# One workload: prints `metric workload value unit` lines and, as the last
# line of stdout, its one-line JSON result (`correct`, `attempted`,
# `failed`, `metrics`); with --trace 1 the metrics are the per-layer ones.
# `all` (the default) runs every workload untraced and, with --trace,
# every workload traced after that, and its last line folds all of those
# runs into one result (`sas-hostbench summary`). Every run measures for
# 12 s; `--seconds` may state that length but not change it. Each run also
# writes a results file to DIR (default hostbench/target/results/latest);
# `compare` judges two such directories. Exits nonzero when a correctness
# check fails.
#
# Builds go to $CARGO_TARGET_DIR (a relative one is taken from the
# repository root; the root .gitignore lists `.bench_build/` for that
# use), else to hostbench/target/cargo.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "run.sh: $root holds no checkout of the repository (no Cargo.toml or crates/)" >&2
  exit 2
fi

usage() {
  sed -n '5,6p' "$0" | sed 's/^#  */usage: /' >&2
  exit 2
}

# The run length in seconds, the same as RUN_SECONDS in src/main.rs and
# run_seconds in BENCHMARK.json.
run_seconds=12
mode=run workload=all seed=1 trace=0 out=hostbench/target/results/latest
if [ "${1:-}" = compare ]; then
  [ $# -eq 3 ] || usage
  mode=compare
else
  while [ $# -gt 0 ]; do
    case $1 in
      --workload) workload=${2:?}; shift 2 ;;
      --seed) seed=${2:?}; shift 2 ;;
      --seconds)
        if [ "${2:-}" != "$run_seconds" ]; then
          echo "run.sh: every run measures for $run_seconds s; --seconds ${2:-} cannot change that" >&2
          exit 2
        fi
        shift 2 ;;
      --trace)
        if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace=$2; shift 2; else trace=1; shift; fi ;;
      --out) out=${2:?}; shift 2 ;;
      *) usage ;;
    esac
  done
fi

# Settings of the calling shell must not change what is built or measured.
for v in $(compgen -e); do
  case $v in SAS_*) unset "$v" ;; esac
done
export RUSTFLAGS="-D warnings"
target=${CARGO_TARGET_DIR:-hostbench/target/cargo}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target
bin=$target/release

{
  cargo build --release --offline -p sas-runner -p specasan-suite --bin sas-runner --bin sas-serve
  cargo build --release --offline --manifest-path hostbench/Cargo.toml
} 1>&2

if [ "$mode" = compare ]; then
  exec "$bin/sas-hostbench" compare "$2" "$3"
fi

# The benchmark runs in a process group of its own; whatever way this
# script ends, the group (the benchmark, sas-serve, sas-runner and its
# cells) is killed and gone before it exits.
group=
stop_group() {
  [ -n "$group" ] || return 0
  kill -KILL -- "-$group" 2>/dev/null || true
  wait "$group" 2>/dev/null || true
  for _ in $(seq 1 100); do
    kill -0 -- "-$group" 2>/dev/null || break
    sleep 0.05
  done
  group=
}
trap stop_group EXIT
trap 'exit 130' INT TERM

files=()
run_one() { # run_one <workload> <0|1>
  local name=$1 traced=$2 suffix= rc=0
  [ "$traced" = 1 ] && suffix=-traced
  local file=$out/$name-seed$seed$suffix.json
  rm -f "$file"
  files+=("$file")
  set -m
  "$bin/sas-hostbench" run --workload "$name" --seed "$seed" --trace "$traced" \
    --bin-dir "$bin" --state-dir "hostbench/target/state/$name" --out "$file" &
  group=$!
  set +m
  wait "$group" || rc=$?
  stop_group
  return "$rc"
}

mkdir -p "$out"
if [ "$workload" != all ]; then
  run_one "$workload" "$trace"
  exit
fi
failed=0
for w in $("$bin/sas-hostbench" workloads); do
  run_one "$w" 0 || failed=1
done
if [ "$trace" = 1 ]; then
  for w in $("$bin/sas-hostbench" workloads); do
    run_one "$w" 1 || failed=1
  done
fi
echo "run.sh: results in $out" >&2
"$bin/sas-hostbench" summary "${files[@]}" || failed=1
exit "$failed"
