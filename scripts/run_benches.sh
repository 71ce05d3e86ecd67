#!/bin/sh
# Runs every bench binary with --json output and merges the per-binary
# results into one BENCH_results.json at the repo root:
#
#   scripts/run_benches.sh [--threads LIST] [build-dir]   (default: build)
#
# Each entry carries the binary's host fingerprint (nproc, CPU model,
# build type), its microbenchmark runs (name, iterations, ns/op), the
# rewrite-pipeline phase-time breakdown from the telemetry registry, and
# its shape-check verdict. Console output still goes to the
# terminal, so this is a superset of running the binaries by hand.
#
# --threads sets the thread-count matrix for the multi-threaded benches
# (exported as BREW_BENCH_THREADS, e.g. --threads 1,2,4,8): bench_e6
# emits one ".../threads:N" entry per count into BENCH_results.json.
set -eu
cd "$(dirname "$0")/.."

threads=""
build_dir=build
while [ $# -gt 0 ]; do
  case "$1" in
    --threads) threads="${2:?--threads needs a comma list}"; shift ;;
    --threads=*) threads="${1#*=}" ;;
    *) build_dir="$1" ;;
  esac
  shift
done
if [ -n "$threads" ]; then
  BREW_BENCH_THREADS="$threads"
  export BREW_BENCH_THREADS
fi
if [ ! -d "$build_dir/bench" ]; then
  echo "no $build_dir/bench — configure and build first" >&2
  exit 1
fi

out=BENCH_results.json
tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

# Every run gets a fresh, private persistent-cache directory (cleaned with
# the temp dir): a stale BREW_CACHE_DIR pointing at a warm store would turn
# the cold-rewrite benches into disk loads and corrupt the numbers.
BREW_CACHE_DIR="$tmp_dir/persist-cache"
export BREW_CACHE_DIR
mkdir -p "$BREW_CACHE_DIR"

status=0
ran=0
printf '{\n' > "$out"
first=1
for bin in "$build_dir"/bench/bench_*; do
  # A bench_* path that is not an executable file means the glob matched
  # nothing or a binary failed to build — either way the sweep is
  # incomplete, so fail loudly instead of silently skipping.
  if [ ! -x "$bin" ]; then
    echo "MISSING bench binary: $bin (build incomplete?)" >&2
    status=1
    continue
  fi
  ran=$((ran + 1))
  name=$(basename "$bin")
  echo "=== $name ==="
  if ! "$bin" "--json=$tmp_dir/$name.json"; then
    echo "FAILED: $name" >&2
    status=1
  fi
  if [ ! -f "$tmp_dir/$name.json" ]; then
    echo "NO JSON from $name ($tmp_dir/$name.json missing)" >&2
    status=1
    continue
  fi
  [ $first -eq 1 ] || printf ',\n' >> "$out"
  first=0
  printf '  "%s": ' "$name" >> "$out"
  sed 's/^/  /' "$tmp_dir/$name.json" | sed '1s/^  //' >> "$out"
done
printf '\n}\n' >> "$out"

if [ "$ran" -eq 0 ]; then
  echo "no bench binaries found under $build_dir/bench" >&2
  status=1
fi
echo "wrote $out"
exit $status
