#!/bin/sh
# Perf smoke test (ctest -L perf): run bench_a1 and bench_e7 (and, when
# given, bench_a4 and bench_e9) for a few iterations and diff them against
# the committed BENCH_baseline.json at a generous 2x threshold. This is not
# a measurement -- it exists to catch order-of-magnitude regressions (a
# lost fast path, a syscall back in the hot loop) in CI without demanding
# a quiet machine.
#
#   perf_smoke.sh BENCH_A1 BENCH_E7 [BENCH_A4] [BENCH_E9]
#
# The baseline may come from another, faster or slower, host (its entries
# carry no "host" fingerprint), so compare_benches.py does not compare its
# absolute ns: every ns row is judged on its ratio to the baseline divided
# by the same ratio of bench_e7's BM_OriginalCall, a plain native call
# through a function pointer that BREW never touches. That is why bench_e7
# is required. The calibration row is sampled in five bench_e7 processes
# spread over the run, and the comparator takes the median of the samples.
# The dimensionless metrics (speedups) are diffed against the baseline
# whatever host it comes from.
set -eu

usage="usage: perf_smoke.sh path/to/bench_a1_rewrite_cost path/to/bench_e7_variant_churn [bench_a4] [bench_e9]"
bin="${1:?$usage}"
bin_e7="${2:?$usage}"
bin_a4="${3:-}"
bin_e9="${4:-}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
baseline="$repo/BENCH_baseline.json"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Fresh private persistent-cache dir for the whole run: a warm inherited
# BREW_CACHE_DIR would serve the cold-rewrite benches from disk and fake
# (or mask) regressions. bench_e9 manages its own cold/warm dirs on top.
BREW_CACHE_DIR="$tmp/persist-cache"
export BREW_CACHE_DIR
mkdir -p "$BREW_CACHE_DIR"

# The baseline gate. The cached-hit path gets its own, much tighter
# threshold: it is the per-call cost every repeat client pays, and the
# sharded cache serves it lock-free — a mutex or shared cache line creeping
# back in shows up well below the generic 2x noise allowance. Same idea for
# the dispatch stub: BM_DispatchMonomorphic is a handful of ns per call, so
# anything beyond noise (an extra load, a lock) trips the tighter 1.5x
# bound. The pass-ablation pair gets per-bench bounds too: BM_WithPasses is
# the SLP-vectorized kernel (a lost packing proof shows as a jump well
# inside 2x), while BM_WithoutPasses is the scalar reference and only
# guards against pipeline-wide regressions. BM_RewritePgasStyleBranchy is
# the block-chained tier's cold-compile gate (docs/BLOCKS.md): losing
# terminator chaining or reconvergence merging roughly doubles it, so the
# 1.5x bound trips well before the generic threshold while still riding
# out CI noise. Against a baseline from another host every bound applies
# to the host-normalized ratio.
gate_args="--threshold 2.0
  --per-bench BM_RewriteApplyCached=1.25
  --per-bench BM_RewritePgasStyleBranchy=1.5
  --per-bench BM_DispatchMonomorphic=1.5
  --per-bench BM_WithPasses=1.5
  --per-bench BM_WithoutPasses=1.75"

# Self-test the comparator before trusting its verdicts, on synthetic
# inputs made from the committed baseline (which has no "host"):
#   truncated  an entry stripped of a required section: exit 2, not a
#              traceback or a silent all-OK pass;
#   scaled     every ns value, the calibration row's included, x2.0: a
#              uniformly slower host is not a regression;
#   cached     BM_RewriteApplyCached x1.5 on an unchanged calibration
#              row: the normalization must not blind the gate;
#   nocal      the calibration row deleted: exit 2, naming it;
#   hostb/c    equal "host" on both sides, the current side scaled x2.0
#              and stripped of its calibration row: the same host needs
#              no calibration, and x2.0 fails the 1.25x cached-hit bound;
#   dropped    warmstart_speedup divided by 2.5: a metric drop fails
#              against a baseline from any host.
calibrate=bench_e7_variant_churn/BM_OriginalCall
python3 - "$baseline" "$tmp" "$calibrate" <<'EOF'
import copy, json, os, sys
with open(sys.argv[1]) as f:
    base = json.load(f)
out, calibrate = sys.argv[2], sys.argv[3]
cal_binary, cal_name = calibrate.split("/")


def variant(source, edit):
    data = copy.deepcopy(source)
    for binary, entry in data.items():
        edit(binary, entry)
    return data


def truncate(binary, entry):
    if binary == next(iter(base)):
        del entry["latency"]


def scale(binary, entry):
    for row in entry["benchmarks"]:
        row["ns_per_op"] *= 2.0
    for sec in ("phases", "latency"):
        for row in entry[sec]:
            for k in row:
                if k.endswith("_ns"):
                    row[k] *= 2.0


def slow_cached(binary, entry):
    for row in entry["benchmarks"]:
        if row["name"] == "BM_RewriteApplyCached":
            row["ns_per_op"] *= 1.5


def drop_cal(binary, entry):
    if binary == cal_binary:
        entry["benchmarks"] = [r for r in entry["benchmarks"]
                               if r["name"] != cal_name]


def drop_warmstart(binary, entry):
    for row in entry["metrics"]:
        if row["name"] == "warmstart_speedup":
            row["value"] /= 2.5


def with_host(binary, entry):
    entry["host"] = {"nproc": 1, "cpu": "self-test",
                     "build_type": "RelWithDebInfo"}


scaled = variant(base, scale)
for name, data in (("truncated", variant(base, truncate)),
                   ("scaled", scaled),
                   ("cached", variant(base, slow_cached)),
                   ("nocal", variant(base, drop_cal)),
                   ("hostb", variant(base, with_host)),
                   ("hostc", variant(variant(scaled, drop_cal), with_host)),
                   ("dropped", variant(base, drop_warmstart))):
    with open(os.path.join(out, name + ".json"), "w") as f:
        json.dump(data, f)
EOF

# selftest WANT_RC PATTERN BASELINE CURRENT [compare_benches.py args...]
selftest() {
  want="$1"; pattern="$2"; shift 2
  rc=0
  python3 "$repo/scripts/compare_benches.py" "$@" \
    >"$tmp/selftest.log" 2>&1 || rc=$?
  if [ "$rc" -ne "$want" ] || ! grep -q -- "$pattern" "$tmp/selftest.log"
  then
    echo "compare_benches.py self-test failed (rc=$rc, want $want," \
      "expecting '$pattern'): $*" >&2
    cat "$tmp/selftest.log" >&2
    exit 1
  fi
}
# $gate_args is split into words on purpose.
selftest 2 "missing required section" "$tmp/truncated.json" "$baseline"
selftest 0 "host factor 2.00x" "$baseline" "$tmp/scaled.json" $gate_args
selftest 1 "REGRESSION  bench bench_a1_rewrite_cost/BM_RewriteApplyCached" \
  "$baseline" "$tmp/cached.json" $gate_args
selftest 2 "calibration row '$calibrate' is missing from current" \
  "$baseline" "$tmp/nocal.json" $gate_args
selftest 1 "BM_RewriteApplyCached: 762.6 -> 1525.3 ns (2.00x same host" \
  "$tmp/hostb.json" "$tmp/hostc.json" $gate_args
selftest 1 "REGRESSION  metric bench_e9_coldstart/warmstart_speedup:" \
  "$baseline" "$tmp/dropped.json" $gate_args

# Every row runs for at least 0.5 s (google-benchmark takes a plain number
# of seconds; it rejects "0.05s"). 0.05 s rows made the tight gates flag
# 7 of 10 runs instead of 5 of 10 on a 4-vCPU Xeon VM.
#
# One calibration sample: a bench_e7 process that runs BM_OriginalCall
# alone. The merge step adds its row to bench_e7's entry.
calibration_sample() {
  "$bin_e7" "--json=$tmp/cal$1.json" --benchmark_filter='^BM_OriginalCall$' \
    --benchmark_min_time=0.5 >"$tmp/cal.log" 2>&1 || {
    cat "$tmp/cal.log"
    exit 1
  }
}

calibration_sample 1
BREW_BENCH_ITERATIONS=20 "$bin" "--json=$tmp/a1.json" \
  --benchmark_min_time=0.5 >"$tmp/a1.log" 2>&1 || {
  cat "$tmp/a1.log"
  exit 1
}
calibration_sample 2
"$bin_e7" "--json=$tmp/e7.json" \
  --benchmark_min_time=0.5 >"$tmp/e7.log" 2>&1 || {
  cat "$tmp/e7.log"
  exit 1
}

only_args="--only bench_a1_rewrite_cost --only bench_e7_variant_churn"
if [ -n "$bin_a4" ]; then
  BREW_BENCH_ITERATIONS=20 "$bin_a4" "--json=$tmp/a4.json" \
    --benchmark_min_time=0.5 >"$tmp/a4.log" 2>&1 || {
    cat "$tmp/a4.log"
    exit 1
  }
  only_args="$only_args --only bench_a4_passes_ablation"
fi
calibration_sample 3
min_ratio_args=""
if [ -n "$bin_e9" ]; then
  BREW_BENCH_ITERATIONS=20 "$bin_e9" "--json=$tmp/e9.json" \
    --benchmark_min_time=0.5 >"$tmp/e9.log" 2>&1 || {
    cat "$tmp/e9.log"
    exit 1
  }
  only_args="$only_args --only bench_e9_coldstart"
  # Absolute floor, not a baseline diff: restarting warm off the on-disk
  # cache must reach full cached-hit throughput at least 5x faster than a
  # cold start, whatever this machine's absolute speed.
  min_ratio_args="--min-ratio warmstart_speedup=5.0"
fi
calibration_sample 4

# Wrap the single-binary outputs in the merged run_benches.sh shape so the
# keys line up with the committed baseline; each entry keeps its own
# "host" fingerprint. The calibration samples join bench_e7's rows.
python3 - "$tmp" <<'EOF'
import json, os, sys
tmp = sys.argv[1]
merged = {}
for short, name in (("a1", "bench_a1_rewrite_cost"),
                    ("e7", "bench_e7_variant_churn"),
                    ("a4", "bench_a4_passes_ablation"),
                    ("e9", "bench_e9_coldstart")):
    path = os.path.join(tmp, short + ".json")
    if os.path.exists(path):
        with open(path) as f:
            merged[name] = json.load(f)
for i in range(1, 5):
    with open(os.path.join(tmp, f"cal{i}.json")) as f:
        merged["bench_e7_variant_churn"]["benchmarks"] += [
            row for row in json.load(f)["benchmarks"]
            if row["name"] == "BM_OriginalCall"]
with open(os.path.join(tmp, "merged.json"), "w") as f:
    json.dump(merged, f)
EOF

python3 "$repo/scripts/compare_benches.py" "$baseline" "$tmp/merged.json" \
  $only_args $gate_args $min_ratio_args
