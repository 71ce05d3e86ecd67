#!/bin/sh
# End-to-end observability check (ctest: check_observability):
#
#   scripts/check_observability.sh path/to/quickstart path/to/support_crash_test
#
# 1. Runs the quickstart example under BREW_STATS=1 + BREW_TRACE_FILE and
#    asserts the stats summary reports histogram quantiles and the trace
#    file was written as trace-event JSON, with no temporary left behind.
# 2. Runs the crash-attribution suite and asserts the forked children's
#    reports (inherited stderr) name a specialization and carry the flight
#    recorder dump.
set -eu

quickstart="${1:?usage: check_observability.sh quickstart support_crash_test}"
crash_test="${2:?usage: check_observability.sh quickstart support_crash_test}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# --- 1: quantile summary + trace export over a real workload ------------

BREW_STATS=1 BREW_TRACE_FILE="$tmp/trace.json" \
  "$quickstart" >"$tmp/quickstart.log" 2>&1 \
  || fail "quickstart failed under BREW_STATS (see $tmp/quickstart.log)"

[ -s "$tmp/trace.json" ] || fail "BREW_TRACE_FILE was not written"
python3 - "$tmp/trace.json" <<'EOF' || exit 1
import json, sys
with open(sys.argv[1]) as f:
    t = json.load(f)
if not isinstance(t.get("traceEvents"), list):
    print("FAIL: trace JSON has no traceEvents list", file=sys.stderr)
    sys.exit(1)
EOF

# BREW_STATS=1 must report the tail quantiles the HDR histograms exist for.
grep -q "p50" "$tmp/quickstart.log" \
  || fail "BREW_STATS summary lacks histogram quantiles"
grep -q "p999" "$tmp/quickstart.log" \
  || fail "BREW_STATS summary lacks p999"

# No leftover .tmp from the crash-safe exporter.
for f in "$tmp"/*.tmp; do
  if [ -e "$f" ]; then fail "exporter left temporary file $f"; fi
done

# --- 2: crash attribution ------------------------------------------------

"$crash_test" >"$tmp/crash.log" 2>&1 \
  || { cat "$tmp/crash.log"; fail "support_crash_test failed"; }

# The forked children die inside rewritten code; their reports arrive on
# the inherited stderr. One grep per required report section.
grep -q "=== brew crash report" "$tmp/crash.log" \
  || fail "no crash report on child stderr"
grep -q "specialization:" "$tmp/crash.log" \
  || fail "crash report does not name a specialization"
grep -q "config_fingerprint:" "$tmp/crash.log" \
  || fail "crash report lacks the config fingerprint"
grep -q "flight recorder" "$tmp/crash.log" \
  || fail "crash report lacks the flight-recorder dump"

echo "observability checks passed"
