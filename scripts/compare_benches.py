#!/usr/bin/env python3
"""Compare two BENCH_results.json files and fail on regressions.

Usage:
    scripts/compare_benches.py BASELINE CURRENT [options]

Both inputs are the merged format written by scripts/run_benches.sh:
one object keyed by bench binary, each entry holding "host" (the
nproc/cpu/build_type fingerprint of the machine and build that produced
it), "benchmarks" (name/iterations/ns_per_op), "phases" (name/count/
avg_ns/p50_ns/p99_ns/p999_ns/max_ns) and "latency" (same quantile shape,
per-operation distributions). A bare single-binary --json file (one
{"benchmarks": ...} object) is also accepted on either side.

A benchmark regresses when current ns_per_op exceeds baseline ns_per_op
by more than its threshold ratio (default --threshold, overridable per
benchmark with --per-bench). Latency distributions are gated on their
p99_ns the same way — a tail regression fails even when the mean is
flat.

Absolute nanoseconds from two different machines are not comparable.
An ns-valued row (bench, latency-p99 and, with --phases, the phase
sections) whose two entries carry equal "host" fingerprints is judged
on its raw ratio cur/base. When the fingerprints differ, or either is
missing, the row is judged on (cur/base) / (cur_cal/base_cal) instead:
its raw ratio divided by the host factor, where cal is the calibration
row bench_e7_variant_churn/BM_OriginalCall (a plain native call through
a function pointer that BREW never touches), taken as the median of all
of that row's samples on each side. The thresholds are the same either
way, both ratios are printed, and the calibration row itself is not
gated across hosts. A cross-host comparison without the calibration row
on both sides is refused (exit 2).

Named scalar metrics (the "metrics" section, e.g. the speedup_vs_manual
ratios bench_e1/e2 emit) are dimensionless and higher-is-better: they
regress when current drops below baseline by more than the threshold,
whichever hosts the two sides come from. --min-ratio NAME=VALUE also
enforces an absolute floor on the current value (missing metric =
failure). Benchmarks present on only one side are reported but are not
failures — the suite grows over time. Exit status is 1 when any
regression is found, 2 on malformed input, else 0.

Examples:
    scripts/compare_benches.py BENCH_baseline.json BENCH_results.json
    scripts/compare_benches.py BENCH_baseline.json merged.json \
        --only bench_a1_rewrite_cost --threshold 2.0 \
        --per-bench BM_RewriteApplyCached=1.25
    scripts/compare_benches.py BENCH_baseline.json BENCH_results.json \
        --min-ratio speedup_vs_manual=0.55 --min-ratio speedup_vs_generic=1.3
"""

import argparse
import json
import sys


# Sections every merged-format entry must carry. run_benches.sh always
# writes all three; a missing one means a truncated or hand-edited file,
# which must fail loudly here instead of silently comparing nothing (or
# blowing up with a KeyError deep in the walk).
REQUIRED_SECTIONS = ("benchmarks", "latency", "metrics")

# The row that measures the host rather than the program: the ratio of
# its two sides is the host factor divided out of cross-host ns rows.
CALIBRATION_BINARY = "bench_e7_variant_churn"
CALIBRATION_NAME = "BM_OriginalCall"
CALIBRATION = f"{CALIBRATION_BINARY}/{CALIBRATION_NAME}"


def load(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be an object")
    # Bare single-binary file: wrap it so both formats walk the same way.
    # (Only "benchmarks" is required of this form — a raw google-benchmark
    # --benchmark_out json has no latency/metrics sections.)
    if "benchmarks" in data or "phases" in data:
        return {"": data}
    for name, entry in data.items():
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: entry {name!r} must be an object")
        for sec in REQUIRED_SECTIONS:
            if sec not in entry:
                raise ValueError(f"{path}: entry {name!r} missing required "
                                 f"section {sec!r}")
            if not isinstance(entry[sec], list):
                raise ValueError(f"{path}: entry {name!r} section {sec!r} "
                                 f"must be a list")
    return data


def flatten(tree, kind, value_key):
    """{"<binary>/<name>": value} for every benchmark or phase entry."""
    flat = {}
    for binary, entry in tree.items():
        for row in entry.get(kind, []):
            name = row.get("name")
            value = row.get(value_key)
            if name is None or not isinstance(value, (int, float)):
                continue
            flat[f"{binary}/{name}" if binary else name] = float(value)
    return flat


def host_of(tree, key):
    """The "host" fingerprint of the entry a flattened key came from."""
    for binary, entry in tree.items():
        if not binary or key.startswith(binary + "/"):
            return entry.get("host")
    return None


def calibration_ns(tree):
    """Median ns_per_op over every sample of the calibration row, or None.

    A bare single-binary file counts as bench_e7_variant_churn's."""
    samples = []
    for binary, entry in tree.items():
        if binary not in ("", CALIBRATION_BINARY):
            continue
        for row in entry.get("benchmarks", []):
            value = row.get("ns_per_op")
            if (row.get("name") == CALIBRATION_NAME
                    and isinstance(value, (int, float)) and value > 0):
                samples.append(float(value))
    if not samples:
        return None
    samples.sort()
    mid = len(samples) // 2
    return (samples[mid] if len(samples) % 2 else
            (samples[mid - 1] + samples[mid]) / 2)


def match(flat, name):
    """Entries whose trailing path component or full key equals `name`."""
    return {k: v for k, v in flat.items()
            if k == name or k.rsplit("/", 1)[-1] == name}


def main():
    parser = argparse.ArgumentParser(
        description="diff two BENCH_results.json files")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=1.10,
                        help="allowed current/baseline ns_per_op ratio "
                             "(default 1.10 = +10%%)")
    parser.add_argument("--per-bench", action="append", default=[],
                        metavar="NAME=RATIO",
                        help="per-benchmark threshold override; NAME matches "
                             "the benchmark name or binary/name path")
    parser.add_argument("--only", action="append", default=[],
                        metavar="NAME",
                        help="restrict the comparison to these binaries or "
                             "benchmark names")
    parser.add_argument("--phases", action="store_true",
                        help="also compare phase avg_ns values against the "
                             "same thresholds")
    parser.add_argument("--min-ratio", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="absolute floor for a 'metrics' entry in "
                             "CURRENT (e.g. speedup_vs_manual=0.55); a "
                             "missing metric fails the gate")
    args = parser.parse_args()

    def parse_pairs(specs, flag):
        pairs = {}
        for spec in specs:
            name, sep, value = spec.partition("=")
            if not sep:
                print(f"bad {flag} {spec!r}: expected NAME=VALUE",
                      file=sys.stderr)
                return None
            try:
                pairs[name] = float(value)
            except ValueError:
                print(f"bad {flag} value in {spec!r}", file=sys.stderr)
                return None
        return pairs

    overrides = parse_pairs(args.per_bench, "--per-bench")
    floors = parse_pairs(args.min_ratio, "--min-ratio")
    if overrides is None or floors is None:
        return 2

    try:
        base = load(args.baseline)
        cur = load(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    def threshold_for(key):
        short = key.rsplit("/", 1)[-1]
        if key in overrides:
            return overrides[key]
        if short in overrides:
            return overrides[short]
        return args.threshold

    def selected(key):
        if not args.only:
            return True
        binary, _, short = key.rpartition("/")
        return any(sel in (key, binary, short) for sel in args.only)

    def same_host(key):
        host = host_of(base, key)
        return host is not None and host == host_of(cur, key)

    sections = [("bench", flatten(base, "benchmarks", "ns_per_op"),
                 flatten(cur, "benchmarks", "ns_per_op")),
                ("latency-p99", flatten(base, "latency", "p99_ns"),
                 flatten(cur, "latency", "p99_ns"))]
    if args.phases:
        sections.append(("phase", flatten(base, "phases", "avg_ns"),
                         flatten(cur, "phases", "avg_ns")))
        sections.append(("phase-p99", flatten(base, "phases", "p99_ns"),
                         flatten(cur, "phases", "p99_ns")))

    # Host factor, needed once any compared ns row crosses hosts.
    factor = None
    if any(not same_host(key)
           for _, base_flat, cur_flat in sections
           for key in set(base_flat) & set(cur_flat) if selected(key)):
        cal = []
        for side, path, tree in (("baseline", args.baseline, base),
                                 ("current", args.current, cur)):
            value = calibration_ns(tree)
            if value is None:
                print(f"error: absolute ns from different or unknown hosts "
                      f"are not comparable, and calibration row "
                      f"'{CALIBRATION}' is missing from {side} {path}",
                      file=sys.stderr)
                return 2
            cal.append(value)
        factor = cal[1] / cal[0]
        print(f"  calibration  {CALIBRATION}: {cal[0]:.3f} -> "
              f"{cal[1]:.3f} ns (host factor {factor:.2f}x)")

    regressions = 0
    compared = 0
    for label, base_flat, cur_flat in sections:
        for key in sorted(set(base_flat) | set(cur_flat)):
            if not selected(key):
                continue
            b = base_flat.get(key)
            c = cur_flat.get(key)
            if b is None or c is None:
                side = "baseline" if b is None else "current"
                print(f"  note  {label} {key}: only in "
                      f"{'current' if b is None else 'baseline'} "
                      f"({side} missing counterpart)")
                continue
            cross = not same_host(key)
            if cross and label == "bench" and key in (CALIBRATION,
                                                      CALIBRATION_NAME):
                continue
            compared += 1
            limit = threshold_for(key)
            raw = c / b if b > 0 else float("inf") if c > 0 else 1.0
            ratio = raw / factor if cross else raw
            status = "OK"
            if ratio > limit:
                status = "REGRESSION"
                regressions += 1
            elif ratio < 1.0:
                status = "improved"
            judged = (f"{raw:.2f}x raw, {ratio:.2f}x normalized"
                      if cross else f"{ratio:.2f}x same host")
            print(f"  {status:>10}  {label} {key}: {b:.1f} -> {c:.1f} ns "
                  f"({judged}, limit {limit:.2f}x)")

    # Named metrics: higher is better, so the regression direction flips.
    base_metrics = flatten(base, "metrics", "value")
    cur_metrics = flatten(cur, "metrics", "value")
    for key in sorted(set(base_metrics) | set(cur_metrics)):
        if not selected(key):
            continue
        b = base_metrics.get(key)
        c = cur_metrics.get(key)
        if b is None or c is None:
            print(f"  note  metric {key}: only in "
                  f"{'current' if b is None else 'baseline'}")
            continue
        compared += 1
        limit = threshold_for(key)
        ratio = b / c if c > 0 else float("inf") if b > 0 else 1.0
        status = "OK"
        if ratio > limit:
            status = "REGRESSION"
            regressions += 1
        elif ratio < 1.0:
            status = "improved"
        print(f"  {status:>10}  metric {key}: {b:.3f} -> {c:.3f} "
              f"(kept {1 / ratio:.2f}x, limit {limit:.2f}x drop)")

    # Absolute floors on current metrics (--min-ratio).
    for name, floor in sorted(floors.items()):
        found = {k: v for k, v in match(cur_metrics, name).items()
                 if selected(k)}
        if not found:
            print(f"  REGRESSION  metric {name}: missing from current "
                  f"(floor {floor:.3f})")
            regressions += 1
            continue
        for key, value in sorted(found.items()):
            compared += 1
            ok = value >= floor
            if not ok:
                regressions += 1
            print(f"  {'OK' if ok else 'REGRESSION':>10}  metric {key}: "
                  f"{value:.3f} (floor {floor:.3f})")

    if compared == 0:
        print("error: no overlapping benchmarks to compare", file=sys.stderr)
        return 2
    print(f"{compared} compared, {regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
