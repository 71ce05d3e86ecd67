// Shared harness for the paper-reproduction benchmarks.
//
// Every bench binary prints the table the paper reports (paper value vs
// measured value, both normalized to the baseline row) and then checks the
// SHAPE of the result — who wins and by roughly what factor — rather than
// absolute seconds: the substrate is this container's CPU, not the paper's
// i7-3740QM (see DESIGN.md §2). Each binary also registers
// google-benchmark microbenchmarks for the per-call kernels.
#pragma once

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace brew::bench {

class PaperTable {
 public:
  PaperTable(std::string experiment, std::string title)
      : experiment_(std::move(experiment)), title_(std::move(title)) {}

  // paperSeconds < 0 marks a row the paper has no number for (our
  // extension measurements).
  void addRow(const std::string& name, double paperSeconds,
              double measuredSeconds) {
    rows_.push_back({name, paperSeconds, measuredSeconds});
  }

  double measured(size_t row) const { return rows_[row].measured; }

  void print() const {
    std::printf("\n=== %s: %s ===\n", experiment_.c_str(), title_.c_str());
    std::printf("%-34s %12s %9s %12s %9s\n", "configuration", "paper[s]",
                "rel", "measured[s]", "rel");
    const double paperBase = rows_.empty() ? 1.0 : rows_[0].paper;
    const double measuredBase = rows_.empty() ? 1.0 : rows_[0].measured;
    for (const Row& row : rows_) {
      if (row.paper >= 0)
        std::printf("%-34s %12.2f %8.0f%% %12.3f %8.0f%%\n",
                    row.name.c_str(), row.paper,
                    100.0 * row.paper / paperBase, row.measured,
                    100.0 * row.measured / measuredBase);
      else
        std::printf("%-34s %12s %9s %12.3f %8.0f%%\n", row.name.c_str(),
                    "-", "-", row.measured,
                    100.0 * row.measured / measuredBase);
    }
  }

 private:
  struct Row {
    std::string name;
    double paper;
    double measured;
  };
  std::string experiment_;
  std::string title_;
  std::vector<Row> rows_;
};

// Shape assertions: printed PASS/FAIL, aggregated into the process exit
// code so the harness run surfaces regressions.
class ShapeChecks {
 public:
  void expect(bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures_;
  }
  // a should be faster than b by at least `factor`.
  void expectFaster(double a, double b, double factor,
                    const std::string& what) {
    expect(a * factor <= b, what);
  }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

namespace detail {
// Registry behind latencyHistogram(); also walked by the JSON exporter.
struct LatencyRegistry {
  std::mutex mu;
  std::vector<std::pair<std::string, std::unique_ptr<telemetry::Histogram>>>
      rows;
};
inline LatencyRegistry& latencyRegistry() {
  static LatencyRegistry registry;
  return registry;
}
// Registry behind recordMetric(); walked by the JSON exporter.
struct MetricRegistry {
  std::mutex mu;
  std::vector<std::pair<std::string, double>> rows;
};
inline MetricRegistry& metricRegistry() {
  static MetricRegistry registry;
  return registry;
}
}  // namespace detail

// Named scalar result — a speedup ratio, a derived figure of merit —
// exported to the JSON "metrics" section. Re-recording a name overwrites
// it. scripts/compare_benches.py diffs metrics higher-is-better and gates
// absolute floors with --min-ratio NAME=VALUE.
inline void recordMetric(const std::string& name, double value) {
  detail::MetricRegistry& reg = detail::metricRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& [n, v] : reg.rows)
    if (n == name) {
      v = value;
      return;
    }
  reg.rows.emplace_back(name, value);
}

// Named per-operation latency histograms, separate from the telemetry
// registry (which covers the rewrite pipeline, not the bench bodies).
// Record one nanosecond value per operation; finish() exports every
// non-empty histogram to the JSON "latency" section with p50/p99/p999.
// Recording is lock-free (the histogram is atomics); only the by-name
// lookup takes a lock, so resolve the reference outside timed loops.
inline telemetry::Histogram& latencyHistogram(const std::string& name) {
  detail::LatencyRegistry& reg = detail::latencyRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& [n, h] : reg.rows)
    if (n == name) return *h;
  reg.rows.emplace_back(name, std::make_unique<telemetry::Histogram>());
  return *reg.rows.back().second;
}

inline double timeIt(const std::function<void()>& fn) {
  Timer timer;
  fn();
  return timer.seconds();
}

// Best-of-N timing for small measurements on a shared/noisy machine.
inline double bestOf(int n, const std::function<void()>& fn) {
  double best = 1e300;
  for (int i = 0; i < n; ++i) {
    Timer timer;
    fn();
    best = std::min(best, timer.seconds());
  }
  return best;
}

namespace detail {

// Console reporter that additionally captures every run for --json output.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Run {
    std::string name;
    int64_t iterations;
    double nsPerOp;
  };

  void ReportRuns(const std::vector<benchmark::BenchmarkReporter::Run>& runs)
      override {
    for (const auto& run : runs) {
      if (run.error_occurred || run.iterations <= 0) continue;
      captured.push_back(
          Run{run.benchmark_name(), run.iterations,
              run.real_accumulated_time /
                  static_cast<double>(run.iterations) * 1e9});
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Run> captured;
};

inline void appendEscaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

#ifndef BREW_BENCH_BUILD_TYPE
#define BREW_BENCH_BUILD_TYPE "unknown"
#endif

// The JSON "host" object: which machine and build produced the numbers.
// scripts/compare_benches.py compares absolute ns only between entries
// with an equal fingerprint; across hosts it divides out the host factor
// measured by bench_e7's BM_OriginalCall.
inline std::string hostJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        cpu = line.substr(colon + 2);
      break;
    }
  }
  std::string out = "{\"nproc\": ";
  out += std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu\": \"";
  appendEscaped(out, cpu);
  out += "\", \"build_type\": \"";
  appendEscaped(out, BREW_BENCH_BUILD_TYPE);
  out += "\"}";
  return out;
}

// Machine-readable result file: the host fingerprint, one object per
// microbenchmark plus the rewrite-pipeline phase breakdown from the
// telemetry registry (scripts/run_benches.sh merges these into
// BENCH_results.json).
inline bool writeJsonResults(const char* path,
                             const std::vector<CapturingReporter::Run>& runs,
                             int shapeFailures) {
  std::string out = "{\n  \"host\": " + hostJson() + ",\n  \"benchmarks\": [";
  bool first = true;
  char buf[128];
  for (const auto& run : runs) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    appendEscaped(out, run.name);
    std::snprintf(buf, sizeof buf,
                  "\", \"iterations\": %lld, \"ns_per_op\": %.3f}",
                  static_cast<long long>(run.iterations), run.nsPerOp);
    out += buf;
  }
  out += "\n  ],\n  \"phases\": [";
  const telemetry::Snapshot snap = telemetry::snapshot();
  first = true;
  char row[256];
  for (const auto& h : snap.histograms) {
    if (std::strncmp(h.name, "phase.", 6) != 0 || h.count == 0) continue;
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(
        row, sizeof row,
        "    {\"name\": \"%s\", \"count\": %llu, \"avg_ns\": %.1f, "
        "\"p50_ns\": %llu, \"p99_ns\": %llu, \"p999_ns\": %llu, "
        "\"max_ns\": %llu}",
        h.name, static_cast<unsigned long long>(h.count),
        static_cast<double>(h.sum) / static_cast<double>(h.count),
        static_cast<unsigned long long>(
            telemetry::Histogram::quantileFromBuckets(h.buckets, 0.50)),
        static_cast<unsigned long long>(
            telemetry::Histogram::quantileFromBuckets(h.buckets, 0.99)),
        static_cast<unsigned long long>(
            telemetry::Histogram::quantileFromBuckets(h.buckets, 0.999)),
        static_cast<unsigned long long>(h.max));
    out += row;
  }
  // Per-operation latency distributions recorded via latencyHistogram().
  out += "\n  ],\n  \"latency\": [";
  {
    LatencyRegistry& reg = latencyRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    first = true;
    for (const auto& [name, h] : reg.rows) {
      if (h->count() == 0) continue;
      out += first ? "\n" : ",\n";
      first = false;
      std::snprintf(
          row, sizeof row,
          "    {\"name\": \"%s\", \"count\": %llu, \"avg_ns\": %.1f, "
          "\"p50_ns\": %llu, \"p99_ns\": %llu, \"p999_ns\": %llu, "
          "\"max_ns\": %llu}",
          name.c_str(), static_cast<unsigned long long>(h->count()),
          static_cast<double>(h->sum()) / static_cast<double>(h->count()),
          static_cast<unsigned long long>(h->quantile(0.50)),
          static_cast<unsigned long long>(h->quantile(0.99)),
          static_cast<unsigned long long>(h->quantile(0.999)),
          static_cast<unsigned long long>(h->max()));
      out += row;
    }
  }
  // Named scalar metrics recorded via recordMetric().
  out += "\n  ],\n  \"metrics\": [";
  {
    MetricRegistry& reg = metricRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    first = true;
    for (const auto& [name, value] : reg.rows) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"name\": \"";
      appendEscaped(out, name);
      std::snprintf(row, sizeof row, "\", \"value\": %.6f}", value);
      out += row;
    }
  }
  std::snprintf(buf, sizeof buf, "\n  ],\n  \"shape_check_failures\": %d\n}\n",
                shapeFailures);
  out += buf;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace detail

// Runs the registered google-benchmark microbenchmarks (unless the
// environment asks to skip them) and returns the shape-check verdict.
// `--json=<path>` additionally writes machine-readable results (host
// fingerprint, bench names, iterations, ns/op, and the telemetry
// phase-time breakdown); it is stripped from argv before google-benchmark
// sees the flags.
inline int finish(const ShapeChecks& checks, int argc, char** argv) {
  const char* jsonPath = nullptr;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      jsonPath = argv[i] + 7;
    else
      argv[kept++] = argv[i];
  }
  argc = kept;

  std::printf("\n--- per-call microbenchmarks (google-benchmark) ---\n");
  benchmark::Initialize(&argc, argv);
  detail::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  bool jsonOk = true;
  if (jsonPath != nullptr) {
    jsonOk = detail::writeJsonResults(jsonPath, reporter.captured,
                                      checks.failures());
    if (!jsonOk) std::fprintf(stderr, "cannot write %s\n", jsonPath);
  }
  return checks.failures() == 0 && jsonOk ? 0 : 1;
}

}  // namespace brew::bench
