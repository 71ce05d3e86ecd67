#include "report.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/brew.h"

namespace bench {

// ---- host -------------------------------------------------------------------

Host hostFingerprint(std::string commit, std::string sourceHash) {
  Host host;
  host.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) host.cpu = line.substr(colon + 2);
      break;
    }
  }
  if (host.cpu.empty()) host.cpu = "unknown";
  host.compiler = "gcc " __VERSION__;
  host.buildType = BENCH_BUILD_TYPE;
  host.commit = commit.empty() ? "unknown" : std::move(commit);
  host.sourceHash = sourceHash.empty() ? "unknown" : std::move(sourceHash);
  return host;
}

// ---- JSON -------------------------------------------------------------------

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += quote(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string hostObject(const Host& h) {
  return "{\"nproc\": " + std::to_string(h.nproc) + ", \"cpu\": " + quote(h.cpu) +
         ", \"compiler\": " + quote(h.compiler) + ", \"build_type\": " +
         quote(h.buildType) + ", \"commit\": " + quote(h.commit) +
         ", \"source_hash\": " + quote(h.sourceHash) + "}";
}

}  // namespace

std::string telemetrySnapshotJson() {
  brew_telemetry t{};
  brew_telemetry_snapshot(&t);
  std::string out = "{\"counters\": {";
  for (size_t i = 0; i < t.counter_count; ++i) {
    if (i != 0) out += ", ";
    out += quote(t.counters[i].name) + ": " + std::to_string(t.counters[i].value);
  }
  out += "}, \"gauges\": {";
  for (size_t i = 0; i < t.gauge_count; ++i) {
    if (i != 0) out += ", ";
    out += quote(t.gauges[i].name) + ": " + std::to_string(t.gauges[i].value);
  }
  out += "}, \"histograms\": {";
  for (size_t i = 0; i < t.histogram_count; ++i) {
    const brew_telemetry_histogram& h = t.histograms[i];
    if (i != 0) out += ", ";
    out += quote(h.name) + ": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + std::to_string(h.sum) + ", \"p50\": " +
           std::to_string(h.p50) + ", \"p99\": " + std::to_string(h.p99) +
           ", \"max\": " + std::to_string(h.max) + "}";
  }
  return out + "}}";
}

bool writeResultFile(const std::string& path, const RunContext& ctx,
                     const Host& host, const Outcome& outcome) {
  std::ostringstream out;
  out << "{\"workload\": " << quote(ctx.workload) << ", \"seed\": " << ctx.seed
      << ", \"seconds\": " << ctx.seconds << ", \"trace\": " << (ctx.trace ? 1 : 0)
      << ",\n \"host\": " << hostObject(host)
      << ",\n \"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
      << ",\n \"errors\": [";
  for (size_t i = 0; i < outcome.errors.size(); ++i)
    out << (i ? ", " : "") << quote(outcome.errors[i]);
  out << "],\n \"metrics\": "
      << metricsObject(ctx.trace ? outcome.perLayer : outcome.endToEnd)
      << ",\n \"details\": " << metricsObject(outcome.details);

  // Per-span-name self times of the workload's traced loop.
  SpanRecorder merged;
  for (const SpanRecorder& r : outcome.spans) merged.merge(r);
  out << ",\n \"self_times\": {";
  bool first = true;
  for (const auto& a : merged.aggregates()) {
    out << (first ? "" : ", ") << quote(a.name) << ": {\"count\": " << a.count
        << ", \"total_ns\": " << number(toNs(static_cast<double>(a.totalTicks)))
        << ", \"self_ns\": " << number(toNs(static_cast<double>(a.selfTicks)))
        << ", \"mean_self_ns\": "
        << number(toNs(static_cast<double>(a.selfTicks)) / static_cast<double>(a.count))
        << "}";
    first = false;
  }
  out << "}, \"spans_dropped\": " << merged.dropped();

  // Spans: [name, start_ns, duration_ns, id, parent, request, thread].
  uint64_t origin = UINT64_MAX;
  for (const SpanRecorder& r : outcome.spans)
    for (const SpanRecord& s : r.kept()) origin = std::min(origin, s.start);
  out << ",\n \"spans\": [";
  first = true;
  for (const SpanRecorder& r : outcome.spans) {
    for (const SpanRecord& s : r.kept()) {
      out << (first ? "\n  " : ",\n  ") << "[" << quote(s.name) << ", "
          << number(toNs(static_cast<double>(s.start - origin))) << ", "
          << number(toNs(static_cast<double>(s.end - s.start))) << ", " << s.id
          << ", " << s.parent << ", " << s.request << ", " << r.thread() << "]";
      first = false;
    }
  }
  out << "],\n \"telemetry\": "
      << (outcome.telemetryJson.empty() ? "{}" : outcome.telemetryJson) << "}\n";

  std::ofstream file(path);
  file << out.str();
  return static_cast<bool>(file);
}

void printOutcome(const RunContext& ctx, const Host& host, const Outcome& outcome) {
  std::printf("host: nproc=%d cpu=\"%s\" compiler=\"%s\" build=%s commit=%s source=%s\n",
              host.nproc, host.cpu.c_str(), host.compiler.c_str(),
              host.buildType.c_str(), host.commit.c_str(), host.sourceHash.c_str());
  std::printf("workload=%s seed=%llu seconds=%d trace=%d attempted=%llu failed=%llu\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              ctx.seconds, ctx.trace ? 1 : 0,
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (const Metric& m : outcome.details)
    std::printf("  %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  const std::vector<Metric>& metrics = ctx.trace ? outcome.perLayer : outcome.endToEnd;
  for (const Metric& m : metrics)
    std::printf("* %-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& e : outcome.errors)
    std::printf("FAILED: %s (workload=%s seed=%llu)\n", e.c_str(), ctx.workload.c_str(),
                static_cast<unsigned long long>(ctx.seed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metricsObject(metrics).c_str());
  std::fflush(stdout);
}

}  // namespace bench
