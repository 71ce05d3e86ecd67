// E9: cold-start vs warm-start with the persistent on-disk specialization
// cache (docs/CACHE.md "Persistence"). The paper's rewriting cost is paid
// at runtime, every run; a persisted specialization moves it to the FIRST
// run only. This harness measures time-to-full-cached-throughput — from
// process start until every kernel's specialized code is installed and has
// executed once — for a cold cache directory vs a warm one, at 1 and at 8
// concurrent worker processes sharing the directory. The headline metric,
// warmstart_speedup, is gated in perf_smoke via
//   compare_benches.py --min-ratio warmstart_speedup=5.0
// Workers are forked so each one really pays (or skips) its own process
// start; they report elapsed and CPU time and cache counters through small
// binary result files, then _exit() without running destructors.
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/spec_manager.hpp"
#include "support/persist_cache.hpp"
#include "support/timer.hpp"

using namespace brew;
using namespace brew::bench;

namespace {

// Trace-heavy subject: a straight-line chain of ~4k dependent arithmetic
// ops, so one specialization emulates and re-emits every instruction
// (~17 ms, ~85 KiB of code) while its persisted form loads with one
// read() + checksum + mmap. A loop would not do: an unknown accumulator
// caps block variants and the tracer keeps the loop as a loop, so trace
// cost would not scale. Distinct known `k` values give the worker several
// independent cache entries over the same subject bytes.
#define BREW_E9_R1 acc = acc * 31 + (acc >> 7) + k;
#define BREW_E9_R8 \
  BREW_E9_R1 BREW_E9_R1 BREW_E9_R1 BREW_E9_R1 \
  BREW_E9_R1 BREW_E9_R1 BREW_E9_R1 BREW_E9_R1
#define BREW_E9_R64 \
  BREW_E9_R8 BREW_E9_R8 BREW_E9_R8 BREW_E9_R8 \
  BREW_E9_R8 BREW_E9_R8 BREW_E9_R8 BREW_E9_R8
#define BREW_E9_R512 \
  BREW_E9_R64 BREW_E9_R64 BREW_E9_R64 BREW_E9_R64 \
  BREW_E9_R64 BREW_E9_R64 BREW_E9_R64 BREW_E9_R64
#define BREW_E9_R4096 \
  BREW_E9_R512 BREW_E9_R512 BREW_E9_R512 BREW_E9_R512 \
  BREW_E9_R512 BREW_E9_R512 BREW_E9_R512 BREW_E9_R512
__attribute__((noinline)) uint64_t chain(uint64_t x, uint64_t k) {
  uint64_t acc = x | 1;
  BREW_E9_R4096
  return acc;
}
typedef uint64_t (*chain_t)(uint64_t, uint64_t);

constexpr int kKernels = 4;
uint64_t saltFor(int k) { return 7 + 13 * static_cast<uint64_t>(k); }

// CPU seconds of the whole process (every thread), which unlike wall time
// do not grow when more workers than free cores share the machine.
double processCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

Config knownSaltConfig() {
  Config config;
  config.setParamKnown(1);  // k known; x stays runtime
  config.setReturnKind(ReturnKind::Int);
  return config;
}

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/brew-bench-e9-XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    path = p != nullptr ? p : "";
  }
  ~TempDir() {
    if (!path.empty()) {
      const std::string cmd = "rm -rf '" + path + "'";
      [[maybe_unused]] int rc = std::system(cmd.c_str());
    }
  }
  std::string path;
};

struct WorkerReport {
  uint64_t magic = 0x45394252;  // "E9BR"
  double seconds = 0;
  double cpuSeconds = 0;
  uint64_t persistHits = 0;
  uint64_t rewriteAttempts = 0;
  uint64_t checksum = 0;
};

// Worker body: time from SpecManager construction until every kernel is
// specialized and has produced a result — "full cached-hit throughput".
// The worker's kernels are the salts firstKernel .. firstKernel+kKernels-1.
[[noreturn]] void runWorker(const std::string& dir,
                            const std::string& reportPath, int firstKernel) {
  WorkerReport report;
  const uint64_t attempts0 =
      telemetry::counter(telemetry::CounterId::RewriteAttempts).value();
  const double cpu0 = processCpuSeconds();
  Timer timer;
  {
    SpecManager::Options options;
    options.cacheDir = dir;
    SpecManager manager{options};
    const Config config = knownSaltConfig();
    for (int k = firstKernel; k < firstKernel + kKernels; ++k) {
      std::vector<ArgValue> args = {ArgValue::fromInt(0),
                                    ArgValue::fromInt(saltFor(k))};
      auto result = manager.rewrite(config, {},
                                    reinterpret_cast<void*>(&chain), args);
      if (!result.ok()) ::_exit(2);
      const uint64_t got = reinterpret_cast<chain_t>(result->entry())(
          11 + static_cast<uint64_t>(k), saltFor(k));
      if (got != chain(11 + static_cast<uint64_t>(k), saltFor(k)))
        ::_exit(3);
      report.checksum = report.checksum * 31 + got;
    }
    report.seconds = timer.seconds();
    report.cpuSeconds = processCpuSeconds() - cpu0;
    report.persistHits = manager.cache().stats().persistHits;
  }
  report.rewriteAttempts =
      telemetry::counter(telemetry::CounterId::RewriteAttempts).value() -
      attempts0;

  std::FILE* f = std::fopen(reportPath.c_str(), "wb");
  if (f == nullptr) ::_exit(4);
  if (std::fwrite(&report, 1, sizeof report, f) != sizeof report) ::_exit(5);
  std::fclose(f);
  ::_exit(0);
}

bool readReport(const std::string& path, WorkerReport* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  const size_t n = std::fread(out, 1, sizeof *out, f);
  std::fclose(f);
  return n == sizeof *out && out->magic == 0x45394252;
}

// Forks `count` workers over `dir`, worker i on its own kernels
// i*kKernels ..; returns wall seconds from first fork to last exit and
// collects the per-worker reports in worker order.
double runWorkers(const std::string& dir, int count, const std::string& tag,
                  std::vector<WorkerReport>* reports) {
  std::vector<pid_t> pids;
  std::vector<std::string> paths;
  Timer wall;
  for (int i = 0; i < count; ++i) {
    paths.push_back(dir + "/e9-report-" + tag + "-" + std::to_string(i));
    const pid_t pid = ::fork();
    if (pid == 0) runWorker(dir, paths.back(), i * kKernels);
    if (pid < 0) {
      std::fprintf(stderr, "fork failed\n");
      std::exit(2);
    }
    pids.push_back(pid);
  }
  for (int i = 0; i < count; ++i) {
    int status = 0;
    ::waitpid(pids[i], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "%s worker %d failed (status %d)\n", tag.c_str(),
                   i, status);
      std::exit(2);
    }
  }
  const double seconds = wall.seconds();
  for (const std::string& p : paths) {
    WorkerReport report;
    if (!readReport(p, &report)) {
      std::fprintf(stderr, "missing report %s\n", p.c_str());
      std::exit(2);
    }
    reports->push_back(report);
  }
  return seconds;
}

// --- microbenchmarks: the per-entry costs behind the phase numbers ---

persist::Store* seededStore() {
  static TempDir dir;
  static std::unique_ptr<persist::Store> store = [] {
    auto s = persist::Store::open(dir.path);
    if (s != nullptr) {
      static std::vector<uint8_t> payload(4096, 0x90);
      persist::WriteRequest req;
      req.fn = reinterpret_cast<void*>(&chain);
      req.configFp = 1;
      req.argsHash = 1;
      req.bytes = payload.data();
      req.size = payload.size();
      req.codeBytes = 4096;
      req.blockUnits = 1;
      s->write(req);
    }
    return s;
  }();
  return store.get();
}

// One warm probe: read + validate + map + finalize a 4 KiB entry. This is
// the marginal per-kernel cost a restarted process pays instead of a trace.
void BM_PersistProbeHit(benchmark::State& state) {
  persist::Store* store = seededStore();
  if (store == nullptr) {
    state.SkipWithError("store unavailable");
    return;
  }
  for (auto _ : state) {
    persist::ProbeResult probe =
        store->probe(reinterpret_cast<void*>(&chain), 1, 1);
    if (!probe.entry.has_value()) {
      state.SkipWithError("probe missed");
      return;
    }
    benchmark::DoNotOptimize(probe.entry->memory.data());
  }
}
BENCHMARK(BM_PersistProbeHit);

// One crash-safe publication: temp file + rename + manifest append.
void BM_PersistWrite(benchmark::State& state) {
  persist::Store* store = seededStore();
  if (store == nullptr) {
    state.SkipWithError("store unavailable");
    return;
  }
  static std::vector<uint8_t> payload(4096, 0xcc);
  persist::WriteRequest req;
  req.fn = reinterpret_cast<void*>(&chain);
  req.configFp = 2;
  req.argsHash = 2;
  req.bytes = payload.data();
  req.size = payload.size();
  req.codeBytes = 4096;
  req.blockUnits = 1;
  for (auto _ : state) {
    if (!store->write(req)) {
      state.SkipWithError("write failed");
      return;
    }
  }
}
BENCHMARK(BM_PersistWrite);

}  // namespace

int main(int argc, char** argv) {
  std::printf("E9: persistent-cache cold start vs warm start\n");

  TempDir dir;
  if (dir.path.empty()) {
    std::fprintf(stderr, "cannot create cache dir\n");
    return 2;
  }

  std::vector<WorkerReport> cold1, warm1, cold8, warm8;
  // Phase 1: one worker against an empty directory (the very first run of
  // a binary) then one against the directory it populated (a restart).
  // Wall time for one worker is the worker's own report; the in-process
  // Timer excludes fork/exec noise, so the 1-process ratio uses it.
  (void)runWorkers(dir.path, 1, "cold1", &cold1);
  (void)runWorkers(dir.path, 1, "warm1", &warm1);

  // Phase 2: 8 concurrent workers publishing into one EMPTY directory
  // (first fleet launch), then 8 over the populated one (fleet restart).
  // Each worker specializes its own kernels, as ranks specialize on their
  // own known values: had they shared keys, how many cold workers
  // warm-start off a faster sibling mid-run would depend on the scheduler.
  // The fleet's cost is its summed CPU time, which does not depend on how
  // many cores are free; the wall times are printed, not gated.
  TempDir dir8;
  const double cold8s = runWorkers(dir8.path, 8, "cold8", &cold8);
  const double warm8s = runWorkers(dir8.path, 8, "warm8", &warm8);
  double cold8cpu = 0;
  double warm8cpu = 0;
  for (const WorkerReport& r : cold8) cold8cpu += r.cpuSeconds;
  for (const WorkerReport& r : warm8) warm8cpu += r.cpuSeconds;

  const double speedup1 = cold1.front().seconds / warm1.front().seconds;
  const double speedup8 = cold8cpu / warm8cpu;

  PaperTable table("E9", "time to full cached-hit throughput");
  table.addRow("cold start, 1 process", -1, cold1.front().seconds);
  table.addRow("warm start, 1 process", -1, warm1.front().seconds);
  table.addRow("cold start, 8 processes (CPU)", -1, cold8cpu);
  table.addRow("warm start, 8 processes (CPU)", -1, warm8cpu);
  table.addRow("cold start, 8 processes (wall)", -1, cold8s);
  table.addRow("warm start, 8 processes (wall)", -1, warm8s);
  table.print();

  uint64_t warmHits = 0;
  uint64_t warmAttempts = 0;
  for (const WorkerReport& r : warm1) {
    warmHits += r.persistHits;
    warmAttempts += r.rewriteAttempts;
  }
  for (const WorkerReport& r : warm8) {
    warmHits += r.persistHits;
    warmAttempts += r.rewriteAttempts;
  }
  std::printf("\n  warm-start speedup, 1 process:   %8.1fx\n", speedup1);
  std::printf("  warm-start speedup, 8 processes: %8.1fx\n", speedup8);
  std::printf("  warm workers: %llu persist hits, %llu trace phases\n",
              static_cast<unsigned long long>(warmHits),
              static_cast<unsigned long long>(warmAttempts));

  recordMetric("warmstart_speedup", speedup1);
  recordMetric("warmstart_speedup_8p", speedup8);

  ShapeChecks checks;
  checks.expect(speedup1 >= 5.0,
                "warm start reaches full throughput >=5x faster (1 process)");
  checks.expect(speedup8 >= 5.0,
                "warm start reaches full throughput >=5x faster (8 procs)");
  checks.expect(warmHits ==
                    static_cast<uint64_t>(kKernels) * (1 + 8),
                "every warm rewrite was served from disk");
  checks.expect(warmAttempts == 0,
                "warm start runs zero trace phases");
  for (const WorkerReport& r : warm1)
    checks.expect(r.checksum == cold1.front().checksum,
                  "warm code computes identical results");
  bool fleetSame = true;
  for (size_t i = 0; i < warm8.size(); ++i)
    fleetSame = fleetSame && warm8[i].checksum == cold8[i].checksum;
  checks.expect(fleetSame, "warm fleet computes identical results");
  return finish(checks, argc, argv);
}
