// Shared pieces of the end-to-end benchmark driver: the tick clock, latency
// histograms, sample series, in-memory spans and the run context every
// workload receives.
#pragma once

#include <x86intrin.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bench {

// ---- clock ----------------------------------------------------------------

// TSC ticks: cheap enough to bracket a ~300 ns cache hit. Converted to ns
// with a rate calibrated against steady_clock over the whole run.
inline uint64_t ticks() { return __rdtsc(); }

// Starts the calibration window (call once, first thing in main).
void startClock();
// Ticks per nanosecond, measured from startClock() to the first call.
double ticksPerNs();
inline double toNs(double t) { return t / ticksPerNs(); }
inline double toUs(double t) { return t / ticksPerNs() / 1e3; }
inline double toS(double t) { return t / ticksPerNs() / 1e9; }
// Seconds since startClock(), from steady_clock (deadlines).
double wallSeconds();
// CPU seconds (user + system, all threads) this process has used.
double cpuSeconds();
// CPU seconds the calling thread has used. With paravirtual steal-time
// accounting the kernel leaves out the time the hypervisor ran something
// else on this vCPU.
double threadCpuSeconds();

// ---- statistics -----------------------------------------------------------

// Plain sample list; quantiles by nearest rank.
class Series {
 public:
  void add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double sum() const;
  double mean() const { return empty() ? 0.0 : sum() / size(); }

 private:
  std::vector<double> values_;
};

// Set-up repetitions. setup_s is the median CPU time (user + system, all
// threads) of a repetition: the work set-up costs the process, without the
// time a shared host keeps it waiting. The wall-clock median is a detail row.
class SetupClock {
 public:
  void begin() {
    cpu0_ = cpuSeconds();
    wall0_ = wallSeconds();
  }
  void end() {
    cpu_.add(cpuSeconds() - cpu0_);
    wall_.add(wallSeconds() - wall0_);
  }
  double cpuMedian() const { return cpu_.median(); }
  double wallMedian() const { return wall_.median(); }
  size_t reps() const { return cpu_.size(); }

 private:
  Series cpu_, wall_;
  double cpu0_ = 0, wall0_ = 0;
};

// Latency histogram in ticks: one exact bucket per tick below kLinear,
// overflow samples kept verbatim. Mergeable across client threads.
class TickHist {
 public:
  static constexpr uint64_t kLinear = uint64_t{1} << 18;
  TickHist() : counts_(kLinear, 0) {}
  void add(uint64_t t) {
    if (t < kLinear)
      ++counts_[t];
    else
      overflow_.push_back(t);
    ++n_;
  }
  void merge(const TickHist& other);
  void clear();
  uint64_t count() const { return n_; }
  // Nearest-rank quantile, in ticks.
  double quantile(double q) const;

 private:
  std::vector<uint32_t> counts_;
  std::vector<uint64_t> overflow_;
  uint64_t n_ = 0;
};

// Work a loop completed, split into untraced [0] and traced [1] work.
class RateMeter {
 public:
  // `units` of work that kept one client busy for `busyTicks`.
  void add(bool traced, uint64_t units, uint64_t busyTicks) {
    units_[traced] += units;
    busy_[traced] += busyTicks;
  }
  void merge(const RateMeter& other);
  uint64_t units(bool traced) const { return units_[traced]; }
  // Units per busy second of `clients` clients working side by side.
  double rate(bool traced, int clients = 1) const;

 private:
  uint64_t units_[2] = {};
  uint64_t busy_[2] = {};
};

// Per-window figures of a timed loop. The loop is cut into windows of
// equal wall time; each window gives a rate and latency quantiles, and the
// run reports their median over windows, so a burst of host noise moves
// one window rather than the result. A window's rate is work per second of
// the client thread's CPU time: a vCPU the hypervisor takes away for a few
// milliseconds stretches few of the microsecond latency samples but much of
// a window's wall time. One instance per client thread, all started at the
// same tick; add() and finish() run on that client's thread.
class WindowStats {
 public:
  struct Summary {
    double rate = 0;  // units per CPU second, summed over clients
    double p50Ticks = 0;
    double p99Ticks = 0;
    uint64_t samples = 0;  // latency samples in the windows used
    int windows = 0;       // windows the medians are taken over
  };

  void start(uint64_t startTick, double windowSeconds, int windows);
  // One untraced operation: `units` of work with one latency sample.
  void add(uint64_t units, uint64_t latencyTicks);
  // Work without a latency sample (counts toward the rate only).
  void addWork(uint64_t units);
  // Closes the open window; call once after the loop.
  void finish();

  // Medians over the full windows of every client: a window's rate is the
  // sum of the clients' rates in it; its quantiles are each client's own.
  static Summary summarize(const std::vector<const WindowStats*>& clients);

 private:
  struct Window {
    uint64_t units = 0, count = 0;
    double cpuSeconds = 0, p50 = 0, p99 = 0;
  };
  // The window the current tick falls in; null past the last full one.
  Window* current();
  void close();

  uint64_t start_ = 0;
  uint64_t windowTicks_ = 1;
  int current_ = 0;
  double cpu0_ = -1;  // thread CPU time when the open window began
  TickHist hist_;
  std::vector<Window> windows_;  // the full windows only
};

// ---- spans ----------------------------------------------------------------

struct SpanRecord {
  const char* name = nullptr;
  uint64_t start = 0;  // ticks
  uint64_t end = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  uint32_t request = 0;
};

// Per-thread span log. begin/end nest; each span's self time is its
// duration minus the time its direct children cover. Every span feeds the
// per-name aggregates; the first `keep` spans are also stored verbatim for
// the span dump.
class SpanRecorder {
 public:
  struct Aggregate {
    const char* name = nullptr;
    uint64_t count = 0;
    uint64_t totalTicks = 0;
    uint64_t selfTicks = 0;
  };

  explicit SpanRecorder(uint32_t thread = 0, size_t keep = 20000)
      : thread_(thread), keep_(keep) {}

  void setRequest(uint32_t request) { request_ = request; }
  void begin(const char* name);
  // Closes the innermost span; returns its duration in ticks.
  uint64_t end();

  void merge(const SpanRecorder& other);
  const std::vector<Aggregate>& aggregates() const { return aggregates_; }
  const std::vector<SpanRecord>& kept() const { return kept_; }
  uint64_t dropped() const { return dropped_; }
  uint32_t thread() const { return thread_; }

 private:
  struct Open {
    const char* name;
    uint64_t start;
    uint64_t childTicks;
    uint32_t id;
    uint32_t parent;
  };
  Aggregate& aggregate(const char* name);

  uint32_t thread_;
  size_t keep_;
  uint32_t request_ = 0;
  uint32_t nextId_ = 1;
  std::vector<Open> stack_;
  std::vector<Aggregate> aggregates_;
  std::vector<SpanRecord> kept_;
  uint64_t dropped_ = 0;
};

// RAII span; a null recorder (untraced run) makes it a no-op.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name) : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->begin(name);
  }
  ~Span() {
    if (recorder_ != nullptr) recorder_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
};

// ---- run context ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run hands back to main().
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;   // first few failure descriptions
  std::vector<Metric> endToEnd;      // trace 0
  std::vector<Metric> perLayer;      // trace 1
  std::vector<Metric> details;       // extra rows for the result file
  std::vector<SpanRecorder> spans;   // trace 1: workload spans
  std::string telemetryJson;         // snapshot after the workload loop

  // A check failed: the run is wrong.
  void fail(std::string why) {
    correct = false;
    note(std::move(why));
  }
  // One operation returned a wrong output: counted and fails the run.
  void wrongOutput(std::string why) {
    ++failed;
    fail(std::move(why));
  }
  // One operation failed cleanly (brew_rewrite2 returned NULL): counted.
  void failedOperation(std::string why) {
    ++failed;
    note(std::move(why));
  }
  void note(std::string why) {
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  void detail(std::string name, double value, std::string unit) {
    details.push_back({std::move(name), value, std::move(unit)});
  }
};

struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string runDir;  // scratch directory inside the checkout
};

// Peak resident set of this process, MiB.
double peakRssMb();

}  // namespace bench
