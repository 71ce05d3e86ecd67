#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>

namespace bench {

// ---- clock ----------------------------------------------------------------

namespace {
using SteadyClock = std::chrono::steady_clock;
SteadyClock::time_point g_clockStart;
uint64_t g_tickStart = 0;
}  // namespace

void startClock() {
  g_clockStart = SteadyClock::now();
  g_tickStart = ticks();
}

double wallSeconds() {
  return std::chrono::duration<double>(SteadyClock::now() - g_clockStart).count();
}

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ticksPerNs() {
  // Frozen at the first use after at least 50 ms of calibration window.
  static const double rate = [] {
    while (wallSeconds() < 0.05) {
    }
    const uint64_t t = ticks();
    const double ns =
        std::chrono::duration<double, std::nano>(SteadyClock::now() - g_clockStart)
            .count();
    return static_cast<double>(t - g_tickStart) / ns;
  }();
  return rate;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---- statistics -------------------------------------------------------------

double Series::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Series::sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

void TickHist::merge(const TickHist& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  overflow_.insert(overflow_.end(), other.overflow_.begin(), other.overflow_.end());
  n_ += other.n_;
}

void TickHist::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  overflow_.clear();
  n_ = 0;
}

double TickHist::quantile(double q) const {
  if (n_ == 0) return 0.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n_)));
  rank = std::clamp<uint64_t>(rank, 1, n_);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) return static_cast<double>(i);
  }
  std::vector<uint64_t> sorted = overflow_;
  std::sort(sorted.begin(), sorted.end());
  return static_cast<double>(sorted[rank - seen - 1]);
}

void RateMeter::merge(const RateMeter& other) {
  for (int i = 0; i < 2; ++i) {
    units_[i] += other.units_[i];
    busy_[i] += other.busy_[i];
  }
}

double RateMeter::rate(bool traced, int clients) const {
  return busy_[traced] == 0 ? 0.0
                            : clients * static_cast<double>(units_[traced]) /
                                  toS(static_cast<double>(busy_[traced]));
}

void WindowStats::start(uint64_t startTick, double windowSeconds, int windows) {
  start_ = startTick;
  windowTicks_ = std::max<uint64_t>(1, static_cast<uint64_t>(windowSeconds * 1e9 * ticksPerNs()));
  current_ = 0;
  cpu0_ = -1;
  hist_.clear();
  windows_.assign(static_cast<size_t>(std::max(1, windows)), Window{});
}

WindowStats::Window* WindowStats::current() {
  if (cpu0_ < 0) cpu0_ = threadCpuSeconds();  // first use, on the client's thread
  const uint64_t index = (ticks() - start_) / windowTicks_;
  if (index != static_cast<uint64_t>(current_)) {
    close();
    current_ = static_cast<int>(std::min<uint64_t>(index, windows_.size()));
  }
  return static_cast<size_t>(current_) < windows_.size() ? &windows_[current_] : nullptr;
}

void WindowStats::add(uint64_t units, uint64_t latencyTicks) {
  Window* w = current();
  if (w == nullptr) return;
  w->units += units;
  hist_.add(latencyTicks);
}

void WindowStats::addWork(uint64_t units) {
  Window* w = current();
  if (w != nullptr) w->units += units;
}

void WindowStats::finish() {
  close();
  current_ = static_cast<int>(windows_.size());
}

void WindowStats::close() {
  const double now = threadCpuSeconds();
  if (static_cast<size_t>(current_) < windows_.size() && hist_.count() != 0) {
    Window& w = windows_[current_];
    w.count = hist_.count();
    w.cpuSeconds = now - cpu0_;
    w.p50 = hist_.quantile(0.5);
    w.p99 = hist_.quantile(0.99);
  }
  cpu0_ = now;
  hist_.clear();
}

WindowStats::Summary WindowStats::summarize(const std::vector<const WindowStats*>& clients) {
  Summary out;
  if (clients.empty()) return out;
  Series rates, p50s, p99s;
  const size_t windows = clients.front()->windows_.size();
  for (size_t i = 0; i < windows; ++i) {
    double rate = 0;
    bool full = true;
    for (const WindowStats* c : clients) {
      const Window& w = c->windows_[i];
      if (w.count == 0 || w.cpuSeconds <= 0) {
        full = false;
        break;
      }
      rate += static_cast<double>(w.units) / w.cpuSeconds;
    }
    if (!full) continue;
    rates.add(rate);
    for (const WindowStats* c : clients) {
      const Window& w = c->windows_[i];
      p50s.add(w.p50);
      p99s.add(w.p99);
      out.samples += w.count;
    }
    ++out.windows;
  }
  out.rate = rates.median();
  out.p50Ticks = p50s.median();
  out.p99Ticks = p99s.median();
  return out;
}

// ---- spans ------------------------------------------------------------------

void SpanRecorder::begin(const char* name) {
  const uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(Open{name, ticks(), 0, nextId_++, parent});
}

uint64_t SpanRecorder::end() {
  const uint64_t now = ticks();
  const Open open = stack_.back();
  stack_.pop_back();
  const uint64_t duration = now - open.start;
  if (!stack_.empty()) stack_.back().childTicks += duration;
  Aggregate& agg = aggregate(open.name);
  ++agg.count;
  agg.totalTicks += duration;
  agg.selfTicks += duration > open.childTicks ? duration - open.childTicks : 0;
  if (kept_.size() < keep_)
    kept_.push_back(SpanRecord{open.name, open.start, now, open.id, open.parent,
                               request_});
  else
    ++dropped_;
  return duration;
}

SpanRecorder::Aggregate& SpanRecorder::aggregate(const char* name) {
  for (Aggregate& a : aggregates_)
    if (a.name == name) return a;
  aggregates_.push_back(Aggregate{name, 0, 0, 0});
  return aggregates_.back();
}

void SpanRecorder::merge(const SpanRecorder& other) {
  for (const Aggregate& a : other.aggregates_) {
    Aggregate& mine = aggregate(a.name);
    mine.count += a.count;
    mine.totalTicks += a.totalTicks;
    mine.selfTicks += a.selfTicks;
  }
  dropped_ += other.dropped_;
}

}  // namespace bench
