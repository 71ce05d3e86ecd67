// The four closed-loop workloads. Each runs in its own process: it
// configures the runtime, sets up (timed several times for setup_s), runs
// its loop for ctx.seconds, checks every output and fills an Outcome.
// With ctx.trace the loop alternates untraced and traced chunks and the
// Outcome carries the workload's own per-layer rows.
#pragma once

#include "common.hpp"
#include "core/brew.h"
#include "requests.hpp"

namespace bench {

Outcome runStencilSolve(const RunContext& ctx, Subjects& subjects, const Confs& confs);
Outcome runColdSpecialize(const RunContext& ctx, Subjects& subjects, const Confs& confs);
Outcome runHotReuse(const RunContext& ctx, Subjects& subjects, const Confs& confs);
Outcome runWarmStart(const RunContext& ctx, Subjects& subjects, const Confs& confs);

// Shared tail of every workload's metrics.
void addLatencyMetrics(Outcome& out, double setupSeconds, double throughput,
                       double p50Us, double p99Us);
// Detail rows behind setup_s.
void addSetupDetails(Outcome& out, double configureSeconds, const SetupClock& setup);

// Cache counters the workload's loop moved (code_cache.* per-layer
// rows). brew_cache_reset() zeroes the runtime's counters, so a
// loop that resets the cache stops before and starts again after it.
class CacheDelta {
 public:
  void start();
  void stop();
  void report(Outcome& out) const;

 private:
  brew_cache_stats base_{};
  uint64_t hits_ = 0, misses_ = 0, fastpath_ = 0, contention_ = 0, evictions_ = 0;
};

}  // namespace bench
