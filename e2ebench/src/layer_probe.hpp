// Per-layer measurement: stage-by-stage replays of a brew_rewrite2 request
// through the public stage functions of core, ir and support, the layer
// probe that the traced run adds after its workload, the calibration rows
// and the determinism self-check.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "core/code_cache.hpp"
#include "ir/captured.hpp"
#include "requests.hpp"

namespace brew::persist {
class Store;
}

namespace bench {

// ---- runtime set-up ---------------------------------------------------------

constexpr size_t kDefaultCacheBytes = size_t{64} << 20;
// brew_configure (LRU budget; persistence in `cacheDir`, off when empty) and
// construction of the process-wide runtime, then brew_telemetry_reset()
// and brew_cache_reset(). Returns the CPU seconds spent, -1 on failure.
double configureRuntime(size_t cacheBytes, const std::string& cacheDir = "");

// Bytes one cache entry holds for a small specialization (the mapping
// granularity), so workloads can size the LRU budget in entries.
size_t entryBytes();

// ---- stage replay -----------------------------------------------------------

// Ticks per stage of one replayed request; zero for stages not replayed.
struct Stages {
  uint64_t key = 0, lookup = 0, trace = 0, passes = 0, emit = 0, install = 0,
           probe = 0;
  brew::TraceStats traceStats;
  brew::ir::EmitStats emitStats;
  bool ok = false;
  uint64_t sum() const { return key + lookup + trace + passes + emit + install + probe; }
};

// A cold miss: makeCacheKey, CodeCache::lookup on `missCache` (which never
// holds the key), Tracer::trace, runPasses, ir::emit, registerGeneratedCode.
Stages replayCold(const Request& r, const Subjects& s, brew::CodeCache& missCache,
                  SpanRecorder* spans);
// A cached hit: makeCacheKey, then CodeCache::lookup in the process cache.
Stages replayHit(const Request& r, const Subjects& s, SpanRecorder* spans);
// A warm reload: makeCacheKey, lookup (miss), Store::probe and
// registerGeneratedCode of the loaded unit.
Stages replayWarm(const Request& r, const Subjects& s, brew::CodeCache& missCache,
                  brew::persist::Store& store, SpanRecorder* spans);

// Compares replayed stage sums with the same requests' brew_rewrite2
// latencies: the unattributed time is brew_rewrite2's own (spec_manager)
// self time — argument unpacking, single-flight bookkeeping, handle wrap.
// Totals, not per-request medians: a replay and its real call are two
// executions, so only their sums compare.
class Attribution {
 public:
  void add(uint64_t rewriteTicks, const Stages& stages) {
    rewriteTicks_ += rewriteTicks;
    stageTicks_ += stages.sum();
    ++samples_;
  }
  void merge(const Attribution& other) {
    rewriteTicks_ += other.rewriteTicks_;
    stageTicks_ += other.stageTicks_;
    samples_ += other.samples_;
  }
  void report(Outcome& out) const;

 private:
  uint64_t rewriteTicks_ = 0;
  uint64_t stageTicks_ = 0;
  uint64_t samples_ = 0;
};

// ---- probes -----------------------------------------------------------------

// Every per-layer metric that does not depend on the workload's own loop:
// stage replays of seeded cold and warm requests, cache lookups and
// releases, dispatch and generated-code sweeps, persistence, and the
// cross-check of the replayed stage times against the phase.* histograms.
void layerProbe(const RunContext& ctx, Subjects& subjects, const Confs& confs,
                Outcome& out);

// Original library calls BREW never touches: host drift shows here.
// Adds detail rows always and per-layer rows when `perLayer` is set.
void calibrate(Subjects& subjects, Outcome& out, bool perLayer);

// A known BREW defect, kept visible without failing the run: a loop-level
// rewritten brew_pgas_sum_range whose range reaches the kept
// remote-transfer call. Probed in a child process; the detail row
// known_defect.loop_remote_call reads 0 = correct, 1 = crash, 2 = wrong.
void knownDefects(Subjects& subjects, const Confs& confs, Outcome& out);

// Same seed, same request stream and counts; another seed, another stream.
void determinismCheck(const RunContext& ctx, Subjects& subjects, Outcome& out);

}  // namespace bench
