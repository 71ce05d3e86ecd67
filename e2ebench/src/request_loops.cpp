// The three request-stream workloads: cold_specialize (every request a
// brew_rewrite2 miss), hot_reuse (Zipf-distributed hits from two client
// threads) and warm_start (reloads from the persistent store).
#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "core/spec_manager.hpp"
#include "layer_probe.hpp"
#include "report.hpp"
#include "support/persist_cache.hpp"
#include "support/telemetry.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

// Set-up repetitions behind setup_s.
constexpr int kSetupReps = 5;

// Timed loops report medians over windows of this length.
constexpr double kWindowSeconds = 1.0;

void startWindows(WindowStats& w, const RunContext& ctx, uint64_t startTick) {
  w.start(startTick, kWindowSeconds, static_cast<int>(ctx.seconds / kWindowSeconds));
}

// The three latency metrics from the windows, their sample count as a
// detail row.
void addWindowMetrics(Outcome& out, const char* workload, double setupSeconds,
                      const std::vector<const WindowStats*>& clients) {
  const WindowStats::Summary sum = WindowStats::summarize(clients);
  out.detail(std::string(workload) + ".latency_samples", static_cast<double>(sum.samples),
             "count");
  out.detail(std::string(workload) + ".windows", sum.windows, "count");
  addLatencyMetrics(out, setupSeconds, sum.rate, toUs(sum.p50Ticks), toUs(sum.p99Ticks));
}

uint64_t rewriteAttempts() {
  return brew::telemetry::counter(brew::telemetry::CounterId::RewriteAttempts).value();
}

void finishTraced(Outcome& out, const RateMeter& meter, const Attribution& attribution,
                  const CacheDelta& cache) {
  out.perLayer.push_back(
      {"workload.trace_overhead_frac", 1.0 - meter.rate(true) / meter.rate(false), "fraction"});
  attribution.report(out);
  cache.report(out);
}

// A PGAS read key must stay local: the remote transfer path of the
// simulated runtime is single-threaded.
void makeLocal(Request& r) {
  if (r.kind == Kind::PgasRead &&
      (r.lo < r.view->local_start || r.lo >= r.view->local_end))
    r.lo = r.view->local_start;
}

}  // namespace

void addLatencyMetrics(Outcome& out, double setupSeconds, double throughput, double p50Us,
                       double p99Us) {
  out.endToEnd.push_back({"setup_s", setupSeconds, "s"});
  out.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MiB"});
  out.endToEnd.push_back({"throughput_per_s", throughput, "1/s"});
  out.endToEnd.push_back({"p50_us", p50Us, "us"});
  out.endToEnd.push_back({"p99_us", p99Us, "us"});
}

void addSetupDetails(Outcome& out, double configureSeconds, const SetupClock& setup) {
  out.detail("setup.configure_s", configureSeconds, "s");
  out.detail("setup.wall_s", setup.wallMedian(), "s");
  out.detail("setup.reps", static_cast<double>(setup.reps()), "count");
}

void CacheDelta::start() {
  brew_getcachestats(&base_);
}

void CacheDelta::stop() {
  brew_cache_stats now{};
  brew_getcachestats(&now);
  hits_ += now.hits - base_.hits;
  misses_ += now.misses - base_.misses;
  fastpath_ += now.fastpath_hits - base_.fastpath_hits;
  contention_ += now.shard_contention - base_.shard_contention;
  evictions_ += now.evictions - base_.evictions;
}

void CacheDelta::report(Outcome& out) const {
  const double lookups = static_cast<double>(hits_ + misses_);
  const auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.perLayer.push_back({"code_cache.hit_frac", frac(static_cast<double>(hits_), lookups),
                          "fraction"});
  out.perLayer.push_back({"code_cache.fastpath_frac",
                          frac(static_cast<double>(fastpath_), static_cast<double>(hits_)),
                          "fraction"});
  out.perLayer.push_back({"code_cache.contention_per_kop",
                          frac(1000.0 * static_cast<double>(contention_), lookups), "1/kop"});
  out.perLayer.push_back({"code_cache.evictions", static_cast<double>(evictions_), "count"});
}

// ---- cold_specialize --------------------------------------------------------

Outcome runColdSpecialize(const RunContext& ctx, Subjects& subjects, const Confs& confs) {
  Outcome out;
  // 256 entries: small enough that the LRU evicts from the first timed
  // request on.
  const double configureS = configureRuntime(256 * entryBytes());
  if (configureS < 0) {
    out.fail("brew_configure failed");
    return out;
  }

  // Set-up: fill the cache up to its budget (the first eviction).
  RequestGen setupGen(ctx.seed ^ 0x5e7095e7ULL, coldMix(), subjects);
  SetupClock setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    brew_cache_reset();
    setup.begin();
    brew_cache_stats stats{};
    do {
      Request r = setupGen.next();
      brew_func* h = acquire(confs, r, subjects);
      if (h == nullptr) {
        out.fail("set-up rewrite failed: " + r.describe());
        return out;
      }
      brew_release_h(h);
      brew_getcachestats(&stats);
    } while (stats.evictions == 0);
    setup.end();
  }

  RequestGen gen(ctx.seed, coldMix(), subjects);
  WindowStats windows;
  SpanRecorder spans(0);
  Attribution attribution;
  brew::CodeCache missCache;
  CacheDelta cache;
  cache.start();
  brew_telemetry_reset();
  RateMeter meter;
  uint64_t n = 0, sampled = 0;
  std::vector<Request> oracleSample;
  startWindows(windows, ctx, ticks());
  const double deadline = wallSeconds() + ctx.seconds;
  while (wallSeconds() < deadline) {
    const bool traced = ctx.trace && (n / 256) % 2 == 1;
    SpanRecorder* rec = traced ? &spans : nullptr;
    const bool replay = traced && n % 16 == 0;
    const uint64_t t0 = ticks();
    Request req = gen.next();
    if (rec != nullptr) rec->setRequest(static_cast<uint32_t>(n));
    uint64_t replayTicks = 0;
    Stages stages;
    const auto doReplay = [&] {
      const uint64_t r0 = ticks();
      Span s(rec, "replay");
      stages = replayCold(req, subjects, missCache, rec);
      replayTicks += ticks() - r0;
    };
    uint64_t rewriteTicks = 0;
    {
      Span root(rec, "request");
      if (replay && sampled % 2 == 0) doReplay();
      brew_func* h = nullptr;
      {
        const uint64_t r0 = ticks();
        Span s(rec, "brew_rewrite2");
        h = acquire(confs, req, subjects);
        rewriteTicks = ticks() - r0;
      }
      if (replay && sampled % 2 == 1) doReplay();
      if (h == nullptr) {
        out.failedOperation("rewrite failed: " + req.describe());
      } else {
        Span s(rec, "generated.check");
        if (!check(req, brew_func_entry(h), subjects))
          out.wrongOutput("wrong output: " + req.describe());
      }
      {
        Span s(rec, "code_cache.release");
        brew_release_h(h);
      }
    }
    meter.add(traced, 1, ticks() - t0 - replayTicks);
    if (!traced) windows.add(1, rewriteTicks);
    if (replay && stages.ok) attribution.add(rewriteTicks, stages);
    if (replay) ++sampled;
    if (n % 1024 == 7 && oracleSample.size() < 32) oracleSample.push_back(std::move(req));
    ++n;
  }
  windows.finish();
  cache.stop();
  out.attempted = n;
  out.telemetryJson = telemetrySnapshotJson();

  for (Request& r : oracleSample) {
    brew_func* h = acquire(confs, r, subjects);
    const std::string why = h != nullptr ? oracle(r, brew_func_entry(h), subjects)
                                         : std::string("rewrite failed");
    if (!why.empty()) out.fail("oracle: " + why + " (" + r.describe() + ")");
    brew_release_h(h);
  }
  addSetupDetails(out, configureS, setup);
  if (!ctx.trace) {
    addWindowMetrics(out, "cold", configureS + setup.cpuMedian(), {&windows});
  } else {
    finishTraced(out, meter, attribution, cache);
    out.spans.push_back(std::move(spans));
  }
  return out;
}

// ---- hot_reuse --------------------------------------------------------------

namespace {

struct Client {
  explicit Client(uint32_t id) : spans(id) {}
  Confs confs;  // the client's own, so clients share only the runtime
  WindowStats windows;  // reuse hits sampled, first-time keys as work
  TickHist misses;
  RateMeter meter;
  SpanRecorder spans;
  Attribution attribution;
  Outcome result;  // this client's failures, folded into the run's
};

}  // namespace

Outcome runHotReuse(const RunContext& ctx, Subjects& subjects, const Confs& confs) {
  Outcome out;
  constexpr int kKeys = 4096;
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  // Half the cores, at most two: the clients and the host's other work must
  // not outnumber the cores, or the run measures the scheduler.
  const int clients = std::clamp(nproc / 2, 1, 2);
  // First-time keys, each a miss that traces and inserts. Under concurrent
  // clients a miss costs ~1 ms with a long tail; at 0.01% the misses stay
  // writers beside the readers but take a few percent of the clients' time,
  // so the run's throughput measures the reuse path rather than that tail.
  constexpr double kFirstTimeRate = 0.0001;
  // Room for every key plus the first-time keys inserted since a Zipf-tail
  // key was last touched (~4 at rank 4096), so the LRU evicts first-time
  // keys, not keys.
  const double configureS = configureRuntime((kKeys + 1024) * entryBytes());
  if (configureS < 0) {
    out.fail("brew_configure failed");
    return out;
  }

  // Key k is a PGAS accessor when k % 4 == 3, a flat stencil otherwise.
  // Zipf(s = 1) over ranks; the seeded shuffle that maps ranks to keys
  // keeps rank % 4 == key % 4, so every seed puts the same kinds at the
  // same ranks and seeds differ only in the keys themselves.
  RequestGen keyGen(ctx.seed, reuseMix(), subjects);
  std::vector<Request> keys;
  std::vector<double> expected;
  for (int k = 0; k < kKeys; ++k) {
    keys.push_back(keyGen.make(k % 4 == 3 ? Kind::PgasRead : Kind::Flat));
    makeLocal(keys.back());
    expected.push_back(callGeneric(keys.back(), subjects));
  }
  std::vector<double> cdf(kKeys);
  double total = 0;
  for (int r = 0; r < kKeys; ++r) cdf[r] = (total += 1.0 / (r + 1));
  for (double& c : cdf) c /= total;
  std::vector<int> keyOfRank(kKeys);
  for (int i = 0; i < kKeys; ++i) keyOfRank[i] = i;
  brew::Prng shuffle(ctx.seed ^ 0x2197ULL);
  for (int i = kKeys - 1; i >= 4; --i) {
    const uint64_t j = shuffle.below(static_cast<uint64_t>(i / 4) + 1);
    std::swap(keyOfRank[i], keyOfRank[4 * j + i % 4]);
  }

  SetupClock setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    brew_cache_reset();
    setup.begin();
    for (const Request& r : keys) {
      brew_func* h = acquire(confs, r, subjects);
      if (h == nullptr) {
        out.fail("set-up rewrite failed: " + r.describe());
        return out;
      }
      brew_release_h(h);
    }
    setup.end();
  }

  out.detail("setup.peak_rss_mb", peakRssMb(), "MiB");
  std::deque<Client> state;
  for (int c = 0; c < clients; ++c) state.emplace_back(static_cast<uint32_t>(c));
  std::atomic<bool> stop{false};
  CacheDelta cache;
  cache.start();
  brew_telemetry_reset();
  const uint64_t startTick = ticks();
  for (Client& me : state) startWindows(me.windows, ctx, startTick);
  const auto client = [&](int c) {
    Client& me = state[c];
    brew::Prng rng(ctx.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(c) + 1);
    RequestGen fresh(ctx.seed ^ (0xf4e5ULL << (8 * c)), reuseMix(), subjects);
    for (uint64_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
      const bool traced = ctx.trace && (n / 1024) % 2 == 1;
      SpanRecorder* rec = traced ? &me.spans : nullptr;
      if (rec != nullptr) rec->setRequest(static_cast<uint32_t>(n));
      if (rng.chance(kFirstTimeRate)) {  // first-time key: a miss that traces and inserts
        Request r = fresh.next();
        makeLocal(r);
        const uint64_t t0 = ticks();
        double got = 0;
        brew_func* h = nullptr;
        {
          Span root(rec, "request.first_time");
          h = acquire(me.confs, r, subjects);
          if (h != nullptr) got = callEntry(r, brew_func_entry(h), subjects);
          brew_release_h(h);
        }
        const uint64_t dt = ticks() - t0;
        me.meter.add(traced, 1, dt);
        if (!traced) {
          me.windows.addWork(1);
          me.misses.add(dt);
        }
        if (h == nullptr)
          me.result.failedOperation("first-time key rewrite failed: " + r.describe());
        else if (!sameBits(got, callGeneric(r, subjects)))
          me.result.wrongOutput("first-time key: " + r.describe());
        continue;
      }
      const double u = rng.uniform();
      const int rank = static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const int k = keyOfRank[std::min(rank, kKeys - 1)];
      const Request& r = keys[k];
      const uint64_t t0 = ticks();
      uint64_t rewriteTicks = 0;
      double got = 0;
      brew_func* h = nullptr;
      {
        Span root(rec, "request");
        {
          const uint64_t r0 = ticks();
          Span s(rec, "brew_rewrite2");
          h = acquire(me.confs, r, subjects);
          rewriteTicks = ticks() - r0;
        }
        if (h != nullptr) {
          Span s(rec, "generated.call");
          got = callEntry(r, brew_func_entry(h), subjects);
        }
        Span s(rec, "code_cache.release");
        brew_release_h(h);
      }
      const uint64_t dt = ticks() - t0;
      if (traced && n % 256 == 0) {
        Span s(rec, "replay");
        const Stages stages = replayHit(r, subjects, rec);
        if (stages.ok) me.attribution.add(rewriteTicks, stages);
      }
      me.meter.add(traced, 1, dt);
      if (!traced) me.windows.add(1, dt);
      if (h == nullptr)
        me.result.failedOperation("reuse key rewrite failed: " + r.describe());
      else if (!sameBits(got, expected[k]))
        me.result.wrongOutput("reuse key: " + r.describe());
    }
    me.windows.finish();
  };
  std::vector<std::thread> threads;
  const double t0 = wallSeconds();
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  while (wallSeconds() < t0 + ctx.seconds) usleep(2000);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  cache.stop();
  out.telemetryJson = telemetrySnapshotJson();

  TickHist misses;
  RateMeter meter;
  Attribution attribution;
  std::vector<const WindowStats*> windows;
  for (Client& me : state) {
    misses.merge(me.misses);
    meter.merge(me.meter);
    windows.push_back(&me.windows);
    out.failed += me.result.failed;
    out.correct = out.correct && me.result.correct;
    for (std::string& e : me.result.errors) out.note(std::move(e));
  }
  out.attempted = meter.units(false) + meter.units(true);

  // Oracle on a seeded sample of the keys.
  for (int i = 0; i < 32; ++i) {
    const Request& r = keys[(static_cast<uint64_t>(i) * 2654435761ULL + ctx.seed) % kKeys];
    brew_func* h = acquire(confs, r, subjects);
    const std::string why = h != nullptr ? oracle(r, brew_func_entry(h), subjects)
                                         : std::string("rewrite failed");
    if (!why.empty()) out.fail("oracle: " + why + " (" + r.describe() + ")");
    brew_release_h(h);
  }

  out.detail("hot_reuse.clients", clients, "threads");
  out.detail("hot_reuse.first_time_samples", static_cast<double>(misses.count()), "count");
  out.detail("hot_reuse.first_time_p50_us", toUs(misses.quantile(0.5)), "us");
  addSetupDetails(out, configureS, setup);
  if (!ctx.trace) {
    addWindowMetrics(out, "hot_reuse", configureS + setup.cpuMedian(), windows);
  } else {
    for (Client& me : state) {
      attribution.merge(me.attribution);
      out.spans.push_back(std::move(me.spans));
    }
    finishTraced(out, meter, attribution, cache);
  }
  return out;
}

// ---- warm_start -------------------------------------------------------------

Outcome runWarmStart(const RunContext& ctx, Subjects& subjects, const Confs& confs) {
  Outcome out;
  constexpr int kRequests = 1500;
  const double configureS = configureRuntime(kDefaultCacheBytes, ctx.runDir + "/store");
  if (configureS < 0) {
    out.fail("brew_configure failed");
    return out;
  }
  brew::persist::Store* store = brew::SpecManager::process().persistStore();
  if (store == nullptr) {
    out.fail("persistent store unavailable in " + ctx.runDir);
    return out;
  }

  // Set-up: fill the empty store with the warm set (a cold rewrite plus a
  // write each). Between repetitions the benchmark deletes exactly the
  // entries it wrote, so every repetition writes into an empty store.
  RequestGen gen(ctx.seed, coldMix(), subjects);
  std::vector<Request> requests;
  for (int i = 0; i < kRequests; ++i) requests.push_back(gen.next());
  SetupClock setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) {
      std::error_code ec;
      for (const Request& r : requests) {
        const brew::CacheKey key = brew::makeCacheKey(configFor(r.kind), brew::PassOptions{},
                                                      r.fn(), argsFor(r, subjects));
        std::filesystem::remove(store->entryPathFor(r.fn(), key.configFp, key.argsHash), ec);
      }
    }
    brew_cache_reset();
    setup.begin();
    for (const Request& r : requests) {
      brew_func* h = acquire(confs, r, subjects);
      if (h == nullptr) {
        out.fail("set-up rewrite failed: " + r.describe());
        return out;
      }
      brew_release_h(h);
    }
    setup.end();
    brew_persist_stats persist{};
    brew_getpersiststats(&persist);
    if (persist.writes != static_cast<uint64_t>(kRequests))
      out.fail("set-up persisted " + std::to_string(persist.writes) + " of " +
               std::to_string(kRequests) + " specializations");
  }

  WindowStats windows;
  SpanRecorder spans(0);
  Attribution attribution;
  brew::CodeCache missCache;
  CacheDelta cache;
  brew_telemetry_reset();
  RateMeter meter;
  uint64_t rounds = 0, loads = 0;
  startWindows(windows, ctx, ticks());
  const double deadline = wallSeconds() + ctx.seconds;
  while (wallSeconds() < deadline) {
    const bool traced = ctx.trace && rounds % 2 == 1;
    SpanRecorder* rec = traced ? &spans : nullptr;
    {
      Span s(rec, "code_cache.reset");
      brew_cache_reset();
    }
    cache.start();
    const uint64_t attempts0 = rewriteAttempts();
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& r = requests[i];
      if (rec != nullptr) rec->setRequest(static_cast<uint32_t>(loads));
      const bool replay = traced && i % 32 == 0;
      const uint64_t t0 = ticks();
      uint64_t rewriteTicks = 0, replayTicks = 0;
      Stages stages;
      const auto doReplay = [&] {
        const uint64_t r0 = ticks();
        Span s(rec, "replay");
        stages = replayWarm(r, subjects, missCache, *store, rec);
        replayTicks += ticks() - r0;
      };
      {
        Span root(rec, "request");
        if (replay && (i / 32) % 2 == 0) doReplay();
        brew_func* h = nullptr;
        {
          const uint64_t r0 = ticks();
          Span s(rec, "brew_rewrite2");
          h = acquire(confs, r, subjects);
          rewriteTicks = ticks() - r0;
        }
        if (replay && (i / 32) % 2 == 1) doReplay();
        if (h == nullptr) {
          out.failedOperation("warm reload failed: " + r.describe());
        } else {
          Span s(rec, "generated.check");
          if (!check(r, brew_func_entry(h), subjects))
            out.wrongOutput("warm reload wrong: " + r.describe());
        }
        {
          Span s(rec, "code_cache.release");
          brew_release_h(h);
        }
      }
      // Reloads only: a restarted process has no cache to reset.
      meter.add(traced, 1, ticks() - t0 - replayTicks);
      if (!traced) windows.add(1, rewriteTicks);
      if (replay && stages.ok) attribution.add(rewriteTicks, stages);
      ++loads;
    }
    cache.stop();
    brew_persist_stats persist{};
    brew_getpersiststats(&persist);
    if (persist.hits != requests.size() || persist.rejects != 0)
      out.fail("round " + std::to_string(rounds) + ": " + std::to_string(persist.hits) +
               " persist hits and " + std::to_string(persist.rejects) + " rejects for " +
               std::to_string(requests.size()) + " requests");
    if (rewriteAttempts() != attempts0)
      out.fail("round " + std::to_string(rounds) + ": warm start ran a rewrite");
    ++rounds;
  }
  windows.finish();
  out.attempted = loads;
  out.telemetryJson = telemetrySnapshotJson();

  for (int i = 0; i < 32; ++i) {
    const Request& r = requests[(static_cast<uint64_t>(i) * 2654435761ULL + ctx.seed) %
                                requests.size()];
    brew_func* h = acquire(confs, r, subjects);
    const std::string why = h != nullptr ? oracle(r, brew_func_entry(h), subjects)
                                         : std::string("reload failed");
    if (!why.empty()) out.fail("oracle: " + why + " (" + r.describe() + ")");
    brew_release_h(h);
  }

  out.detail("warm_start.rounds", static_cast<double>(rounds), "count");
  addSetupDetails(out, configureS, setup);
  if (!ctx.trace) {
    addWindowMetrics(out, "warm_start", configureS + setup.cpuMedian(), {&windows});
  } else {
    finishTraced(out, meter, attribution, cache);
    out.spans.push_back(std::move(spans));
  }
  return out;
}

}  // namespace bench
