// Specialization cache tests: single-flight deduplication across threads,
// LRU eviction under a byte budget (with outstanding handles surviving),
// content-sensitive keying, per-entry footprint, and worker-pool batches
// through SpecManager.
#include <gtest/gtest.h>
#include <malloc.h>
#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/brew.h"
#include "core/code_cache.hpp"
#include "core/rewriter.hpp"
#include "core/spec_manager.hpp"
#include "jit/assembler.hpp"
#include "support/flight_recorder.hpp"
#include "support/telemetry.hpp"

namespace brew {
namespace {

__attribute__((noinline)) int addmul(int a, int b) { return a * 7 + b; }
typedef int (*addmul_t)(int, int);

__attribute__((noinline)) int64_t triple(int64_t x) { return x * 3; }
typedef int64_t (*triple_t)(int64_t);

typedef int64_t (*load_t)(const int64_t*);

// "mov rax, [rdi]; ret" built directly — a compiled-C load would pick up
// sanitizer instrumentation the tracer cannot follow.
ExecMemory buildLoadThrough() {
  jit::Assembler as;
  as.movRegMem(isa::Reg::rax, isa::MemOperand{.base = isa::Reg::rdi}, 8);
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  return std::move(*mem);
}

static_assert(!std::is_copy_constructible_v<RewrittenFunction>,
              "RewrittenFunction is move-only; share code via shareHandle()");
static_assert(std::is_move_constructible_v<RewrittenFunction>);
static_assert(std::is_copy_constructible_v<CodeHandle>,
              "CodeHandle copies retain");

Config knownFirstParam() {
  Config config;
  config.setParamKnown(0);
  config.setReturnKind(ReturnKind::Int);
  return config;
}

TEST(ConfigFingerprint, DeterministicAndShapeSensitive) {
  Config a = knownFirstParam();
  Config b = knownFirstParam();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  Config c = knownFirstParam();
  c.setParamKnown(1);
  EXPECT_NE(a.fingerprint(), c.fingerprint());

  Config d = knownFirstParam();
  d.setReturnKind(ReturnKind::Float);
  EXPECT_NE(a.fingerprint(), d.fingerprint());

  PassOptions defaults;
  PassOptions ablation;
  ablation.peephole = false;
  EXPECT_NE(defaults.fingerprint(), ablation.fingerprint());
}

TEST(CacheKeying, UnknownArgumentsShareOneEntry) {
  // Only known values reach the generated code, so rewrites differing in
  // unknown arguments must alias.
  Config config;
  const ArgValue a[] = {ArgValue::fromInt(1), ArgValue::fromInt(2)};
  const ArgValue b[] = {ArgValue::fromInt(30), ArgValue::fromInt(40)};
  EXPECT_EQ(hashSpecArgs(config, a), hashSpecArgs(config, b));

  Config known = knownFirstParam();
  EXPECT_NE(hashSpecArgs(known, a), hashSpecArgs(known, b));
}

TEST(CodeCacheTest, EightThreadsSameKeyTraceOnce) {
  SpecManager manager;
  const Config config = knownFirstParam();
  const std::vector<ArgValue> args = {ArgValue::fromInt(42),
                                      ArgValue::fromInt(0)};

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<void*> entries(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      auto handle = manager.rewrite(config, PassOptions{},
                                    reinterpret_cast<const void*>(&addmul),
                                    args);
      ASSERT_TRUE(handle.ok()) << handle.error().message();
      entries[static_cast<size_t>(t)] = handle->entry();
      EXPECT_EQ(reinterpret_cast<addmul_t>(handle->entry())(1, 2),
                42 * 7 + 2);
    });
  }
  while (ready.load() != kThreads) std::this_thread::yield();
  go.store(true);
  for (std::thread& t : threads) t.join();

  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(entries[0], entries[t]);
  const CacheStats stats = manager.cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CodeCacheTest, RewriterAttachedToManagerHitsCache) {
  SpecManager manager;
  Rewriter rewriter{knownFirstParam(), manager};
  auto first = rewriter.rewrite(reinterpret_cast<const void*>(&addmul), 5, 0);
  ASSERT_TRUE(first.ok()) << first.error().message();
  auto second = rewriter.rewrite(reinterpret_cast<const void*>(&addmul), 5, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->entry(), second->entry());
  EXPECT_EQ(manager.cache().stats().misses, 1u);
  EXPECT_EQ(manager.cache().stats().hits, 1u);
  // Both RewrittenFunctions and the cache entry share one block.
  EXPECT_EQ(first->handle().useCount(), 3u);
}

TEST(CodeCacheTest, EvictionKeepsOutstandingHandlesExecutable) {
  SpecManager manager{SpecManager::Options{.workers = 1, .cacheBytes = 1}};
  Rewriter rewriter{knownFirstParam(), manager};

  auto first = rewriter.rewrite(reinterpret_cast<const void*>(&addmul), 9, 0);
  ASSERT_TRUE(first.ok()) << first.error().message();
  // Second key evicts the first (the 1-byte budget holds at most the
  // newest entry), but the held handle must stay executable.
  auto second = rewriter.rewrite(reinterpret_cast<const void*>(&triple), 4);
  ASSERT_TRUE(second.ok()) << second.error().message();

  const CacheStats stats = manager.cache().stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.entries, 1u);
  EXPECT_EQ(first->as<addmul_t>()(1, 2), 9 * 7 + 2);
  EXPECT_EQ(second->as<triple_t>()(4), 12);

  // The evicted key now misses again.
  auto third = rewriter.rewrite(reinterpret_cast<const void*>(&addmul), 9, 0);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(manager.cache().stats().misses, 3u);
}

TEST(CodeCacheTest, KnownPointeeContentChangesTheKey) {
  // The key hashes the bytes BEHIND a KnownPtr parameter: same pointer with
  // mutated contents is a different specialization (the PGAS domain-map
  // redistribution case).
  static int64_t cell = 100;
  ExecMemory loadThrough = buildLoadThrough();
  SpecManager manager;
  Config config;
  config.setParamKnownPtr(0, sizeof cell);
  config.setReturnKind(ReturnKind::Int);
  Rewriter rewriter{config, manager};

  auto first = rewriter.rewrite(loadThrough.data(), &cell);
  ASSERT_TRUE(first.ok()) << first.error().message();
  EXPECT_EQ(first->as<load_t>()(nullptr), 100);

  cell = 200;
  auto second = rewriter.rewrite(loadThrough.data(), &cell);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->as<load_t>()(nullptr), 200);
  EXPECT_EQ(manager.cache().stats().misses, 2u);
  EXPECT_EQ(manager.cache().stats().hits, 0u);
}

TEST(CodeCacheTest, FailuresAreNotCached) {
  static const uint8_t bogus[] = {0x0f, 0x31, 0xc3};  // rdtsc; ret
  SpecManager manager;
  const std::vector<ArgValue> none;
  for (int i = 0; i < 2; ++i) {
    auto result = manager.rewrite(Config{}, PassOptions{}, bogus, none);
    EXPECT_FALSE(result.ok());
  }
  EXPECT_EQ(manager.cache().stats().misses, 2u);  // retried, not served
  EXPECT_EQ(manager.cache().stats().entries, 0u);
}

TEST(CodeCacheTest, HandleSurvivesCacheClear) {
  SpecManager manager;
  auto result =
      manager.rewrite(knownFirstParam(), PassOptions{},
                      reinterpret_cast<const void*>(&addmul),
                      std::vector<ArgValue>{ArgValue::fromInt(3),
                                            ArgValue::fromInt(0)});
  ASSERT_TRUE(result.ok()) << result.error().message();
  CodeHandle handle = *result;
  manager.cache().clear();
  EXPECT_EQ(manager.cache().stats().entries, 0u);
  EXPECT_EQ(handle.useCount(), 2u);  // `result` + `handle`, no cache ref
  EXPECT_EQ(reinterpret_cast<addmul_t>(handle.entry())(0, 5), 3 * 7 + 5);
}

// A one-item batch on the worker pool: a caller polling the item sees it
// finish, the built code computes the specialized result, and the success
// is counted once as an async install with its latency and a flight record
// naming the subject.
TEST(SpecManagerAsync, InstallObservedBySpinningCaller) {
  flight::clearForTest();
  telemetry::Histogram& queued =
      telemetry::histogram(telemetry::HistogramId::AsyncQueueLatencyNs);
  const uint64_t queuedBefore = queued.count();
  SpecManager manager{SpecManager::Options{.workers = 2}};
  const auto* fn = reinterpret_cast<const void*>(&addmul);
  auto batch = manager.rewriteBatch(
      knownFirstParam(), PassOptions{},
      {{fn, {ArgValue::fromInt(42), ArgValue::fromInt(0)}}});
  ASSERT_EQ(batch->size(), 1u);

  // Non-blocking poll, as the dispatcher's miss path does.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!batch->done(0) && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_TRUE(batch->done(0));
  ASSERT_TRUE(batch->ok(0)) << batch->error(0).message();
  const CodeHandle handle = batch->handle(0);
  ASSERT_GT(handle.codeSize(), 0u);
  EXPECT_EQ(reinterpret_cast<addmul_t>(handle.entry())(1, 2), 42 * 7 + 2);
  EXPECT_EQ(batch->next(), 0);
  EXPECT_EQ(batch->next(), -1);

  const CacheStats stats = manager.cache().stats();
  EXPECT_EQ(stats.asyncInstalls, 1u);
  EXPECT_GT(stats.asyncLatencyNsMax, 0u);
  EXPECT_EQ(stats.asyncLatencyNsTotal, stats.asyncLatencyNsMax);
  EXPECT_EQ(queued.count(), queuedBefore + 1);

  flight::Record records[flight::kCapacity];
  const size_t n = flight::snapshot(records, flight::kCapacity);
  size_t installs = 0;
  for (size_t i = 0; i < n; ++i) {
    if (records[i].event != flight::Event::AsyncInstall) continue;
    ++installs;
    EXPECT_EQ(records[i].a, reinterpret_cast<uint64_t>(fn));
    EXPECT_EQ(records[i].b, stats.asyncLatencyNsMax);
  }
  EXPECT_EQ(installs, 1u);
}

TEST(TelemetryMirror, RegistryCountersTrackCacheBehavior) {
  // Every per-instance CacheStats movement is mirrored into the global
  // telemetry registry (brew_telemetry_snapshot must agree with
  // brew_getcachestats), so deltas around a private cache's activity must
  // match its own stats exactly — gtest runs tests sequentially and no
  // async work is in flight here.
  using telemetry::counter;
  using telemetry::CounterId;
  const uint64_t hits0 = counter(CounterId::CacheHits).value();
  const uint64_t misses0 = counter(CounterId::CacheMisses).value();
  const uint64_t evictions0 = counter(CounterId::CacheEvictions).value();
  const uint64_t insertions0 = counter(CounterId::CacheInsertions).value();
  const int64_t bytes0 =
      telemetry::gauge(telemetry::GaugeId::CacheBytesLive).value();

  {
    SpecManager manager{SpecManager::Options{.workers = 1, .cacheBytes = 1}};
    Rewriter rewriter{knownFirstParam(), manager};
    auto a = rewriter.rewrite(reinterpret_cast<const void*>(&addmul), 9, 0);
    ASSERT_TRUE(a.ok()) << a.error().message();
    auto hit = rewriter.rewrite(reinterpret_cast<const void*>(&addmul), 9, 0);
    ASSERT_TRUE(hit.ok());
    // Second key evicts the first under the 1-byte budget.
    auto b = rewriter.rewrite(reinterpret_cast<const void*>(&triple), 4);
    ASSERT_TRUE(b.ok()) << b.error().message();

    const CacheStats stats = manager.cache().stats();
    EXPECT_EQ(counter(CounterId::CacheHits).value() - hits0, stats.hits);
    EXPECT_EQ(counter(CounterId::CacheMisses).value() - misses0,
              stats.misses);
    EXPECT_EQ(counter(CounterId::CacheEvictions).value() - evictions0,
              stats.evictions);
    EXPECT_EQ(counter(CounterId::CacheInsertions).value() - insertions0,
              stats.insertions);
    EXPECT_EQ(
        telemetry::gauge(telemetry::GaugeId::CacheBytesLive).value() - bytes0,
        static_cast<int64_t>(stats.codeBytes));
  }
  // Cache destruction returns the byte gauge to its starting level.
  EXPECT_EQ(telemetry::gauge(telemetry::GaugeId::CacheBytesLive).value(),
            bytes0);
}

TEST(TelemetryMirror, CapiSnapshotAgreesWithCacheStats) {
  // The acceptance contract: the "cache.*" counters seen through
  // brew_telemetry_snapshot track the same events as brew_getcachestats on
  // the process-wide cache. Compare deltas across a forced miss + hit.
  auto capiCounter = [](const char* name) -> uint64_t {
    brew_telemetry snap{};
    brew_telemetry_snapshot(&snap);
    for (size_t i = 0; i < snap.counter_count; ++i)
      if (std::strcmp(snap.counters[i].name, name) == 0)
        return snap.counters[i].value;
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };

  brew_cache_stats before{};
  brew_getcachestats(&before);
  const uint64_t hits0 = capiCounter("cache.hits");
  const uint64_t misses0 = capiCounter("cache.misses");

  SpecManager& process = SpecManager::process();
  const std::vector<ArgValue> args = {ArgValue::fromInt(77),
                                      ArgValue::fromInt(0)};
  for (int i = 0; i < 2; ++i) {
    auto result = process.rewrite(knownFirstParam(), PassOptions{},
                                  reinterpret_cast<const void*>(&addmul),
                                  args);
    ASSERT_TRUE(result.ok()) << result.error().message();
  }

  brew_cache_stats after{};
  brew_getcachestats(&after);
  EXPECT_EQ(capiCounter("cache.hits") - hits0, after.hits - before.hits);
  EXPECT_EQ(capiCounter("cache.misses") - misses0,
            after.misses - before.misses);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);
}

// Two-way branch on an unknown argument: its specializations carry more
// than one block.
__attribute__((noinline)) int64_t pickSide(int64_t k, int64_t x) {
  if (x < k) return x * 5 - k;
  return x + k * 3;
}
typedef int64_t (*pickSide_t)(int64_t, int64_t);

TEST(CodeCacheTest, CachedEntriesKeepOnlyFinalizedCode) {
  constexpr int kEntries = 256;
  const Config config = knownFirstParam();
  const auto* fn = reinterpret_cast<const void*>(&pickSide);
  const auto argsFor = [](int known) {
    return std::vector<ArgValue>{
        ArgValue::fromInt(static_cast<uint64_t>(known)), ArgValue::fromInt(0)};
  };
  const auto buildAll = [&](SpecManager& manager) {
    std::vector<CodeHandle> held;
    for (int i = 0; i < kEntries; ++i) {
      auto built = manager.rewrite(config, PassOptions{}, fn, argsFor(i));
      if (!built.ok()) {
        ADD_FAILURE() << "key " << i << ": " << built.error().message();
        break;
      }
      EXPECT_EQ(reinterpret_cast<pickSide_t>(built->entry())(i, 1000),
                pickSide(i, 1000));
      held.push_back(std::move(*built));
    }
    return held;
  };

  // Reference block counts: the trace and passes a rewrite runs, counted
  // before emit. This also warms process-wide state (telemetry, decoder
  // caches), as does the throwaway manager below, so the heap growth
  // measured next is the cached entries' own.
  uint64_t expectedBlocks = 0;
  for (int i = 0; i < kEntries; ++i) {
    Tracer tracer(config);
    auto captured = tracer.trace(reinterpret_cast<uint64_t>(fn), argsFor(i));
    ASSERT_TRUE(captured.ok()) << captured.error().message();
    runPasses(*captured, PassOptions{});
    expectedBlocks += static_cast<uint64_t>(captured->blockCount());
  }
  EXPECT_GT(expectedBlocks, static_cast<uint64_t>(kEntries));
  {
    SpecManager warmup;
    ASSERT_TRUE(warmup.rewrite(config, PassOptions{}, fn, argsFor(-1)).ok());
  }

  // A cached entry holds its finalized code and stats, not the captured
  // IR (and its trace arena) it was emitted from.
  SpecManager manager;
  const size_t heapBefore = mallinfo2().uordblks;
  std::vector<CodeHandle> held = buildAll(manager);
  const size_t heapAfter = mallinfo2().uordblks;
  ASSERT_EQ(held.size(), static_cast<size_t>(kEntries));
  const size_t growth = heapAfter > heapBefore ? heapAfter - heapBefore : 0;
  EXPECT_LT(growth, static_cast<size_t>(kEntries) * 8192)
      << growth / kEntries << " heap bytes per cached entry";
  EXPECT_EQ(manager.cache().stats().entries, static_cast<uint64_t>(kEntries));
  EXPECT_EQ(manager.cache().stats().blocksLive, expectedBlocks);

  // Persisted units keep the same block count: written by one manager,
  // reloaded from disk by another.
  char dirTemplate[] = "/tmp/brew-cache-test-XXXXXX";
  ASSERT_NE(::mkdtemp(dirTemplate), nullptr);
  SpecManager::Options persistent;
  persistent.cacheDir = dirTemplate;
  {
    SpecManager writer{persistent};
    held = buildAll(writer);
    const CacheStats stats = writer.cache().stats();
    EXPECT_EQ(stats.persistWrites, static_cast<uint64_t>(kEntries));
    EXPECT_EQ(stats.blocksLive, expectedBlocks);
  }
  {
    SpecManager reader{persistent};
    held = buildAll(reader);
    const CacheStats stats = reader.cache().stats();
    EXPECT_EQ(stats.persistHits, static_cast<uint64_t>(kEntries));
    EXPECT_EQ(stats.blocksLive, expectedBlocks);
  }
  held.clear();
  std::filesystem::remove_all(persistent.cacheDir);
}

// A failing item reports its error, has no handle and counts no async
// install.
TEST(SpecManagerAsync, FailedAsyncKeepsOriginalEntry) {
  static const uint8_t bogus[] = {0x0f, 0x31, 0xc3};  // rdtsc; ret
  SpecManager manager;
  auto batch = manager.rewriteBatch(Config{}, PassOptions{}, {{bogus, {}}});
  batch->wait();
  ASSERT_TRUE(batch->done(0));
  EXPECT_FALSE(batch->ok(0));
  EXPECT_FALSE(batch->handle(0));
  EXPECT_NE(batch->error(0).code, ErrorCode::Ok);
  EXPECT_EQ(manager.cache().stats().asyncInstalls, 0u);
}

}  // namespace
}  // namespace brew
