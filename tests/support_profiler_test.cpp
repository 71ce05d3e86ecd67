// Sampling profiler + code-region index (support/profiler.hpp): region
// CRUD and seqlock lookup, deterministic sample attribution through the
// injection hook, the real SIGPROF path, concurrent register/inject/drain
// hammering (runs under the concurrency label and the TSan sweep), the
// JSON exporter, and the brew_profile_* C wrappers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/brew.h"
#include "jit/assembler.hpp"
#include "json_check.hpp"
#include "support/profiler.hpp"

namespace brew {
namespace {

std::string readFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string tmpPath(const char* name) {
  return std::string(::getenv("TMPDIR") != nullptr ? ::getenv("TMPDIR")
                                                   : "/tmp") +
         "/" + name + "." + std::to_string(::getpid());
}

TEST(CodeRegionIndex, RegisterLookupUnregister) {
  alignas(16) static const uint8_t blob[64] = {0xc3};
  const auto base = reinterpret_cast<uint64_t>(blob);
  const size_t before = prof::codeRegionCount();

  prof::registerCodeRegion(blob, sizeof blob, "test_region_a", 0xabcdefULL);
  EXPECT_EQ(prof::codeRegionCount(), before + 1);

  prof::CodeRegion region;
  ASSERT_TRUE(prof::lookupCodeRegion(base, &region));
  EXPECT_EQ(region.base, base);
  EXPECT_EQ(region.size, sizeof blob);
  EXPECT_EQ(region.fingerprint, 0xabcdefULL);
  EXPECT_STREQ(region.name, "test_region_a");

  // Interior and last-byte PCs resolve; one-past-the-end does not.
  EXPECT_TRUE(prof::lookupCodeRegion(base + 32, &region));
  EXPECT_TRUE(prof::lookupCodeRegion(base + sizeof blob - 1, &region));
  EXPECT_FALSE(prof::lookupCodeRegion(base + sizeof blob, &region));

  // Re-registering the same base updates in place, not a second slot.
  prof::registerCodeRegion(blob, 32, "test_region_a2", 0x1234ULL);
  EXPECT_EQ(prof::codeRegionCount(), before + 1);
  ASSERT_TRUE(prof::lookupCodeRegion(base + 8, &region));
  EXPECT_STREQ(region.name, "test_region_a2");
  EXPECT_EQ(region.size, 32u);

  prof::unregisterCodeRegion(blob, 32);
  EXPECT_EQ(prof::codeRegionCount(), before);
  EXPECT_FALSE(prof::lookupCodeRegion(base, &region));
}

TEST(CodeRegionIndex, LookupMissesForeignPc) {
  prof::CodeRegion region;
  EXPECT_FALSE(prof::lookupCodeRegion(0, &region));
  // The stack is never a registered region.
  int local = 0;
  EXPECT_FALSE(
      prof::lookupCodeRegion(reinterpret_cast<uint64_t>(&local), &region));
}

TEST(Profiler, InjectedSamplesAttributeToRegion) {
  alignas(16) static const uint8_t hot[128] = {0xc3};
  alignas(16) static const uint8_t cold[128] = {0xc3};
  prof::registerCodeRegion(hot, sizeof hot, "inject_hot", 1);
  prof::registerCodeRegion(cold, sizeof cold, "inject_cold", 2);

  const auto hotPc = reinterpret_cast<uint64_t>(hot) + 4;
  const auto coldPc = reinterpret_cast<uint64_t>(cold) + 4;
  for (int i = 0; i < 10; ++i) prof::injectSampleForTest(hotPc);
  for (int i = 0; i < 3; ++i) prof::injectSampleForTest(coldPc);
  prof::injectSampleForTest(reinterpret_cast<uint64_t>(&readFile));  // alien

  prof::drainSamplesNow();
  const prof::ProfileSnapshot snap = prof::profileSnapshot();
  EXPECT_GE(snap.totalSamples, 14u);
  EXPECT_GE(snap.brewSamples, 13u);

  uint64_t hotSamples = 0, coldSamples = 0;
  for (const auto& e : snap.entries) {
    if (e.name == "inject_hot") hotSamples = e.samples;
    if (e.name == "inject_cold") coldSamples = e.samples;
  }
  EXPECT_GE(hotSamples, 10u);
  EXPECT_GE(coldSamples, 3u);

  // Entries are sorted by samples, descending.
  for (size_t i = 1; i < snap.entries.size(); ++i)
    EXPECT_GE(snap.entries[i - 1].samples, snap.entries[i].samples);

  prof::unregisterCodeRegion(hot, sizeof hot);
  prof::unregisterCodeRegion(cold, sizeof cold);
}

TEST(Profiler, RealSigprofTicksLand) {
  if (!prof::startProfiler(997)) GTEST_SKIP() << "cannot arm ITIMER_PROF";
  EXPECT_TRUE(prof::profilerRunning());
  const uint64_t before = prof::profileSnapshot().totalSamples;

  // Burn CPU long enough for several ticks at ~1ms period. ITIMER_PROF
  // counts process CPU time, so a busy loop is the right load.
  volatile uint64_t sink = 0;
  for (int spin = 0; spin < 200; ++spin) {
    for (uint64_t i = 0; i < 400000; ++i) sink = sink + i * 2654435761u;
    if (prof::profileSnapshot().totalSamples > before) break;
  }

  prof::stopProfiler();
  EXPECT_FALSE(prof::profilerRunning());
  const prof::ProfileSnapshot snap = prof::profileSnapshot();
  EXPECT_GT(snap.totalSamples, before)
      << "no SIGPROF tick despite sustained CPU burn";
}

TEST(Profiler, StartIsIdempotentAndRestartable) {
  if (!prof::startProfiler(101)) GTEST_SKIP() << "cannot arm ITIMER_PROF";
  EXPECT_TRUE(prof::startProfiler(101));  // already running: true, no rearm
  prof::stopProfiler();
  prof::stopProfiler();  // stop when stopped is a no-op
  if (!prof::startProfiler(211)) GTEST_SKIP() << "cannot re-arm ITIMER_PROF";
  EXPECT_TRUE(prof::profilerRunning());
  prof::stopProfiler();
}

TEST(Profiler, WriteJsonShape) {
  alignas(16) static const uint8_t blob[32] = {0xc3};
  prof::registerCodeRegion(blob, sizeof blob, "json_region", 7);
  for (int i = 0; i < 5; ++i)
    prof::injectSampleForTest(reinterpret_cast<uint64_t>(blob) + 1);
  prof::drainSamplesNow();

  const std::string path = tmpPath("brew_profile_test");
  ASSERT_TRUE(prof::writeProfileJson(path.c_str()));
  const std::string json = readFile(path);
  EXPECT_NE(json.find("\"hz\""), std::string::npos);
  EXPECT_NE(json.find("\"total_samples\""), std::string::npos);
  EXPECT_NE(json.find("\"brew_samples\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_samples\""), std::string::npos);
  EXPECT_NE(json.find("\"entries\""), std::string::npos);
  EXPECT_NE(json.find("json_region"), std::string::npos);
  // tmp+rename export: no leftover temporary.
  EXPECT_EQ(readFile(path + ".tmp"), "");
  std::remove(path.c_str());
  prof::unregisterCodeRegion(blob, sizeof blob);
}

// The C wrappers drive the same profiler: start, real ticks, stop,
// snapshot with attribution, and a JSON export that parses.
TEST(Profiler, CApiRoundTrip) {
  if (brew_profile_start(499) != 0) GTEST_SKIP() << "cannot arm ITIMER_PROF";
  EXPECT_EQ(brew_profile_start(97), 0);  // already running: rate kept
  alignas(16) static const uint8_t blob[32] = {0xc3};
  prof::registerCodeRegion(blob, sizeof blob, "capi_region", 9);
  for (int i = 0; i < 3; ++i)
    prof::injectSampleForTest(reinterpret_cast<uint64_t>(blob) + 1);
  brew_profile before;
  brew_profile_snapshot(&before);
  volatile uint64_t sink = 0;
  brew_profile during = before;
  for (int spin = 0; spin < 200 && during.total_samples <= before.total_samples;
       ++spin) {
    for (uint64_t i = 0; i < 400000; ++i) sink = sink + i * 2654435761u;
    brew_profile_snapshot(&during);
  }
  brew_profile_stop();
  EXPECT_FALSE(prof::profilerRunning());

  brew_profile after;
  brew_profile_snapshot(&after);
  EXPECT_EQ(after.hz, 499);
  EXPECT_GT(after.total_samples, before.total_samples)
      << "no SIGPROF tick despite sustained CPU burn";
  uint64_t regionSamples = 0;
  for (size_t i = 0; i < after.entry_count; ++i)
    if (std::strcmp(after.entries[i].name, "capi_region") == 0)
      regionSamples = after.entries[i].samples;
  EXPECT_GE(regionSamples, 3u);

  const std::string path = tmpPath("brew_profile_capi_test");
  ASSERT_EQ(brew_profile_write_json(path.c_str()), 0);
  const std::string json = readFile(path);
  std::remove(path.c_str());
  EXPECT_TRUE(isValidJson(json)) << json;
  EXPECT_NE(json.find("capi_region"), std::string::npos);
  EXPECT_EQ(brew_profile_write_json(nullptr), -1);
  brew_profile_snapshot(nullptr);  // no-op
  prof::unregisterCodeRegion(blob, sizeof blob);
}

// 8 threads hammer the sample path while regions churn and a drainer runs:
// the TSan build of this test is the no-locks-in-the-ring proof.
TEST(Profiler, ConcurrentInjectRegisterDrainHammer) {
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  alignas(16) static uint8_t arena[kThreads][64];
  // Aggregates are process-wide: count only this run's samples, so the
  // test also holds under --gtest_repeat.
  const auto hammeredSamples = [] {
    uint64_t samples = 0;
    for (const auto& e : prof::profileSnapshot().entries)
      if (e.name.rfind("hammer_", 0) == 0) samples += e.samples;
    return samples;
  };
  const uint64_t hammeredBefore = hammeredSamples();

  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &go] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      char name[32];
      std::snprintf(name, sizeof name, "hammer_%d", t);
      const auto pc = reinterpret_cast<uint64_t>(&arena[t][8]);
      for (int i = 0; i < kIters; ++i) {
        if ((i & 255) == 0)
          prof::registerCodeRegion(arena[t], sizeof arena[t], name,
                                   static_cast<uint64_t>(t));
        prof::injectSampleForTest(pc);
        if ((i & 1023) == 1023) prof::drainSamplesNow();
      }
    });
  }
  std::atomic<bool> stop{false};
  pool.emplace_back([&go, &stop] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!stop.load(std::memory_order_acquire)) {
      prof::drainSamplesNow();
      prof::CodeRegion region;
      prof::lookupCodeRegion(reinterpret_cast<uint64_t>(&arena[3][8]),
                             &region);
      std::this_thread::yield();
    }
  });
  go.store(true, std::memory_order_release);
  for (int t = 0; t < kThreads; ++t) pool[static_cast<size_t>(t)].join();
  stop.store(true, std::memory_order_release);
  pool.back().join();
  prof::drainSamplesNow();

  const uint64_t hammered = hammeredSamples() - hammeredBefore;
  // Every injected sample is either attributed or counted as dropped
  // (rings are finite and drains race the injectors).
  EXPECT_GT(hammered, 0u);
  EXPECT_LE(hammered, static_cast<uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t)
    prof::unregisterCodeRegion(arena[t], sizeof arena[t]);
}

}  // namespace
}  // namespace brew
