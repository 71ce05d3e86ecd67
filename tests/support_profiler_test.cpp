// Code-region index (support/profiler.hpp): region CRUD and seqlock
// lookup, and a concurrent register/unregister/lookup hammer (runs under
// the concurrency label and the TSan sweep).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "support/profiler.hpp"

namespace brew {
namespace {

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

// 8 threads register and unregister their own regions (so slots are freed
// and reused across threads) while a reader resolves PCs inside every
// region. A hit must never mix two records: it contains the PC and carries
// the name and fingerprint of the region the PC belongs to. The TSan build
// of this test is the seqlock's race-freedom proof.
TEST(CodeRegionIndex, ConcurrentRegisterLookupHammer) {
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  constexpr int kMaxIters = 400000;  // only while the reader has no hit yet
  alignas(16) static uint8_t arena[kThreads][64];
  const size_t before = prof::codeRegionCount();

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &go, &hits] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      char name[32];
      std::snprintf(name, sizeof name, "hammer_%d", t);
      for (int i = 0;
           i < kIters ||
           (i < kMaxIters && hits.load(std::memory_order_relaxed) == 0);
           ++i) {
        prof::registerCodeRegion(arena[t], sizeof arena[t], name,
                                 static_cast<uint64_t>(t));
        std::this_thread::yield();
        prof::unregisterCodeRegion(arena[t], sizeof arena[t]);
      }
    });
  }
  pool.emplace_back([&go, &stop, &hits, &wrong] {
    char expected[32];
    go.store(true, std::memory_order_release);
    for (uint64_t n = 0; !stop.load(std::memory_order_acquire); ++n) {
      const int t = static_cast<int>(n % kThreads);
      const auto pc = reinterpret_cast<uint64_t>(&arena[t][8 + n % 48]);
      prof::CodeRegion region;
      if (!prof::lookupCodeRegion(pc, &region)) continue;
      hits.fetch_add(1, std::memory_order_relaxed);
      std::snprintf(expected, sizeof expected, "hammer_%d", t);
      if (pc < region.base || pc >= region.base + region.size ||
          region.fingerprint != static_cast<uint64_t>(t) ||
          std::string(region.name) != expected)
        wrong.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int t = 0; t < kThreads; ++t) pool[static_cast<size_t>(t)].join();
  stop.store(true, std::memory_order_release);
  pool.back().join();

  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(prof::codeRegionCount(), before);
  prof::CodeRegion region;
  for (int t = 0; t < kThreads; ++t)
    EXPECT_FALSE(prof::lookupCodeRegion(
        reinterpret_cast<uint64_t>(&arena[t][8]), &region));
}

}  // namespace
}  // namespace brew
