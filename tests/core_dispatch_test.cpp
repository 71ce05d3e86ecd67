// Profile-guided multi-version dispatch (core/dispatch.hpp): predicate-
// keyed variant lookup, inline-cache promotion, decay/hysteresis under a
// shifting key distribution, epoch bumps, the paper's §III-D "check for the
// parameter being 42, else run the original" through seeded variants, and
// a multi-thread hammer (the binary carries the `concurrency` label so the
// TSan sweep runs it).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "core/dispatch.hpp"
#include "jit/assembler.hpp"
#include "support/flight_recorder.hpp"
#include "support/telemetry.hpp"

namespace brew {
namespace {

using isa::Mnemonic;
using isa::Reg;

// f(mode, x) = mode * k + x, built deterministically. With `calls` set,
// every execution (original or variant) first increments *calls.
ExecMemory buildKernel(int64_t k, uint64_t* calls = nullptr) {
  jit::Assembler as;
  if (calls != nullptr) {
    as.movRegImm(Reg::r11, static_cast<int64_t>(
                               reinterpret_cast<uintptr_t>(calls)));
    as.emit(isa::makeInstr(Mnemonic::Inc, 8,
                           isa::Operand::makeMem(
                               isa::MemOperand{.base = Reg::r11})));
  }
  as.emit(isa::makeInstr(Mnemonic::Imul, 8, isa::Operand::makeReg(Reg::rax),
                         isa::Operand::makeReg(Reg::rdi),
                         isa::Operand::makeImm(k)));
  as.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rsi);
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  return std::move(*mem);
}

using kernel_t = int64_t (*)(int64_t, int64_t);

std::vector<ArgValue> protoArgs() {
  return {ArgValue::fromInt(0), ArgValue::fromInt(0)};
}

DispatchOptions fastOptions() {
  DispatchOptions opt;
  opt.maxVariants = 2;
  opt.inlineWays = 2;
  opt.sampleCalls = 8;
  opt.promoteThreshold = 4;
  opt.decayInterval = 32;
  opt.demoteMargin = 2;
  return opt;
}

TEST(Dispatch, PredicateKeyedLookupStaysCorrect) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      fastOptions());
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  // Two hot keys: every call computes correctly whether it runs the
  // original (sampling), the miss path, or a specialized variant.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(fn(3, i), 3000 + i) << "call " << i;
    ASSERT_EQ(fn(8, i), 8000 + i) << "call " << i;
  }
  EXPECT_EQ(d.variantCount(), 2u);
  for (const VariantInfo& v : d.variants()) {
    EXPECT_TRUE(v.key == 3u || v.key == 8u);
    EXPECT_NE(v.entry, nullptr);
    EXPECT_GT(v.codeBytes, 0u);
    EXPECT_EQ(v.epoch, 0u);
  }
  const DispatchStats s = d.stats();
  EXPECT_EQ(s.promotions, 2u);
  EXPECT_EQ(s.variantsLive, 2u);
  EXPECT_GT(s.misses, 0u);  // the warm-up misses
}

TEST(Dispatch, MonomorphicStubFastPathBypassesResolver) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      fastOptions());
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  // Warm one key until it is promoted and inline-cached.
  for (int i = 0; i < 64; ++i) ASSERT_EQ(fn(7, i), 7000 + i);
  ASSERT_EQ(d.variantCount(), 1u);
  ASSERT_TRUE(d.variants()[0].inlineCached);

  // The monomorphic fast path never reaches resolve(): resolver counters
  // freeze while the stub's per-way hit counter keeps advancing.
  const DispatchStats before = d.stats();
  const uint64_t hitsBefore = d.variants()[0].hits;
  for (int i = 0; i < 50; ++i) ASSERT_EQ(fn(7, i), 7000 + i);
  const DispatchStats after = d.stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.tableHits, before.tableHits);
  EXPECT_EQ(d.variants()[0].hits, hitsBefore + 50);
}

TEST(Dispatch, HysteresisAndDecayUnderShiftingDistribution) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      fastOptions());  // maxVariants = 2
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  // Phase 1: keys 1 and 2 are hot and fill the table.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(fn(1, i), 1000 + i);
    ASSERT_EQ(fn(2, i), 2000 + i);
  }
  ASSERT_EQ(d.variantCount(), 2u);

  // Phase 2: the distribution shifts to keys 5 and 6. Decay erodes the old
  // variants' scores; the challengers take over once they clearly win —
  // and the table never exceeds its budget on the way.
  for (int i = 0; i < 400; ++i) {
    ASSERT_EQ(fn(5, i), 5000 + i);
    ASSERT_EQ(fn(6, i), 6000 + i);
    ASSERT_LE(d.variantCount(), 2u);
  }
  std::set<uint64_t> keys;
  for (const VariantInfo& v : d.variants()) keys.insert(v.key);
  EXPECT_EQ(keys, (std::set<uint64_t>{5, 6}));

  const DispatchStats shifted = d.stats();
  EXPECT_GE(shifted.demotions, 2u);  // the phase-1 variants were retired
  EXPECT_GT(shifted.decayRounds, 0u);

  // Steady state: the new hot set does not thrash.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(fn(5, i), 5000 + i);
    ASSERT_EQ(fn(6, i), 6000 + i);
  }
  EXPECT_EQ(d.stats().demotions, shifted.demotions);
}

TEST(Dispatch, EpochBumpRetiresAndRespecializes) {
  SpecManager manager{SpecManager::Options{.workers = 2}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      fastOptions());
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(fn(1, i), 1000 + i);
    ASSERT_EQ(fn(2, i), 2000 + i);
  }
  ASSERT_EQ(d.variantCount(), 2u);

  // A predicate change retires every variant immediately...
  d.bumpEpoch();
  EXPECT_EQ(d.variantCount(), 0u);
  EXPECT_EQ(d.epoch(), 1u);
  EXPECT_EQ(d.stats().epochBumps, 1u);

  // ...while calls stay correct, and the previously hot keys come back as
  // the background batch completes (installed by the miss-path poller).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (d.variantCount() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_EQ(fn(1, 5), 1005);
    ASSERT_EQ(fn(2, 5), 2005);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(d.variantCount(), 2u);
  for (const VariantInfo& v : d.variants()) EXPECT_EQ(v.epoch, 1u);
}

// Background specialization: after an epoch bump the seeded key runs the
// original until the worker pool's batch builds its variant, which the
// miss path then installs. The build counts as one async install.
TEST(Dispatch, AsyncSpecializationInstallsEventually) {
  SpecManager manager{SpecManager::Options{.workers = 2}};
  ExecMemory kernel = buildKernel(1000);
  DispatchOptions opt = fastOptions();
  opt.promoteThreshold = 1u << 30;  // the miss path never promotes on its own
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());
  const uint64_t seeds[] = {9};
  d.seedHot(seeds, 500);
  ASSERT_EQ(d.variantCount(), 1u);
  EXPECT_EQ(manager.cache().stats().asyncInstalls, 0u);

  d.bumpEpoch();
  auto fn = d.as<kernel_t>();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int i = 0;
  while (d.variantCount() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_EQ(fn(9, i), 9000 + i);  // original until the batch installs
    ++i;
  }
  ASSERT_EQ(d.variantCount(), 1u);
  EXPECT_EQ(d.variants()[0].key, 9u);
  EXPECT_EQ(d.variants()[0].epoch, 1u);
  EXPECT_EQ(d.stats().promotions, 2u);  // the seed, then the batch
  EXPECT_EQ(d.stats().pendingAsync, 0u);
  EXPECT_EQ(manager.cache().stats().asyncInstalls, 1u);
  ASSERT_EQ(fn(9, 1), 9001);
}

// rax = rdi added `n` times: a long straight-line kernel whose rewrite
// keeps a worker busy for a while.
ExecMemory buildLongKernel(int n) {
  jit::Assembler as;
  as.movRegImm(Reg::rax, 0);
  for (int i = 0; i < n; ++i) as.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rdi);
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  return std::move(*mem);
}

// Misses on a key whose epoch batch is still building must not promote it
// synchronously as well: the batch's install would retire that fresh
// variant again. Each key is promoted once per epoch, and the only
// demotions are the epoch's retirements.
TEST(Dispatch, PendingEpochBatchIsNotPromotedTwice) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      fastOptions());
  ASSERT_TRUE(d.valid());
  const uint64_t seeds[] = {1, 2};
  d.seedHot(seeds, 500);
  ASSERT_EQ(d.variantCount(), 2u);
  const DispatchStats seeded = d.stats();

  // The single worker rewrites a long kernel first, so the epoch batch
  // queues behind it and the misses below run before it lands.
  ExecMemory slow = buildLongKernel(100000);
  std::vector<RewriteItem> items;
  items.push_back({slow.data(), {ArgValue::fromInt(1)}});
  auto blocker = manager.rewriteBatch(Config{}, PassOptions{},
                                      std::move(items));
  d.bumpEpoch();
  auto fn = d.as<kernel_t>();
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(fn(1, i), 1000 + i);
    ASSERT_EQ(fn(2, i), 2000 + i);
  }
  // Only a landed batch item installs a variant, however the race went.
  const DispatchStats mid = d.stats();
  EXPECT_LE(mid.variantsLive + mid.pendingAsync, 2u)
      << mid.variantsLive << " live while " << mid.pendingAsync
      << " still pending";

  blocker->wait();
  EXPECT_TRUE(blocker->ok(0)) << blocker->error(0).message();
  // resolve() is the stub's miss path; calling it directly polls the
  // batch even while both keys sit in inline ways.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (d.stats().pendingAsync != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    d.resolve(1);
    d.resolve(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fn(1, 5), 1005);
  ASSERT_EQ(fn(2, 5), 2005);
  const DispatchStats after = d.stats();
  EXPECT_EQ(after.pendingAsync, 0u);
  EXPECT_EQ(after.variantsLive, 2u);
  EXPECT_EQ(after.demotions, seeded.demotions + 2);  // the epoch's retirements
  EXPECT_EQ(after.promotions, seeded.promotions + 2);  // one per key
}

uint64_t variantHits(const VariantDispatcher& d, uint64_t key) {
  for (const VariantInfo& v : d.variants())
    if (v.key == key) return v.hits;
  ADD_FAILURE() << "no live variant for key " << key;
  return 0;
}

TEST(Dispatch, SeedHotStartsInSteadyState) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{},
                      fastOptions());
  ASSERT_TRUE(d.valid());

  const uint64_t hot[] = {4, 11};
  d.seedHot(hot, 500);
  EXPECT_EQ(d.variantCount(), 2u);
  EXPECT_EQ(d.stats().promotions, 2u);

  auto fn = d.as<kernel_t>();
  EXPECT_EQ(fn(4, 3), 4003);
  EXPECT_EQ(fn(11, 3), 11003);
  EXPECT_EQ(fn(2, 3), 2003);  // cold key: original, still correct
}

// The paper's static §III-D case ("check for the parameter being 42, else
// run the original"): a dispatcher seeded with fixed keys. Calls each key
// below promoteThreshold times and checks that every call ran the original
// (one kernel execution, one resolver miss, no variant hit).
void expectOriginalBelowThreshold(VariantDispatcher& d, const uint64_t* calls,
                                  std::span<const uint64_t> coldKeys,
                                  uint64_t promoteThreshold) {
  auto fn = d.as<kernel_t>();
  for (const uint64_t key : coldKeys) {
    for (uint64_t i = 1; i < promoteThreshold; ++i) {
      const uint64_t callsBefore = *calls;
      const uint64_t missesBefore = d.stats().misses;
      const uint64_t hitsBefore = d.stats().variantHits;
      ASSERT_EQ(static_cast<uint64_t>(fn(static_cast<int64_t>(key), 3)),
                key * 1000 + 3)
          << "key " << key << " call " << i;
      EXPECT_EQ(*calls, callsBefore + 1);
      EXPECT_EQ(d.stats().misses, missesBefore + 1);
      EXPECT_EQ(d.stats().variantHits, hitsBefore);
    }
  }
}

TEST(Guard, DispatchesToVariants) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  DispatchOptions opt = fastOptions();
  opt.maxVariants = 3;  // one seed more than inline ways: 7 is table-only
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());

  const uint64_t seeds[] = {1, 2, 7};
  d.seedHot(seeds, 500);
  ASSERT_EQ(d.variantCount(), 3u);
  for (const VariantInfo& v : d.variants())
    EXPECT_EQ(v.inlineCached, v.key != 7) << "key " << v.key;

  auto fn = d.as<kernel_t>();
  // Seeded values dispatch to their specialized variants...
  for (const uint64_t key : seeds) {
    const uint64_t hits = variantHits(d, key);
    EXPECT_EQ(fn(static_cast<int64_t>(key), 5),
              static_cast<int64_t>(key) * 1000 + 5);
    EXPECT_EQ(variantHits(d, key), hits + 1) << "key " << key;
  }
  // ...other values reach the original code.
  const uint64_t hitsBefore = d.stats().variantHits;
  EXPECT_EQ(fn(3, 5), 3005);
  EXPECT_EQ(fn(-4, 5), -3995);
  EXPECT_EQ(d.stats().variantHits, hitsBefore);
}

TEST(Guard, FallbackToOriginalObserved) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  uint64_t calls = 0;
  ExecMemory kernel = buildKernel(1000, &calls);
  DispatchOptions opt = fastOptions();
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());

  const uint64_t seeds[] = {1};
  d.seedHot(seeds, 500);
  ASSERT_EQ(d.variantCount(), 1u);

  // Unseeded keys go through the original: the call counter bumps once
  // per call.
  const uint64_t coldKeys[] = {2, 9};
  expectOriginalBelowThreshold(d, &calls, coldKeys, opt.promoteThreshold);
  EXPECT_EQ(d.variantCount(), 1u);
}

TEST(Guard, LargeGuardValues) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  uint64_t calls = 0;
  ExecMemory kernel = buildKernel(1000, &calls);
  DispatchOptions opt = fastOptions();
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());

  // Does not fit a 32-bit immediate: the stub must compare all 64 bits.
  constexpr uint64_t kLarge = 0x123456789ABCDEFull;
  const uint64_t seeds[] = {kLarge};
  d.seedHot(seeds, 500);
  ASSERT_EQ(d.variantCount(), 1u);
  EXPECT_TRUE(d.variants()[0].inlineCached);

  auto fn = d.as<kernel_t>();
  const uint64_t hits = variantHits(d, kLarge);
  EXPECT_EQ(static_cast<uint64_t>(fn(static_cast<int64_t>(kLarge), 3)),
            kLarge * 1000 + 3);
  EXPECT_EQ(variantHits(d, kLarge), hits + 1);

  // Keys that differ from it, including one sharing its low 32 bits, run
  // the original.
  const uint64_t coldKeys[] = {42, kLarge + 1, kLarge & 0xffffffffu};
  expectOriginalBelowThreshold(d, &calls, coldKeys, opt.promoteThreshold);
  EXPECT_EQ(d.variantCount(), 1u);
}

TEST(Guard, SecondIntegerParameter) {
  // Keying on the second integer parameter specializes that parameter.
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  VariantDispatcher d(manager, kernel.data(), 1, protoArgs(), Config{},
                      fastOptions());
  ASSERT_TRUE(d.valid());
  const uint64_t seeds[] = {10};
  d.seedHot(seeds, 500);
  ASSERT_EQ(d.variantCount(), 1u);

  auto fn = d.as<kernel_t>();
  const uint64_t hits = variantHits(d, 10);
  EXPECT_EQ(fn(50, 10), 50010);  // variant
  EXPECT_EQ(variantHits(d, 10), hits + 1);
  EXPECT_EQ(fn(50, 20), 50020);  // original
  EXPECT_EQ(variantHits(d, 10), hits + 1);
  // The variant has x = 10 baked in, whatever is passed.
  auto variant = reinterpret_cast<kernel_t>(
      const_cast<void*>(d.variants()[0].entry));
  EXPECT_EQ(variant(50, 20), 50010);
}

TEST(Guard, InvalidParameterRejected) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  // A float-class key parameter cannot be guarded by an integer compare:
  // no stub is built and every call runs the original.
  VariantDispatcher d(manager, kernel.data(), 0,
                      {ArgValue::fromDouble(1.0)}, Config{}, fastOptions());
  EXPECT_FALSE(d.valid());
  EXPECT_EQ(d.entry(), kernel.data());
  EXPECT_EQ(d.as<kernel_t>()(2, 5), 2005);
  EXPECT_EQ(d.variantCount(), 0u);
}

// A seed key whose rewrite fails is not installed; its calls run the
// original. The subject reaches an undecodable rdtsc only when mode == 7.
TEST(Dispatch, FailedSeedFallsBackToOriginal) {
  jit::Assembler as;
  jit::Label skip = as.newLabel();
  as.aluRegImm(Mnemonic::Cmp, Reg::rdi, 7);
  as.jcc(isa::Cond::NE, skip);
  as.emitBytes(std::vector<uint8_t>{0x0f, 0x31});  // rdtsc
  as.bind(skip);
  as.emit(isa::makeInstr(Mnemonic::Imul, 8, isa::Operand::makeReg(Reg::rax),
                         isa::Operand::makeReg(Reg::rdi),
                         isa::Operand::makeImm(1000)));
  as.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rsi);
  as.ret();
  auto kernel = as.finalizeExecutable();
  ASSERT_TRUE(kernel.ok()) << kernel.error().message();

  SpecManager manager{SpecManager::Options{.workers = 1}};
  VariantDispatcher d(manager, kernel->data(), 0, protoArgs(), Config{},
                      fastOptions());
  ASSERT_TRUE(d.valid());
  telemetry::Counter& failures =
      telemetry::counter(telemetry::CounterId::DispatchVariantFailures);
  const uint64_t failuresBefore = failures.value();
  flight::clearForTest();

  const uint64_t hot[] = {7, 3};
  d.seedHot(hot, 500);
  EXPECT_EQ(failures.value(), failuresBefore + 1);
  ASSERT_EQ(d.variantCount(), 1u);
  EXPECT_EQ(d.variants()[0].key, 3u);

  // The failure is on the flight record: a = subject, b = key.
  flight::Record records[flight::kCapacity];
  const size_t n = flight::snapshot(records, flight::kCapacity);
  size_t fails = 0;
  for (size_t i = 0; i < n; ++i) {
    if (records[i].event != flight::Event::DispatchVariantFail) continue;
    ++fails;
    EXPECT_EQ(records[i].a, reinterpret_cast<uint64_t>(kernel->data()));
    EXPECT_EQ(records[i].b, 7u);
  }
  EXPECT_EQ(fails, 1u);

  auto fn = d.as<kernel_t>();
  EXPECT_EQ(fn(3, 5), 3005);  // variant
  for (int i = 0; i < 16; ++i) ASSERT_EQ(fn(7, i), 7000 + i);  // original
  EXPECT_EQ(d.variantCount(), 1u);
  EXPECT_EQ(failures.value(), failuresBefore + 1);
}

// Profile-guided specialization (§III-D): "statistical information can be
// collected by profiling". The dispatcher samples the keyed parameter on
// its own miss path; the AutoSpec cases check that profile end to end.

// Calls run the original through the sampling gate; once it opens, the
// hot keys are promoted on their next miss and cold keys stay original.
TEST(AutoSpec, SamplesThenSpecializes) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  DispatchOptions opt = fastOptions();
  opt.sampleCalls = 50;
  opt.decayInterval = 1024;
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  // Sampling phase: behavior identical to the original, nothing promoted.
  for (int i = 0; i < 49; ++i) {
    const int64_t mode = (i % 10 < 7) ? 3 : 8;  // 70% mode 3, 30% mode 8
    ASSERT_EQ(fn(mode, i), mode * 1000 + i);
  }
  EXPECT_EQ(d.variantCount(), 0u);
  EXPECT_EQ(d.stats().misses, 49u);

  // The 50th observation opens the gate: the hotter key is promoted on
  // this miss and runs its variant, the other on its next miss.
  ASSERT_EQ(fn(3, 7), 3007);
  ASSERT_EQ(d.variantCount(), 1u);
  EXPECT_EQ(d.variants()[0].key, 3u);
  EXPECT_EQ(fn(8, 11), 8011);
  EXPECT_EQ(d.variantCount(), 2u);

  // Dispatching phase: hot values hit their variants, a cold value still
  // computes correctly through the original.
  EXPECT_EQ(fn(3, 11), 3011);
  EXPECT_EQ(fn(5, 11), 5011);
  std::set<uint64_t> keys;
  for (const VariantInfo& v : d.variants()) keys.insert(v.key);
  EXPECT_EQ(keys, (std::set<uint64_t>{3, 8}));
  EXPECT_EQ(d.stats().promotions, 2u);
}

// Keys whose miss score stays below promoteThreshold are never
// specialized, however long the gate has been open; a key that crosses it
// is.
TEST(AutoSpec, MinShareFiltersColdValues) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  DispatchOptions opt = fastOptions();
  opt.maxVariants = 8;
  opt.sampleCalls = 16;
  opt.promoteThreshold = 30;
  opt.decayInterval = 1 << 20;
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  for (int i = 0; i < 100; ++i) ASSERT_EQ(fn(i % 4, i), (i % 4) * 1000 + i);
  EXPECT_EQ(d.variantCount(), 0u);  // 25 misses each: nothing hot
  EXPECT_EQ(d.stats().promotions, 0u);

  for (int i = 0; i < 30; ++i) ASSERT_EQ(fn(6, i), 6000 + i);
  ASSERT_EQ(d.variantCount(), 1u);
  EXPECT_EQ(d.variants()[0].key, 6u);
  EXPECT_EQ(fn(2, 5), 2005);  // still cold, still the original
  EXPECT_EQ(d.variantCount(), 1u);
}

// A caller that collected its own profile hands it to seedHot: the
// sampling gate (here one that would never open) is skipped, the hot key
// runs its variant through the inline way without reaching the resolver.
TEST(AutoSpec, ManualFinalize) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  DispatchOptions opt = fastOptions();
  opt.sampleCalls = 1000000;
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  std::map<uint64_t, uint64_t> profile;
  for (int i = 0; i < 10; ++i) {
    const int64_t mode = i < 8 ? 42 : 7;
    ++profile[static_cast<uint64_t>(mode)];
    ASSERT_EQ(fn(mode, i), mode * 1000 + i);
  }
  EXPECT_EQ(d.variantCount(), 0u);

  std::vector<uint64_t> hot;
  for (const auto& [key, count] : profile)
    if (count * 2 > 10) hot.push_back(key);  // strict majority only
  ASSERT_EQ(hot, (std::vector<uint64_t>{42}));
  d.seedHot(hot, 10);
  ASSERT_EQ(d.variantCount(), 1u);
  EXPECT_TRUE(d.variants()[0].inlineCached);

  const DispatchStats before = d.stats();
  EXPECT_EQ(fn(42, 1), 42001);
  EXPECT_EQ(fn(42, 2), 42002);
  EXPECT_EQ(d.stats().misses, before.misses);
  EXPECT_EQ(d.stats().tableHits, before.tableHits);
  EXPECT_EQ(variantHits(d, 42), before.variantHits + 2);
  EXPECT_EQ(fn(7, 1), 7001);  // original
}

// g(mode, x) = 2x + mode: the double argument in xmm0 must survive the
// miss path's hook call before promotion (sampling) and after it (a cold
// key), and reach the promoted variant through the inline way.
TEST(AutoSpec, FloatArgumentsSurviveSampling) {
  jit::Assembler as;
  as.emit(isa::makeInstr(Mnemonic::Addsd, 8, isa::Operand::makeReg(Reg::xmm0),
                         isa::Operand::makeReg(Reg::xmm0)));
  as.emit(isa::makeInstr(Mnemonic::Cvtsi2sd, 8,
                         isa::Operand::makeReg(Reg::xmm1),
                         isa::Operand::makeReg(Reg::rdi)));
  as.emit(isa::makeInstr(Mnemonic::Addsd, 8, isa::Operand::makeReg(Reg::xmm0),
                         isa::Operand::makeReg(Reg::xmm1)));
  as.ret();
  auto mem = as.finalizeExecutable();
  ASSERT_TRUE(mem.ok()) << mem.error().message();

  using g_t = double (*)(int64_t, double);
  SpecManager manager{SpecManager::Options{.workers = 1}};
  VariantDispatcher d(manager, mem->data(), 0,
                      {ArgValue::fromInt(0), ArgValue::fromDouble(0.0)},
                      Config{}.setReturnKind(ReturnKind::Float),
                      fastOptions());
  ASSERT_TRUE(d.valid());
  auto fn = d.as<g_t>();
  for (int i = 0; i < 20; ++i) {
    const double x = 1.25 + i;
    ASSERT_DOUBLE_EQ(fn(5, x), x * 2 + 5) << "call " << i;
  }
  ASSERT_EQ(d.variantCount(), 1u);
  EXPECT_TRUE(d.variants()[0].inlineCached);
  const uint64_t misses = d.stats().misses;
  for (int i = 0; i < 3; ++i) {
    const double x = -0.5 - i;
    ASSERT_DOUBLE_EQ(fn(6, x), x * 2 + 6) << "cold call " << i;
  }
  EXPECT_EQ(d.stats().misses, misses + 3);
}

TEST(Dispatch, InvalidKeyParameterFallsBackToOriginal) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory kernel = buildKernel(1000);
  // A float-class key parameter cannot drive the integer-compare stub.
  VariantDispatcher d(manager, kernel.data(), 0,
                      {ArgValue::fromDouble(0.0), ArgValue::fromInt(0)},
                      Config{}, fastOptions());
  EXPECT_FALSE(d.valid());
  EXPECT_EQ(d.entry(), kernel.data());  // entry degrades to the original
  EXPECT_EQ(d.variantCount(), 0u);

  // Same for an out-of-range parameter index.
  VariantDispatcher d2(manager, kernel.data(), 5, protoArgs(), Config{},
                       fastOptions());
  EXPECT_FALSE(d2.valid());
  EXPECT_EQ(d2.entry(), kernel.data());
}

// The registry queries behind the C API: aggregate() backs
// brew_getvariantstats, withDispatcher() backs brew_func_variants.
TEST(DispatchRegistry, FindAggregateAndRankHot) {
  SpecManager manager{SpecManager::Options{.workers = 1}};
  ExecMemory hotKernel = buildKernel(1000);
  ExecMemory coldKernel = buildKernel(3);
  VariantDispatcher hot(manager, hotKernel.data(), 0, protoArgs(), Config{},
                        fastOptions());
  VariantDispatcher cold(manager, coldKernel.data(), 0, protoArgs(), Config{},
                         fastOptions());
  ASSERT_TRUE(hot.valid());
  ASSERT_TRUE(cold.valid());

  auto hotFn = hot.as<kernel_t>();
  auto coldFn = cold.as<kernel_t>();
  for (int i = 0; i < 300; ++i) ASSERT_EQ(hotFn(2, i), 2000 + i);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(coldFn(2, i), 6 + i);

  size_t functions = 0;
  const DispatchStats total = VariantDispatcher::aggregate(&functions);
  EXPECT_EQ(functions, 2u);
  EXPECT_GE(total.variantsLive, 1u);
  EXPECT_GT(total.variantHits + total.tableHits + total.misses, 0u);

  bool saw = false;
  EXPECT_TRUE(VariantDispatcher::withDispatcher(
      hotKernel.data(), [&](VariantDispatcher& d) {
        saw = true;
        EXPECT_EQ(d.subject(), hotKernel.data());
      }));
  EXPECT_TRUE(saw);
  EXPECT_FALSE(VariantDispatcher::withDispatcher(
      &functions, [](VariantDispatcher&) {}));
}

// Multi-thread hammer: concurrent callers across a churning key set while
// another thread bumps the epoch. Every call must stay correct; the TSan
// build (`ctest -L concurrency` in build-tsan/) must stay silent.
TEST(DispatchHammer, ConcurrentMixedKeysWithEpochBumps) {
  SpecManager manager{SpecManager::Options{.workers = 2}};
  ExecMemory kernel = buildKernel(1000);
  DispatchOptions opt;
  opt.maxVariants = 4;
  opt.inlineWays = 4;
  opt.sampleCalls = 16;
  opt.promoteThreshold = 4;
  opt.decayInterval = 64;
  VariantDispatcher d(manager, kernel.data(), 0, protoArgs(), Config{}, opt);
  ASSERT_TRUE(d.valid());
  auto fn = d.as<kernel_t>();

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 3000;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const int64_t mode = (i * 7 + t) % 6;
        if (fn(mode, i) != mode * 1000 + i)
          failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int bump = 0; bump < 3; ++bump) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    d.bumpEpoch();
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_LE(d.variantCount(), 4u);
  const DispatchStats s = d.stats();
  EXPECT_EQ(s.epochBumps, 3u);
  EXPECT_GT(s.tableHits + s.misses, 0u);
}

}  // namespace
}  // namespace brew
