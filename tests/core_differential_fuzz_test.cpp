// Whole-pipeline differential fuzzing: random straight-line-with-branches
// programs are rewritten under random specialization configs, and the
// rewritten function must agree with the original on every input (with
// baked values substituted for the known parameters). This exercises the
// decoder, tracer (elision, materialization, folding, branch capture),
// passes, emitter and encoder together.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/rewriter.hpp"
#include "core/spec_manager.hpp"
#include "isa/printer.hpp"
#include "jit/assembler.hpp"
#include "support/prng.hpp"

namespace brew {
namespace {

using isa::Cond;
using isa::Instruction;
using isa::makeInstr;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

// Generates a random two-argument integer function:
//   working registers seeded from the two args, a body of random ALU ops
//   sprinkled with compare+cmov/setcc and an optional forward branch,
//   everything mixed into rax at the end.
ExecMemory buildRandomFunction(Prng& rng) {
  jit::Assembler as;
  const Reg pool[] = {Reg::rax, Reg::rcx, Reg::rdx, Reg::rsi, Reg::rdi,
                      Reg::r8, Reg::r9, Reg::r10};

  as.movRegReg(Reg::rax, Reg::rdi);
  as.movRegReg(Reg::rcx, Reg::rsi);
  as.movRegReg(Reg::rdx, Reg::rdi);
  as.movRegReg(Reg::r8, Reg::rsi);
  as.movRegReg(Reg::r9, Reg::rdi);
  as.movRegReg(Reg::r10, Reg::rsi);

  jit::Label skip = as.newLabel();
  bool branchOpen = false;

  const int len = 6 + static_cast<int>(rng.below(20));
  for (int i = 0; i < len; ++i) {
    const Reg dst = pool[rng.below(std::size(pool))];
    const Reg src = pool[rng.below(std::size(pool))];
    const uint8_t w = rng.chance(0.5) ? 8 : 4;
    switch (rng.below(10)) {
      case 0: as.aluRegReg(Mnemonic::Add, dst, src, w); break;
      case 1: as.aluRegReg(Mnemonic::Sub, dst, src, w); break;
      case 2: as.aluRegReg(Mnemonic::Xor, dst, src, w); break;
      case 3: as.aluRegReg(Mnemonic::Or, dst, src, w); break;
      case 4:
        as.aluRegImm(Mnemonic::And, dst,
                     static_cast<int64_t>(rng.next() & 0xFFFFF), w);
        break;
      case 5:
        as.emit(makeInstr(Mnemonic::Imul, w, Operand::makeReg(dst),
                          Operand::makeReg(src)));
        break;
      case 6:
        as.emit(makeInstr(Mnemonic::Shl, w, Operand::makeReg(dst),
                          Operand::makeImm(rng.below(w * 8))));
        break;
      case 7: {  // compare + cmov
        as.aluRegReg(Mnemonic::Cmp, dst, src, w);
        Instruction cmov = makeInstr(Mnemonic::Cmovcc, 8,
                                     Operand::makeReg(dst),
                                     Operand::makeReg(src));
        cmov.cond = static_cast<Cond>(rng.below(16));
        as.emit(cmov);
        break;
      }
      case 8: {  // compare + setcc into a full register
        as.aluRegReg(Mnemonic::Cmp, dst, src, w);
        as.movRegImm(dst, 0, 4);  // zero so the byte write is total
        Instruction setcc = makeInstr(Mnemonic::Setcc, 1,
                                      Operand::makeReg(dst));
        setcc.cond = static_cast<Cond>(rng.below(16));
        as.emit(setcc);
        break;
      }
      default: {  // one forward branch region per function
        if (!branchOpen && rng.chance(0.5)) {
          as.aluRegReg(Mnemonic::Cmp, dst, src, 8);
          as.jcc(static_cast<Cond>(rng.below(16)), skip);
          branchOpen = true;
        } else {
          as.emit(makeInstr(Mnemonic::Neg, w, Operand::makeReg(dst)));
        }
        break;
      }
    }
  }
  if (branchOpen) as.bind(skip);
  for (Reg r : {Reg::rcx, Reg::rdx, Reg::r8, Reg::r9, Reg::r10})
    as.aluRegReg(Mnemonic::Add, Reg::rax, r);
  as.ret();

  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok()) << mem.error().message();
  return std::move(*mem);
}

using fn_t = uint64_t (*)(uint64_t, uint64_t);

class DifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialFuzz, RewrittenAgreesWithOriginal) {
  Prng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    ExecMemory code = buildRandomFunction(rng);
    auto original = code.entry<fn_t>();

    // Random specialization config: each parameter independently known.
    const bool know0 = rng.chance(0.4);
    const bool know1 = rng.chance(0.4);
    const uint64_t baked0 = rng.next() & 0xFFFFFFFF;
    const uint64_t baked1 = rng.next() & 0xFFFFFFFF;
    Config config;
    if (know0) config.setParamKnown(0);
    if (know1) config.setParamKnown(1);
    if (rng.chance(0.3))
      config.setFunctionOptions(code.data(),
                                FunctionOptions{.forceUnknownResults = true});
    config.setReturnKind(ReturnKind::Int);

    Rewriter rewriter{config};
    auto rewritten = rewriter.rewrite(code.data(), baked0, baked1);
    ASSERT_TRUE(rewritten.ok())
        << "seed " << GetParam() << " trial " << trial << ": "
        << rewritten.error().message() << "\n"
        << isa::disassemble({code.data(), code.size()},
                            reinterpret_cast<uint64_t>(code.data()));
    auto specialized = rewritten->as<fn_t>();

    for (int call = 0; call < 10; ++call) {
      const uint64_t a = know0 ? baked0 : rng.next();
      const uint64_t b = know1 ? baked1 : rng.next();
      const uint64_t want = original(a, b);
      const uint64_t got = specialized(a, b);
      ASSERT_EQ(got, want)
          << "seed " << GetParam() << " trial " << trial << " call " << call
          << " know=(" << know0 << "," << know1 << ") a=" << a << " b=" << b
          << "\noriginal:\n"
          << isa::disassemble({code.data(), code.size()},
                              reinterpret_cast<uint64_t>(code.data()))
          << "\nrewritten:\n"
          << rewritten->disassembly();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005, 6006, 7007,
                                           8008, 9009, 10010, 11011, 12012,
                                           13013, 14014, 15015, 16016));

// SSE variant: random scalar-double dataflow.
class SseDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SseDifferentialFuzz, RewrittenAgreesWithOriginal) {
  Prng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    jit::Assembler as;
    const Reg pool[] = {Reg::xmm0, Reg::xmm1, Reg::xmm2, Reg::xmm3,
                        Reg::xmm4};
    // xmm0, xmm1 are the arguments; seed the others.
    as.emit(makeInstr(Mnemonic::Movapd, 16, Operand::makeReg(Reg::xmm2),
                      Operand::makeReg(Reg::xmm0)));
    as.emit(makeInstr(Mnemonic::Movapd, 16, Operand::makeReg(Reg::xmm3),
                      Operand::makeReg(Reg::xmm1)));
    as.emit(makeInstr(Mnemonic::Movapd, 16, Operand::makeReg(Reg::xmm4),
                      Operand::makeReg(Reg::xmm0)));
    const int len = 4 + static_cast<int>(rng.below(14));
    for (int i = 0; i < len; ++i) {
      const Reg dst = pool[rng.below(std::size(pool))];
      const Reg src = pool[rng.below(std::size(pool))];
      switch (rng.below(5)) {
        case 0:
          as.emit(makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(dst),
                            Operand::makeReg(src)));
          break;
        case 1:
          as.emit(makeInstr(Mnemonic::Subsd, 8, Operand::makeReg(dst),
                            Operand::makeReg(src)));
          break;
        case 2:
          as.emit(makeInstr(Mnemonic::Mulsd, 8, Operand::makeReg(dst),
                            Operand::makeReg(src)));
          break;
        case 3:
          as.emit(makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(dst),
                            Operand::makeReg(src)));
          break;
        default:
          as.emit(makeInstr(Mnemonic::Unpcklpd, 16, Operand::makeReg(dst),
                            Operand::makeReg(src)));
          break;
      }
    }
    // Collapse to xmm0.
    for (Reg r : {Reg::xmm1, Reg::xmm2, Reg::xmm3, Reg::xmm4})
      as.emit(makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(Reg::xmm0),
                        Operand::makeReg(r)));
    as.ret();
    auto mem = as.finalizeExecutable();
    ASSERT_TRUE(mem.ok());
    using g_t = double (*)(double, double);
    auto original = mem->entry<g_t>();

    const bool know0 = rng.chance(0.4);
    const double baked0 = rng.uniform() * 8 - 4;
    Config config;
    if (know0) config.setParamKnown(0, /*isFloat=*/true);
    config.setParamFloat(1);
    config.setReturnKind(ReturnKind::Float);
    Rewriter rewriter{config};
    const ArgValue args[] = {ArgValue::fromDouble(baked0),
                             ArgValue::fromDouble(0.0)};
    auto rewritten = rewriter.rewrite(mem->data(), args);
    ASSERT_TRUE(rewritten.ok())
        << "seed " << GetParam() << " trial " << trial << ": "
        << rewritten.error().message();
    auto specialized = rewritten->as<g_t>();
    for (int call = 0; call < 8; ++call) {
      const double a = know0 ? baked0 : rng.uniform() * 8 - 4;
      const double b = rng.uniform() * 8 - 4;
      ASSERT_EQ(original(a, b), specialized(a, b))
          << "seed " << GetParam() << " trial " << trial << " a=" << a
          << " b=" << b << "\nrewritten:\n"
          << rewritten->disassembly();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SseDifferentialFuzz,
                         ::testing::Values(21, 42, 63, 84, 105, 126, 147, 168, 189,
                                           210, 231, 252));

// Memory variant: random loads/stores through a scratch buffer (rdi) and
// loads from a constant table (rsi, declared KnownPtr) — stresses address
// folding, pool folding, shadow-independent memory capture.
class MemDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemDifferentialFuzz, RewrittenAgreesWithOriginal) {
  Prng rng(GetParam());
  alignas(16) static int64_t table[16];
  for (int i = 0; i < 16; ++i)
    table[i] = static_cast<int64_t>(rng.next() & 0xFFFF);

  for (int trial = 0; trial < 25; ++trial) {
    jit::Assembler as;
    const Reg pool[] = {Reg::rax, Reg::rcx, Reg::rdx, Reg::r8, Reg::r9};
    as.movRegImm(Reg::rax, 1);
    as.movRegImm(Reg::rcx, 2);
    as.movRegImm(Reg::rdx, 3);
    as.movRegImm(Reg::r8, 4);
    as.movRegImm(Reg::r9, 5);
    const int len = 6 + static_cast<int>(rng.below(16));
    for (int i = 0; i < len; ++i) {
      const Reg reg = pool[rng.below(std::size(pool))];
      const int32_t slot = static_cast<int32_t>(rng.below(8)) * 8;
      switch (rng.below(5)) {
        case 0:  // load from scratch
          as.movRegMem(reg, MemOperand{.base = Reg::rdi, .disp = slot}, 8);
          break;
        case 1:  // store to scratch
          as.movMemReg(MemOperand{.base = Reg::rdi, .disp = slot}, reg, 8);
          break;
        case 2:  // load from the constant table
          as.movRegMem(reg, MemOperand{.base = Reg::rsi, .disp = slot}, 8);
          break;
        case 3:  // rmw on scratch
          as.emit(makeInstr(Mnemonic::Add, 8,
                            Operand::makeMem(MemOperand{.base = Reg::rdi,
                                                        .disp = slot}),
                            Operand::makeReg(reg)));
          break;
        default:
          as.aluRegReg(Mnemonic::Add, reg,
                       pool[rng.below(std::size(pool))], 8);
          break;
      }
    }
    for (Reg r : {Reg::rcx, Reg::rdx, Reg::r8, Reg::r9})
      as.aluRegReg(Mnemonic::Add, Reg::rax, r);
    as.ret();
    auto mem = as.finalizeExecutable();
    ASSERT_TRUE(mem.ok());
    using m_t = uint64_t (*)(int64_t*, const int64_t*);
    auto original = mem->entry<m_t>();

    Config config;
    config.setParamKnownPtr(1, sizeof table);  // the table is constant
    config.setReturnKind(ReturnKind::Int);
    Rewriter rewriter{config};
    auto rewritten = rewriter.rewrite(mem->data(), nullptr, table);
    ASSERT_TRUE(rewritten.ok())
        << "seed " << GetParam() << " trial " << trial << ": "
        << rewritten.error().message();
    auto specialized = rewritten->as<m_t>();

    for (int call = 0; call < 6; ++call) {
      alignas(16) int64_t scratch1[8], scratch2[8];
      for (int i = 0; i < 8; ++i)
        scratch1[i] = scratch2[i] = static_cast<int64_t>(rng.next() & 0xFFFF);
      const uint64_t want = original(scratch1, table);
      const uint64_t got = specialized(scratch2, table);
      ASSERT_EQ(got, want) << "seed " << GetParam() << " trial " << trial;
      for (int i = 0; i < 8; ++i)
        ASSERT_EQ(scratch1[i], scratch2[i])
            << "memory side effects differ at slot " << i << " (seed "
            << GetParam() << " trial " << trial << ")\n"
            << rewritten->disassembly();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemDifferentialFuzz,
                         ::testing::Values(7, 14, 28, 56, 112, 224, 448, 896));

// The emitted unit: code, int3 padding and literal pool.
std::vector<uint8_t> emittedBytes(const RewrittenFunction& rewritten) {
  const auto* begin = static_cast<const uint8_t*>(rewritten.entry());
  const ir::EmitStats& stats = rewritten.emitStats();
  return {begin, begin + stats.codeBytes + stats.poolBytes};
}

// Concurrency variant (`concurrency` ctest label, TSan via
// scripts/check_telemetry.sh): several threads fuzz the SAME seeds through
// one sharded SpecManager. Specialization must be deterministic — every
// thread gets the same emitted bytes (code + literal pool) as a
// single-shard reference rewrite, no matter which thread traced first or
// which shard held the entry. The unit is position independent apart from
// absolute targets into the same originals, so its bytes compare exactly.
// Per-key single-flight must hold across shards (one miss per subject per
// round, all threads sharing one entry pointer).
TEST(ConcurrentDifferentialFuzz, SameSeedsSameCapturedBytesAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 2;
  const uint64_t seeds[] = {31, 62, 93, 124, 155, 186};
  constexpr size_t kSubjects = std::size(seeds);

  struct Subject {
    ExecMemory code;
    Config config;
    uint64_t baked0 = 0;
    uint64_t baked1 = 0;
    bool know0 = false;
    bool know1 = false;
    std::vector<uint8_t> refBytes;
  };

  // Reference captures from a single-shard (pre-sharding-behavior) manager.
  std::vector<Subject> subjects;
  SpecManager refManager{
      SpecManager::Options{.workers = 1, .cacheShards = 1}};
  for (uint64_t seed : seeds) {
    Prng rng(seed);
    Subject s;
    s.code = buildRandomFunction(rng);
    s.know0 = rng.chance(0.5);
    s.know1 = rng.chance(0.5);
    s.baked0 = rng.next() & 0xFFFFFFFF;
    s.baked1 = rng.next() & 0xFFFFFFFF;
    if (s.know0) s.config.setParamKnown(0);
    if (s.know1) s.config.setParamKnown(1);
    s.config.setReturnKind(ReturnKind::Int);
    Rewriter ref{s.config, refManager};
    auto rewritten = ref.rewrite(s.code.data(), s.baked0, s.baked1);
    ASSERT_TRUE(rewritten.ok())
        << "seed " << seed << ": " << rewritten.error().message();
    s.refBytes = emittedBytes(*rewritten);
    subjects.push_back(std::move(s));
  }

  SpecManager manager{SpecManager::Options{.workers = 2, .cacheShards = 16}};
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<void*>> entries(
        kThreads, std::vector<void*>(kSubjects, nullptr));
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t, round] {
        Prng rng(1000 + static_cast<uint64_t>(round) * 100 +
                 static_cast<uint64_t>(t));
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        for (size_t j = 0; j < kSubjects; ++j) {
          // Distinct visiting orders so threads collide on different keys.
          const size_t idx = (j + static_cast<size_t>(t)) % kSubjects;
          Subject& s = subjects[idx];
          Rewriter rewriter{s.config, manager};
          auto rewritten =
              rewriter.rewrite(s.code.data(), s.baked0, s.baked1);
          ASSERT_TRUE(rewritten.ok())
              << "seed " << seeds[idx] << " thread " << t << " round "
              << round << ": " << rewritten.error().message();
          entries[static_cast<size_t>(t)][idx] = rewritten->entry();
          EXPECT_EQ(emittedBytes(*rewritten), s.refBytes)
              << "seed " << seeds[idx] << " thread " << t << " round "
              << round << ": emitted code depends on thread/shard";
          auto original = s.code.entry<fn_t>();
          auto specialized = rewritten->as<fn_t>();
          for (int call = 0; call < 4; ++call) {
            const uint64_t a = s.know0 ? s.baked0 : rng.next();
            const uint64_t b = s.know1 ? s.baked1 : rng.next();
            ASSERT_EQ(specialized(a, b), original(a, b))
                << "seed " << seeds[idx] << " thread " << t << " round "
                << round << " a=" << a << " b=" << b;
          }
        }
      });
    }
    while (ready.load() != kThreads) std::this_thread::yield();
    go.store(true);
    for (std::thread& thread : threads) thread.join();

    // Single-flight across shards: one code object per subject per round.
    for (int t = 1; t < kThreads; ++t)
      for (size_t idx = 0; idx < kSubjects; ++idx)
        EXPECT_EQ(entries[0][idx], entries[static_cast<size_t>(t)][idx])
            << "subject " << idx << " round " << round;

    // Force the next round to re-trace everything from scratch.
    for (Subject& s : subjects)
      manager.cache().invalidateTarget(s.code.data(), s.code.size());
  }

  const CacheStats stats = manager.cache().stats();
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(kRounds) * kSubjects);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kRounds) * kThreads * kSubjects);
  EXPECT_EQ(stats.invalidations, static_cast<uint64_t>(kRounds) * kSubjects);
}

}  // namespace
}  // namespace brew
