// Unit tests for the optimization passes (§IV) on hand-built captured
// functions, plus end-to-end equivalence checks after each pass, and for
// the tracer's zero-seeded accumulator fold on small assembled kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rewriter.hpp"
#include "core/tracer.hpp"
#include "ir/captured.hpp"
#include "jit/assembler.hpp"

namespace brew {
namespace {

using isa::Cond;
using isa::makeInstr;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

ir::CapturedFunction singleBlock(std::vector<isa::Instruction> instrs) {
  ir::CapturedFunction fn;
  const int id = fn.newBlock(0x1000, 0);
  fn.block(id).instrs.assign(instrs.begin(), instrs.end());
  fn.block(id).term.kind = ir::Terminator::Kind::Ret;
  return fn;
}

PassOptions only(bool peephole, bool deadFlags, bool loads) {
  PassOptions options;
  options.peephole = peephole;
  options.deadFlagWriters = deadFlags;
  options.redundantLoads = loads;
  options.mergeBlocks = false;  // structure-sensitive tests pick passes
  options.slpVectorize = false;
  options.crossIterLoads = false;
  return options;
}

TEST(Peephole, RemovesSameRegisterMoves) {
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::rax),
                Operand::makeReg(Reg::rax)),
      makeInstr(Mnemonic::Movapd, 16, Operand::makeReg(Reg::xmm1),
                Operand::makeReg(Reg::xmm1)),
      makeInstr(Mnemonic::Add, 8, Operand::makeReg(Reg::rax),
                Operand::makeReg(Reg::rbx)),
  });
  runPasses(fn, only(true, false, false));
  EXPECT_EQ(fn.block(0).instrs.size(), 1u);
  EXPECT_EQ(fn.block(0).instrs[0].mnemonic, Mnemonic::Add);
}

TEST(Peephole, Keeps32BitSameRegisterMov) {
  // mov eax, eax zero-extends: NOT a no-op.
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Mov, 4, Operand::makeReg(Reg::rax),
                Operand::makeReg(Reg::rax)),
  });
  runPasses(fn, only(true, false, false));
  EXPECT_EQ(fn.block(0).instrs.size(), 1u);
}

TEST(DeadFlags, RemovesUnconsumedCompare) {
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Cmp, 8, Operand::makeReg(Reg::rax),
                Operand::makeReg(Reg::rbx)),
      makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::rcx),
                Operand::makeImm(1)),
  });
  runPasses(fn, only(false, true, false));
  ASSERT_EQ(fn.block(0).instrs.size(), 1u);
  EXPECT_EQ(fn.block(0).instrs[0].mnemonic, Mnemonic::Mov);
}

TEST(DeadFlags, KeepsCompareFeedingTerminator) {
  ir::CapturedFunction fn;
  const int head = fn.newBlock(0x1000, 0);
  const int a = fn.newBlock(0x1010, 0);
  const int b = fn.newBlock(0x1020, 0);
  fn.block(head).instrs = {makeInstr(Mnemonic::Cmp, 8,
                                     Operand::makeReg(Reg::rax),
                                     Operand::makeReg(Reg::rbx))};
  fn.block(head).term = {ir::Terminator::Kind::CondJmp, Cond::E, a, b};
  fn.block(a).term.kind = ir::Terminator::Kind::Ret;
  fn.block(b).term.kind = ir::Terminator::Kind::Ret;
  runPasses(fn, only(false, true, false));
  EXPECT_EQ(fn.block(head).instrs.size(), 1u);
}

TEST(DeadFlags, KeepsCompareConsumedAcrossJump) {
  // Block 0: cmp; jmp block 1. Block 1: setcc reads the flags.
  ir::CapturedFunction fn;
  const int head = fn.newBlock(0x1000, 0);
  const int next = fn.newBlock(0x1010, 0);
  fn.block(head).instrs = {makeInstr(Mnemonic::Cmp, 8,
                                     Operand::makeReg(Reg::rax),
                                     Operand::makeReg(Reg::rbx))};
  fn.block(head).term = {ir::Terminator::Kind::Jmp, Cond::O, next, -1};
  isa::Instruction setcc =
      makeInstr(Mnemonic::Setcc, 1, Operand::makeReg(Reg::rax));
  setcc.cond = Cond::E;
  fn.block(next).instrs = {setcc};
  fn.block(next).term.kind = ir::Terminator::Kind::Ret;
  runPasses(fn, only(false, true, false));
  EXPECT_EQ(fn.block(head).instrs.size(), 1u)
      << "cross-block consumer must keep the compare alive";
}

TEST(RedundantLoads, ForwardsSecondIdenticalLoad) {
  const MemOperand m{.base = Reg::rdi, .disp = 16};
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm0),
                Operand::makeMem(m)),
      makeInstr(Mnemonic::Addsd, 8, Operand::makeReg(Reg::xmm1),
                Operand::makeReg(Reg::xmm0)),
      makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm2),
                Operand::makeMem(m)),
  });
  runPasses(fn, only(false, false, true));
  ASSERT_EQ(fn.block(0).instrs.size(), 3u);
  // The second load became a register copy.
  EXPECT_EQ(fn.block(0).instrs[2].mnemonic, Mnemonic::Movapd);
  EXPECT_EQ(fn.block(0).instrs[2].ops[1].reg, Reg::xmm0);
}

TEST(RedundantLoads, InvalidatedByStore) {
  const MemOperand m{.base = Reg::rdi, .disp = 16};
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::rax),
                Operand::makeMem(m)),
      makeInstr(Mnemonic::Mov, 8, Operand::makeMem(m),
                Operand::makeReg(Reg::rcx)),
      makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::rbx),
                Operand::makeMem(m)),
  });
  runPasses(fn, only(false, false, true));
  // The second load must stay a real load.
  EXPECT_EQ(fn.block(0).instrs[2].mnemonic, Mnemonic::Mov);
  EXPECT_TRUE(fn.block(0).instrs[2].ops[1].isMem());
}

TEST(RedundantLoads, InvalidatedByAddressRegisterWrite) {
  const MemOperand m{.base = Reg::rdi, .disp = 16};
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::rax),
                Operand::makeMem(m)),
      makeInstr(Mnemonic::Add, 8, Operand::makeReg(Reg::rdi),
                Operand::makeImm(8)),
      makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::rbx),
                Operand::makeMem(m)),
  });
  runPasses(fn, only(false, false, true));
  EXPECT_TRUE(fn.block(0).instrs[2].ops[1].isMem());
}

TEST(RedundantLoads, PoolConstantsSurviveStores) {
  MemOperand pool;
  pool.ripRelative = true;
  pool.poolSlot = 0;
  const MemOperand store{.base = Reg::rsi};
  ir::CapturedFunction fn = singleBlock({
      makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm0),
                Operand::makeMem(pool)),
      makeInstr(Mnemonic::Movsd, 8, Operand::makeMem(store),
                Operand::makeReg(Reg::xmm0)),
      makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(Reg::xmm1),
                Operand::makeMem(pool)),
  });
  fn.addPoolConstant(0x3FF0000000000000ull);  // 1.0
  runPasses(fn, only(false, false, true));
  // Pool slots are immutable: the reload is forwarded despite the store.
  EXPECT_EQ(fn.block(0).instrs[2].mnemonic, Mnemonic::Movapd);
}

// --- zero-seeded accumulator fold (tracer) ---------------------------------
//
// "pxor acc, acc; addsd acc, y" is a copy of y. The tracer folds it while
// tracing, where it sees the lane states; these kernels are traced with a
// default Config (every parameter unknown).

ExecMemory finalizeOrDie(jit::Assembler& as) {
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok()) << (mem.ok() ? "" : mem.error().message());
  return std::move(*mem);
}

void emitSse(jit::Assembler& as, Mnemonic m, Operand dst, Operand src) {
  as.emit(makeInstr(m, m == Mnemonic::Movapd || m == Mnemonic::Pxor ? 16 : 8,
                    dst, src));
}

const Operand kAtRdi = Operand::makeMem(MemOperand{.base = Reg::rdi});

// double f(const double* p): return 0.0 + *p, via a pxor-seeded xmm1.
ExecMemory buildSeededSum() {
  jit::Assembler as;
  emitSse(as, Mnemonic::Pxor, Operand::makeReg(Reg::xmm1),
          Operand::makeReg(Reg::xmm1));
  emitSse(as, Mnemonic::Addsd, Operand::makeReg(Reg::xmm1), kAtRdi);
  emitSse(as, Mnemonic::Movapd, Operand::makeReg(Reg::xmm0),
          Operand::makeReg(Reg::xmm1));
  as.ret();
  return finalizeOrDie(as);
}

// Every captured instruction, in block order.
std::vector<isa::Instruction> traceInstrs(const ExecMemory& kernel,
                                          const double* arg) {
  Tracer tracer{Config{}};
  const ArgValue args[] = {ArgValue::fromPtr(arg)};
  auto captured =
      tracer.trace(reinterpret_cast<uint64_t>(kernel.data()), args);
  EXPECT_TRUE(captured.ok())
      << (captured.ok() ? "" : captured.error().message());
  std::vector<isa::Instruction> out;
  if (captured.ok())
    for (const ir::Block& block : captured->blocks())
      out.insert(out.end(), block.instrs.begin(), block.instrs.end());
  return out;
}

size_t countOf(const std::vector<isa::Instruction>& instrs, Mnemonic m) {
  size_t n = 0;
  for (const isa::Instruction& in : instrs) n += in.mnemonic == m;
  return n;
}

double rewriteAndCall(const ExecMemory& kernel, const double* arg) {
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(kernel.data(), arg);
  EXPECT_TRUE(rewritten.ok())
      << (rewritten.ok() ? "" : rewritten.error().message());
  return rewritten.ok() ? rewritten->as<double (*)(const double*)>()(arg)
                        : 0.0;
}

TEST(ZeroAdd, FoldsSeededAccumulator) {
  const ExecMemory kernel = buildSeededSum();
  const double y = 2.5;
  const auto instrs = traceInstrs(kernel, &y);
  EXPECT_EQ(countOf(instrs, Mnemonic::Addsd), 0u);
  ASSERT_EQ(countOf(instrs, Mnemonic::Movsd), 1u);
  for (const isa::Instruction& in : instrs)
    if (in.mnemonic == Mnemonic::Movsd) {
      EXPECT_EQ(in.ops[0].reg, Reg::xmm1);
      EXPECT_TRUE(in.ops[1].isMem());
    }
  EXPECT_EQ(rewriteAndCall(kernel, &y), 2.5);
}

TEST(ZeroAdd, RegisterSourceBecomesMovq) {
  // movsd xmm0, [rdi] materializes the source with a real zero high lane,
  // so the seeded add becomes a register copy.
  jit::Assembler as;
  emitSse(as, Mnemonic::Movsd, Operand::makeReg(Reg::xmm0), kAtRdi);
  emitSse(as, Mnemonic::Pxor, Operand::makeReg(Reg::xmm1),
          Operand::makeReg(Reg::xmm1));
  emitSse(as, Mnemonic::Addsd, Operand::makeReg(Reg::xmm1),
          Operand::makeReg(Reg::xmm0));
  emitSse(as, Mnemonic::Movapd, Operand::makeReg(Reg::xmm0),
          Operand::makeReg(Reg::xmm1));
  as.ret();
  const ExecMemory kernel = finalizeOrDie(as);
  const double y = -7.25;
  const auto instrs = traceInstrs(kernel, &y);
  EXPECT_EQ(countOf(instrs, Mnemonic::Addsd), 0u);
  bool copied = false;
  for (const isa::Instruction& in : instrs)
    copied |= in.mnemonic == Mnemonic::Movapd && in.ops[0].reg == Reg::xmm1 &&
              in.ops[1].isReg() && in.ops[1].reg == Reg::xmm0;
  EXPECT_TRUE(copied) << "addsd xmm1, xmm0 should become a register copy";
  EXPECT_EQ(rewriteAndCall(kernel, &y), -7.25);
}

TEST(ZeroAdd, InterveningUseBlocksTheFold) {
  // Storing the seed reads it before the add: the seed is materialized and
  // the add must stay a real addsd.
  jit::Assembler as;
  emitSse(as, Mnemonic::Pxor, Operand::makeReg(Reg::xmm1),
          Operand::makeReg(Reg::xmm1));
  emitSse(as, Mnemonic::Movsd,
          Operand::makeMem(MemOperand{.base = Reg::rdi, .disp = 8}),
          Operand::makeReg(Reg::xmm1));
  emitSse(as, Mnemonic::Addsd, Operand::makeReg(Reg::xmm1), kAtRdi);
  emitSse(as, Mnemonic::Movapd, Operand::makeReg(Reg::xmm0),
          Operand::makeReg(Reg::xmm1));
  as.ret();
  const ExecMemory kernel = finalizeOrDie(as);
  double buf[2] = {4.0, 99.0};
  EXPECT_EQ(countOf(traceInstrs(kernel, buf), Mnemonic::Addsd), 1u);
  EXPECT_EQ(rewriteAndCall(kernel, buf), 4.0);
  EXPECT_EQ(buf[1], 0.0);
}

TEST(ZeroAdd, NonZeroPoolConstantNotTouched) {
  // A known 1.0 accumulator is no zero seed: 1.0 + y needs the add.
  jit::Assembler as;
  as.movRegImm(Reg::rax, 0x3ff0000000000000LL);  // 1.0
  emitSse(as, Mnemonic::Movq, Operand::makeReg(Reg::xmm1),
          Operand::makeReg(Reg::rax));
  emitSse(as, Mnemonic::Addsd, Operand::makeReg(Reg::xmm1), kAtRdi);
  emitSse(as, Mnemonic::Movapd, Operand::makeReg(Reg::xmm0),
          Operand::makeReg(Reg::xmm1));
  as.ret();
  const ExecMemory kernel = finalizeOrDie(as);
  const double y = 0.5;
  EXPECT_EQ(countOf(traceInstrs(kernel, &y), Mnemonic::Addsd), 1u);
  EXPECT_EQ(rewriteAndCall(kernel, &y), 1.5);
}

TEST(ZeroAdd, NegativeZeroKeepsItsSign) {
  // The documented caveat: natively 0.0 + -0.0 is +0.0, the folded copy
  // returns -0.0. Equal as doubles, different in the sign bit.
  const ExecMemory kernel = buildSeededSum();
  const double y = -0.0;
  const double native = kernel.entry<double (*)(const double*)>()(&y);
  const double folded = rewriteAndCall(kernel, &y);
  EXPECT_FALSE(std::signbit(native));
  EXPECT_TRUE(std::signbit(folded));
  EXPECT_EQ(native, folded);
}

TEST(MergeBlocks, CollapsesJmpChains) {
  PassOptions options;
  options.peephole = false;
  options.deadFlagWriters = false;
  options.redundantLoads = false;
  options.mergeBlocks = true;

  ir::CapturedFunction fn;
  const int a = fn.newBlock(1, 0);
  const int b = fn.newBlock(2, 0);
  const int c = fn.newBlock(3, 0);
  fn.setEntry(a);
  fn.block(a).instrs = {makeInstr(Mnemonic::Mov, 8,
                                  Operand::makeReg(Reg::rax),
                                  Operand::makeImm(1))};
  fn.block(a).term = {ir::Terminator::Kind::Jmp, Cond::O, b, -1};
  fn.block(b).instrs = {makeInstr(Mnemonic::Add, 8,
                                  Operand::makeReg(Reg::rax),
                                  Operand::makeImm(2))};
  fn.block(b).term = {ir::Terminator::Kind::Jmp, Cond::O, c, -1};
  fn.block(c).instrs = {makeInstr(Mnemonic::Add, 8,
                                  Operand::makeReg(Reg::rax),
                                  Operand::makeImm(4))};
  fn.block(c).term.kind = ir::Terminator::Kind::Ret;

  runPasses(fn, options);
  EXPECT_EQ(fn.block(a).instrs.size(), 3u);
  EXPECT_EQ(fn.block(a).term.kind, ir::Terminator::Kind::Ret);
  // The merged function still emits and runs.
  auto mem = ir::emit(fn, 1 << 16);
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(mem->entry<int64_t (*)()>()(), 7);
}

TEST(MergeBlocks, SharedSuccessorNotMerged) {
  PassOptions options;
  options.peephole = false;
  options.deadFlagWriters = false;
  options.redundantLoads = false;
  options.mergeBlocks = true;

  // Two predecessors jump to the same block: no merge allowed.
  ir::CapturedFunction fn;
  const int head = fn.newBlock(1, 0);
  const int left = fn.newBlock(2, 0);
  const int join = fn.newBlock(3, 0);
  fn.setEntry(head);
  fn.block(head).instrs = {makeInstr(Mnemonic::Test, 8,
                                     Operand::makeReg(Reg::rdi),
                                     Operand::makeReg(Reg::rdi))};
  fn.block(head).term = {ir::Terminator::Kind::CondJmp, Cond::E, join, left};
  fn.block(left).instrs = {makeInstr(Mnemonic::Add, 8,
                                     Operand::makeReg(Reg::rdi),
                                     Operand::makeImm(1))};
  fn.block(left).term = {ir::Terminator::Kind::Jmp, Cond::O, join, -1};
  fn.block(join).instrs = {makeInstr(Mnemonic::Mov, 8,
                                     Operand::makeReg(Reg::rax),
                                     Operand::makeReg(Reg::rdi))};
  fn.block(join).term.kind = ir::Terminator::Kind::Ret;

  runPasses(fn, options);
  EXPECT_FALSE(fn.block(join).instrs.empty());
  auto mem = ir::emit(fn, 1 << 16);
  ASSERT_TRUE(mem.ok());
  auto f = mem->entry<int64_t (*)(int64_t)>();
  EXPECT_EQ(f(0), 0);
  EXPECT_EQ(f(5), 6);
}

}  // namespace
}  // namespace brew
