// End-to-end rewriter tests on deterministic assembler-built inputs:
// the tracer is exercised independently of compiler output.
#include <gtest/gtest.h>

#include "core/rewriter.hpp"
#include "isa/printer.hpp"
#include "jit/assembler.hpp"

namespace brew {
namespace {

using isa::Cond;
using isa::makeInstr;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;
using jit::Assembler;

ExecMemory buildOrDie(Assembler& assembler) {
  auto mem = assembler.finalizeExecutable();
  EXPECT_TRUE(mem.ok()) << (mem.ok() ? "" : mem.error().message());
  return std::move(*mem);
}

// rax = rdi + rsi
ExecMemory buildAdd() {
  Assembler a;
  a.movRegReg(Reg::rax, Reg::rdi);
  a.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rsi);
  a.ret();
  return buildOrDie(a);
}

TEST(Rewrite, IdentityNoKnownParams) {
  ExecMemory fn = buildAdd();
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data(), 1, 2);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto add = rewritten->as<int64_t (*)(int64_t, int64_t)>();
  EXPECT_EQ(add(2, 3), 5);
  EXPECT_EQ(add(-10, 4), -6);
  EXPECT_EQ(add(INT64_MAX, 1), INT64_MIN);
}

TEST(Rewrite, SpecializeSecondParam) {
  ExecMemory fn = buildAdd();
  Config config;
  config.setParamKnown(1);  // rsi fixed
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), 0, 42);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto addK = rewritten->as<int64_t (*)(int64_t, int64_t)>();
  // Drop-in signature; the second argument is ignored (baked in as 42).
  EXPECT_EQ(addK(1, 999), 43);
  EXPECT_EQ(addK(-42, 7), 0);
  // The add must have been folded to an immediate form: no instruction may
  // reference rsi anymore.
  const std::string disasm = rewritten->disassembly();
  EXPECT_EQ(disasm.find("rsi"), std::string::npos) << disasm;
}

TEST(Rewrite, FullyConstantFunction) {
  ExecMemory fn = buildAdd();
  Config config;
  config.setParamKnown(0);
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), 30, 12);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto constFn = rewritten->as<int64_t (*)(int64_t, int64_t)>();
  EXPECT_EQ(constFn(0, 0), 42);
  // Everything folds: the body should be a single mov + ret.
  EXPECT_LE(rewritten->traceStats().capturedInstructions, 1u);
}

// rax = rdi * 8 + 3 via shl/add, exercising flag semantics.
TEST(Rewrite, ShiftAndAdd) {
  Assembler a;
  a.movRegReg(Reg::rax, Reg::rdi);
  a.emit(makeInstr(Mnemonic::Shl, 8, Operand::makeReg(Reg::rax),
                   Operand::makeImm(3)));
  a.aluRegImm(Mnemonic::Add, Reg::rax, 3);
  a.ret();
  ExecMemory fn = buildOrDie(a);

  Rewriter plain{Config{}};
  auto rewritten = plain.rewrite(fn.data(), 5);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  EXPECT_EQ(rewritten->as<int64_t (*)(int64_t)>()(5), 43);

  Config config;
  config.setParamKnown(0);
  Rewriter spec{config};
  auto specialized = spec.rewrite(fn.data(), 5);
  ASSERT_TRUE(specialized.ok());
  EXPECT_EQ(specialized->as<int64_t (*)(int64_t)>()(123), 43);
}

// Conditional: rax = (rdi < rsi) ? 1 : 2.
ExecMemory buildCompare() {
  Assembler a;
  jit::Label less = a.newLabel();
  a.aluRegReg(Mnemonic::Cmp, Reg::rdi, Reg::rsi);
  a.jcc(Cond::L, less);
  a.movRegImm(Reg::rax, 2);
  a.ret();
  a.bind(less);
  a.movRegImm(Reg::rax, 1);
  a.ret();
  return buildOrDie(a);
}

TEST(Rewrite, UnknownBranchCapturesBothPaths) {
  ExecMemory fn = buildCompare();
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data(), 0, 0);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto cmp = rewritten->as<int64_t (*)(int64_t, int64_t)>();
  EXPECT_EQ(cmp(1, 2), 1);
  EXPECT_EQ(cmp(2, 1), 2);
  EXPECT_EQ(cmp(7, 7), 2);
  EXPECT_GE(rewritten->traceStats().capturedBranches, 1u);
}

// The listing covers the whole unit: both arms of the unknown branch end in
// their own `ret`, so the second arm is only visible past the first one.
TEST(Rewrite, ListingShowsBlocksAfterFirstRet) {
  ExecMemory fn = buildCompare();
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data(), 0, 0);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  ASSERT_GE(rewritten->traceStats().blocks, 2u);
  const std::string disasm = rewritten->disassembly();
  const size_t firstRet = disasm.find(":  ret\n");
  ASSERT_NE(firstRet, std::string::npos) << disasm;
  const std::string tail = disasm.substr(firstRet + 7);
  EXPECT_NE(tail.find(":  mov "), std::string::npos) << disasm;
  EXPECT_NE(tail.find(":  ret\n"), std::string::npos) << disasm;
}

TEST(Rewrite, KnownBranchResolved) {
  ExecMemory fn = buildCompare();
  Config config;
  config.setParamKnown(0);
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), 1, 5);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten->as<int64_t (*)(int64_t, int64_t)>()(100, 0), 1);
  EXPECT_EQ(rewritten->traceStats().capturedBranches, 0u);
  EXPECT_GE(rewritten->traceStats().resolvedBranches, 1u);
}

// Loop: sum of 1..rdi — fully unrolled when rdi is known.
ExecMemory buildSumLoop() {
  Assembler a;
  a.movRegImm(Reg::rax, 0);
  a.movRegReg(Reg::rcx, Reg::rdi);
  jit::Label loop = a.newLabel();
  jit::Label done = a.newLabel();
  a.bind(loop);
  a.aluRegImm(Mnemonic::Cmp, Reg::rcx, 0);
  a.jcc(Cond::E, done);
  a.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rcx);
  a.aluRegImm(Mnemonic::Sub, Reg::rcx, 1);
  a.jmp(loop);
  a.bind(done);
  a.ret();
  return buildOrDie(a);
}

TEST(Rewrite, KnownLoopFullyUnrolls) {
  ExecMemory fn = buildSumLoop();
  Config config;
  config.setParamKnown(0);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), 10);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  EXPECT_EQ(rewritten->as<int64_t (*)(int64_t)>()(0), 55);
  // No captured branches: the loop was evaluated away entirely.
  EXPECT_EQ(rewritten->traceStats().capturedBranches, 0u);
}

TEST(Rewrite, UnknownLoopKeepsControlFlow) {
  ExecMemory fn = buildSumLoop();
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data(), 1);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto sum = rewritten->as<int64_t (*)(int64_t)>();
  EXPECT_EQ(sum(0), 0);
  EXPECT_EQ(sum(1), 1);
  EXPECT_EQ(sum(100), 5050);
  EXPECT_GE(rewritten->traceStats().capturedBranches, 1u);
}

// Memory: rax = m[rdi] with a known constant table.
TEST(Rewrite, KnownMemoryLoadFolds) {
  static const int64_t table[4] = {10, 20, 30, 40};
  Assembler a;
  MemOperand m;
  m.base = Reg::rdi;
  m.index = Reg::rsi;
  m.scale = 8;
  a.movRegMem(Reg::rax, m, 8);
  a.ret();
  ExecMemory fn = buildOrDie(a);

  Config config;
  config.setParamKnownPtr(0, sizeof table);
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), table, 2);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  EXPECT_EQ(rewritten->as<int64_t (*)(const int64_t*, int64_t)>()(nullptr, 0),
            30);
}

TEST(Rewrite, IndexFoldsIntoDisplacement) {
  // m[rsi] with known rsi: load becomes [rdi + 16].
  Assembler a;
  MemOperand m;
  m.base = Reg::rdi;
  m.index = Reg::rsi;
  m.scale = 8;
  a.movRegMem(Reg::rax, m, 8);
  a.ret();
  ExecMemory fn = buildOrDie(a);

  Config config;
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), nullptr, 2);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  int64_t data[4] = {10, 20, 30, 40};
  EXPECT_EQ(rewritten->as<int64_t (*)(const int64_t*, int64_t)>()(data, 0),
            30);
  const std::string disasm = rewritten->disassembly();
  EXPECT_EQ(disasm.find("rsi"), std::string::npos) << disasm;
  EXPECT_NE(disasm.find("rdi+0x10"), std::string::npos) << disasm;
}

TEST(Rewrite, StoreToUnknownPointerSurvives) {
  // *(int64*)rdi = rsi + 1
  Assembler a;
  a.movRegReg(Reg::rax, Reg::rsi);
  a.aluRegImm(Mnemonic::Add, Reg::rax, 1);
  a.movMemReg(MemOperand{.base = Reg::rdi}, Reg::rax, 8);
  a.ret();
  ExecMemory fn = buildOrDie(a);

  Config config;
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), nullptr, 41);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  int64_t out = 0;
  rewritten->as<void (*)(int64_t*, int64_t)>()(&out, 0);
  EXPECT_EQ(out, 42);
}

TEST(Rewrite, WriteToKnownMemoryFails) {
  static int64_t data[1] = {0};
  Assembler a;
  a.movMemReg(MemOperand{.base = Reg::rdi}, Reg::rsi, 8);
  a.ret();
  ExecMemory fn = buildOrDie(a);

  Config config;
  config.setParamKnownPtr(0, sizeof data);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), data, 0);
  ASSERT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.error().code, ErrorCode::WriteToKnownMemory);
}

TEST(Rewrite, UndecodableFailsGracefully) {
  Assembler a;
  a.emitBytes(std::vector<uint8_t>{0x0f, 0xa2, 0xc3});  // cpuid; ret
  ExecMemory fn = buildOrDie(a);
  Rewriter rewriter{Config{}};
  auto rewritten = rewriter.rewrite(fn.data());
  ASSERT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.error().code, ErrorCode::UndecodableInstruction);
}

TEST(Rewrite, SseSpecialization) {
  // xmm0 = xmm0 * xmm1 + constant table load
  static const double factor[1] = {2.5};
  Assembler a;
  a.emit(makeInstr(Mnemonic::Mulsd, 8, Operand::makeReg(Reg::xmm0),
                   Operand::makeReg(Reg::xmm1)));
  a.emit(makeInstr(Mnemonic::Mulsd, 8, Operand::makeReg(Reg::xmm0),
                   Operand::makeMem(MemOperand{.base = Reg::rdi})));
  a.ret();
  ExecMemory fn = buildOrDie(a);

  Config config;
  config.setParamKnownPtr(0, sizeof factor);   // int param: the pointer
  config.setParamKnown(1, /*isFloat=*/true);   // xmm1 fixed at 3.0
  config.setParamFloat(2);
  Rewriter rewriter{config};
  // signature: f(const double* table, double unknown_x, double known_y)
  // registers: rdi = table, xmm0 = x (unknown), xmm1 = y (known)
  const ArgValue args[] = {ArgValue::fromPtr(factor),
                           ArgValue::fromDouble(0.0),  // placeholder for x
                           ArgValue::fromDouble(3.0)};
  // Parameter order: 0 -> rdi (known ptr), 1 -> xmm0 (unknown), 2 -> xmm1.
  Config config2;
  config2.setParamKnownPtr(0, sizeof factor);
  config2.setParamFloat(1);
  config2.setParamKnown(2, true);
  Rewriter rewriter2{config2};
  auto rewritten = rewriter2.rewrite(fn.data(), args);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto f = rewritten->as<double (*)(const double*, double, double)>();
  EXPECT_DOUBLE_EQ(f(nullptr, 2.0, 99.0), 2.0 * 3.0 * 2.5);
}

TEST(Rewrite, DropInSignatureKeepsUnknownArgsWorking) {
  // f(a, b) = a*2 + b, specialize b.
  Assembler a;
  a.emit(makeInstr(Mnemonic::Lea, 8, Operand::makeReg(Reg::rax),
                   Operand::makeMem(MemOperand{
                       .base = Reg::rdi, .index = Reg::rdi, .scale = 1})));
  a.aluRegReg(Mnemonic::Add, Reg::rax, Reg::rsi);
  a.ret();
  ExecMemory fn = buildOrDie(a);
  Config config;
  config.setParamKnown(1);
  Rewriter rewriter{config};
  auto rewritten = rewriter.rewrite(fn.data(), 0, 100);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error().message();
  auto f = rewritten->as<int64_t (*)(int64_t, int64_t)>();
  for (int64_t x : {-5, 0, 3, 1000}) EXPECT_EQ(f(x, 0), x * 2 + 100);
}

}  // namespace
}  // namespace brew
