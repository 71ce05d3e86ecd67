// Support-layer tests: errors, hexdump, memory map, printer output, PRNG
// determinism.
#include <gtest/gtest.h>

#include "isa/decoder.hpp"
#include "isa/printer.hpp"
#include "support/error.hpp"
#include "support/hexdump.hpp"
#include "support/memory_map.hpp"
#include "support/perf_map.hpp"
#include "support/prng.hpp"

#include <unistd.h>
#include <cstdio>

namespace brew {
namespace {

TEST(ErrorTest, MessageFormatting) {
  Error e{ErrorCode::UndecodableInstruction, 0x1234, "bad byte"};
  const std::string msg = e.message();
  EXPECT_NE(msg.find("UndecodableInstruction"), std::string::npos);
  EXPECT_NE(msg.find("0x1234"), std::string::npos);
  EXPECT_NE(msg.find("bad byte"), std::string::npos);

  Error plain{ErrorCode::VariantLimit, 0, ""};
  EXPECT_EQ(plain.message(), "VariantLimit");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> bad = Error{ErrorCode::InvalidArgument, 0, "nope"};
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::InvalidArgument);

  Status s;
  EXPECT_TRUE(s.ok());
  Status f = Error{ErrorCode::CodeBufferFull, 0, ""};
  EXPECT_FALSE(f.ok());
}

TEST(HexDumpTest, Bytes) {
  const uint8_t data[] = {0x48, 0x89, 0xf8};
  EXPECT_EQ(hexBytes(data), "48 89 f8");
  EXPECT_EQ(hexBytes(std::span<const uint8_t>{}), "");
  const std::string dump = hexDump(data, 0x1000);
  EXPECT_NE(dump.find("001000"), std::string::npos);
  EXPECT_NE(dump.find("48 89 f8"), std::string::npos);
}

TEST(MemoryMapTest, ClassifiesKnownRegions) {
  // Code of this test binary: read-only (r-xp counts as writable==false?
  // r-x has perms[1] == '-' only for r--; r-xp has x in perms[2]).
  // String literals live in r--p .rodata: readable, not writable.
  static const char* literal = "brew-memory-map-probe";
  EXPECT_TRUE(
      isReadOnlyMapping(reinterpret_cast<uint64_t>(literal), 8));
  // Writable static data is not read-only.
  static int64_t writable = 5;
  EXPECT_FALSE(
      isReadOnlyMapping(reinterpret_cast<uint64_t>(&writable), 8));
  // Stack is not read-only.
  int64_t local = 7;
  EXPECT_FALSE(isReadOnlyMapping(reinterpret_cast<uint64_t>(&local), 8));
  // Unmapped garbage address.
  EXPECT_FALSE(isReadOnlyMapping(0x10, 8));
  invalidateMemoryMapCache();
  EXPECT_TRUE(
      isReadOnlyMapping(reinterpret_cast<uint64_t>(literal), 8));
}

TEST(PrngTest, DeterministicAcrossRuns) {
  Prng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Prng c(124);
  EXPECT_NE(a.next(), c.next());
}

TEST(PrngTest, RangeBounds) {
  Prng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(PrinterTest, InstructionText) {
  auto text = [](std::initializer_list<uint8_t> bytes) {
    std::vector<uint8_t> buf(bytes);
    auto instr = isa::decodeOne(buf, 0x1000);
    EXPECT_TRUE(instr.ok());
    return instr.ok() ? isa::toString(*instr) : std::string();
  };
  EXPECT_EQ(text({0x49, 0x89, 0xf8}), "mov r8, rdi");
  EXPECT_EQ(text({0x85, 0xff}), "test edi, edi");
  EXPECT_EQ(text({0x48, 0x83, 0xec, 0x18}), "sub rsp, 0x18");
  EXPECT_EQ(text({0xf2, 0x0f, 0x59, 0x42, 0xf8}),
            "mulsd xmm0, qword ptr [rdx-0x8]");
  EXPECT_EQ(text({0xf2, 0x41, 0x0f, 0x10, 0x04, 0xc0}),
            "movsd xmm0, qword ptr [r8+rax*8]");
  EXPECT_EQ(text({0x7e, 0x10}), "jle 0x1012");
  EXPECT_EQ(text({0xc3}), "ret");
  EXPECT_EQ(text({0x48, 0x99}), "cqo");
  EXPECT_EQ(text({0x0f, 0x94, 0xc0}), "sete al");
  EXPECT_EQ(text({0x48, 0x0f, 0x44, 0xc1}), "cmove rax, rcx");
}

TEST(PrinterTest, DisassemblyDecodesPastRet) {
  const uint8_t code[] = {0x90, 0xc3, 0x48, 0x99, 0xc3};
  const std::string out = isa::disassemble(code, 0);
  EXPECT_EQ(out,
            "     0:  nop\n"
            "     1:  ret\n"
            "     2:  cqo\n"
            "     4:  ret\n");
}

TEST(PrinterTest, UndecodableNoted) {
  const uint8_t code[] = {0x0f, 0xa2};
  const std::string out = isa::disassemble(code, 0);
  EXPECT_NE(out.find("undecodable"), std::string::npos);
}

TEST(PerfMapTest, WritesEntriesWhenEnabled) {
  setPerfMap(true);
  perfMapRegister(reinterpret_cast<const void*>(0x123400), 0x40,
                  "brew_test_symbol");
  setPerfMap(false);
  perfMapRegister(reinterpret_cast<const void*>(0x99), 1, "not_written");
  char path[64];
  std::snprintf(path, sizeof path, "/tmp/perf-%d.map", getpid());
  std::FILE* f = std::fopen(path, "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char line[256];
  while (std::fgets(line, sizeof line, f)) content += line;
  std::fclose(f);
  EXPECT_NE(content.find("123400 40 brew_test_symbol"), std::string::npos);
  EXPECT_EQ(content.find("not_written"), std::string::npos);
}

}  // namespace
}  // namespace brew
