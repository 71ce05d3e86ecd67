// Intel-syntax disassembly text for decoded/synthesized instructions.
// Used by the examples (paper Fig. 6 shows generated code), test failure
// messages and the BREW_LOG trace output.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "isa/instruction.hpp"

namespace brew::isa {

std::string toString(const Operand& op, unsigned widthBytes,
                     const Instruction* context = nullptr);
std::string toString(const Instruction& instr);

// Disassembles the whole code range, past any `ret` (generated units place
// blocks after their first return); stops early only at the first
// undecodable byte (noting it) or after `maxInstructions`. One instruction
// per line, with addresses.
std::string disassemble(std::span<const uint8_t> bytes, uint64_t address,
                        size_t maxInstructions = 10000);

}  // namespace brew::isa
