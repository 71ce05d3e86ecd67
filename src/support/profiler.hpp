// In-process attribution for runtime-generated code (paper §VIII):
//
//  - A CODE-REGION INDEX: every generated blob (specialization, dispatch
//    stub, sampler, entry trampoline) registers its [base, base+size) range,
//    provenance name and config fingerprint. Lookup is async-signal-safe
//    (seqlock-published slots, no locks, no allocation) so the crash
//    handler can attribute a PC from signal context.
//
//  - CRASH ATTRIBUTION: a SIGSEGV/SIGBUS/SIGILL handler that, when the
//    faulting PC lands in a brew-owned region, writes the specialization's
//    provenance name, fingerprint, a disassembly/hex window and the flight
//    recorder's recent events to stderr and BREW_CRASH_FILE before
//    re-raising with the original disposition.
//
// CPU time inside generated code is attributed by Linux `perf` through the
// perf map or jitdump (support/perf_map.hpp), which the same install hook
// feeds.
//
// Env switches (read once): BREW_CRASH_FILE (crash report path),
// BREW_CRASH_HANDLER=0 (opt out of the fault handlers).
#pragma once

#include <cstddef>
#include <cstdint>

namespace brew::prof {

// ---------------------------------------------------------------------------
// Code-region index
// ---------------------------------------------------------------------------

struct CodeRegion {
  uint64_t base = 0;
  uint64_t size = 0;
  uint64_t fingerprint = 0;
  char name[96] = {};
};

// Publishes [code, code+size) under `name`. Called on every install (via
// perf_map.cpp's registerGeneratedCode); re-registering an existing base
// updates it in place. Takes a mutex; NOT for signal context.
void registerCodeRegion(const void* code, size_t size, const char* name,
                        uint64_t fingerprint) noexcept;

// Drops the region starting at `base` (ExecMemory::notifyFree hook).
void unregisterCodeRegion(const void* base, size_t size) noexcept;

// Copies the region covering `pc` into *out. Lock-free and
// async-signal-safe; returns false when the PC is not brew-owned.
bool lookupCodeRegion(uint64_t pc, CodeRegion* out) noexcept;

// Live registered regions (tests).
size_t codeRegionCount() noexcept;

// ---------------------------------------------------------------------------
// Crash attribution
// ---------------------------------------------------------------------------

// Installs the SIGSEGV/SIGBUS/SIGILL handlers (idempotent; also invoked by
// the first code-region registration unless BREW_CRASH_HANDLER=0).
void installCrashHandler() noexcept;

// Overrides the report path (default: BREW_CRASH_FILE; stderr always gets
// a copy). Pass nullptr to clear.
void setCrashFile(const char* path) noexcept;

// Pluggable disassembler for the crash report's code window, registered by
// code that links isa/ (support/ cannot depend on it). Returns bytes
// written to out (NUL-terminated, possibly multi-line).
using CrashDisassembler = size_t (*)(const uint8_t* code, size_t size,
                                     uint64_t address, char* out, size_t cap);
void setCrashDisassembler(CrashDisassembler fn) noexcept;

}  // namespace brew::prof
