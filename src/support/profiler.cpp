#include "support/profiler.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "support/flight_recorder.hpp"
#include "support/sigsafe_fmt.hpp"

#if defined(__x86_64__)
#include <ucontext.h>
#endif

namespace brew::prof {

namespace {

// ---------------------------------------------------------------------------
// Code-region index. Fixed slot table published through per-slot seqlocks:
// writers (install/free paths) serialize on a mutex and flip the slot's
// sequence odd while mutating; readers (the crash handler, any thread
// calling lookupCodeRegion) scan lock-free and revalidate the sequence
// after copying. No allocation anywhere near a reader.
// ---------------------------------------------------------------------------

constexpr size_t kMaxRegions = 1024;

struct RegionSlot {
  std::atomic<uint64_t> seq{0};  // even = stable, odd = being written
  std::atomic<uint64_t> base{0};
  // Every data field is a relaxed atomic: the seqlock orders them, but the
  // accesses themselves must be atomic — readers race writers by design
  // and a torn read is discarded by the sequence check, not undefined.
  std::atomic<uint64_t> size{0};
  std::atomic<uint64_t> fingerprint{0};
  std::atomic<char> name[sizeof(CodeRegion{}.name)] = {};
};

RegionSlot g_regions[kMaxRegions];
std::mutex g_regionMu;                  // writers only
std::atomic<size_t> g_regionScanLimit{0};  // slots ever touched
std::atomic<size_t> g_regionCount{0};      // currently live
size_t g_regionVictim = 0;              // round-robin overwrite cursor

void writeSlotLocked(RegionSlot& s, uint64_t base, uint64_t size,
                     uint64_t fingerprint, const char* name) {
  const uint64_t seq = s.seq.load(std::memory_order_relaxed);
  s.seq.store(seq + 1, std::memory_order_release);  // odd: in flux
  std::atomic_thread_fence(std::memory_order_release);
  s.size.store(size, std::memory_order_relaxed);
  s.fingerprint.store(fingerprint, std::memory_order_relaxed);
  size_t n = 0;
  if (name != nullptr) {
    for (; n + 1 < sizeof s.name / sizeof s.name[0] && name[n] != '\0'; ++n)
      s.name[n].store(name[n], std::memory_order_relaxed);
  }
  s.name[n].store('\0', std::memory_order_relaxed);
  s.base.store(base, std::memory_order_relaxed);
  s.seq.store(seq + 2, std::memory_order_release);  // even: published
}

// ---------------------------------------------------------------------------
// Crash attribution
// ---------------------------------------------------------------------------

char g_crashFile[512] = {};
std::atomic<CrashDisassembler> g_disassembler{nullptr};
std::atomic<bool> g_crashInstalled{false};
std::atomic<bool> g_reportWritten{false};
struct sigaction g_oldActions[3];  // SIGSEGV, SIGBUS, SIGILL

int crashSignalIndex(int sig) noexcept {
  switch (sig) {
    case SIGSEGV: return 0;
    case SIGBUS: return 1;
    case SIGILL: return 2;
    default: return -1;
  }
}

const char* crashSignalName(int sig) noexcept {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    default: return "signal";
  }
}

void writeCrashReport(int fd, int sig, const siginfo_t* info, uint64_t pc,
                      const CodeRegion& region) {
  sigfmt::FdWriter w(fd);
  w.str("=== brew crash report (");
  w.str(crashSignalName(sig));
  w.str(") ===\npid: ");
  w.dec(static_cast<uint64_t>(::getpid()));
  w.str("  fault_addr: ");
  w.hex(info != nullptr ? reinterpret_cast<uint64_t>(info->si_addr) : 0);
  w.str("  pc: ");
  w.hex(pc);
  w.str("\nspecialization: ");
  w.str(region.name[0] != '\0' ? region.name : "<unnamed>");
  w.str("\nregion: base=");
  w.hex(region.base);
  w.str(" size=");
  w.dec(region.size);
  w.str(" pc_offset=+");
  w.hex(pc - region.base);
  w.str("\nconfig_fingerprint: ");
  w.hex(region.fingerprint);
  w.put('\n');
  w.flush();

  // Recent runtime history first: it is the part no debugger can
  // reconstruct after the fact.
  flight::dumpTo(fd);

  // Hex window around the faulting PC (clamped to the region). Reading
  // the code bytes can itself fault if the crash is a use-after-free of
  // the mapping; the report above is already flushed if so.
  const uint64_t lo = pc >= region.base + 16 ? pc - 16 : region.base;
  uint64_t hi = pc + 32;
  if (hi > region.base + region.size) hi = region.base + region.size;
  if (lo < hi) {
    w.str("--- code window ---\n  ");
    for (uint64_t a = lo; a < hi; ++a) {
      if (a == pc) w.str(">");
      w.hexByte(*reinterpret_cast<const uint8_t*>(a));
      w.put(' ');
    }
    w.put('\n');
    w.flush();
    // Best-effort disassembly via the registered isa/ callback. Not
    // async-signal-safe (it allocates); everything above is already on
    // disk, so a fault here only costs the prettiest part.
    if (CrashDisassembler disasm =
            g_disassembler.load(std::memory_order_acquire);
        disasm != nullptr) {
      static char buf[4096];
      const size_t n =
          disasm(reinterpret_cast<const uint8_t*>(lo),
                 static_cast<size_t>(hi - lo), lo, buf, sizeof buf);
      if (n > 0) {
        w.str("--- disassembly ---\n");
        w.raw(buf, std::min(n, sizeof buf));
        if (buf[std::min(n, sizeof buf) - 1] != '\n') w.put('\n');
      }
    }
  }
  w.str("=== end brew crash report ===\n");
  w.flush();
}

void restoreCrashAction(int sig) noexcept {
  const int idx = crashSignalIndex(sig);
  if (idx >= 0) ::sigaction(sig, &g_oldActions[idx], nullptr);
}

void onCrashSignal(int sig, siginfo_t* info, void* ucontext) {
  // Hand the signal back to the previous owner first: if anything below
  // faults or the report is already written, the process still dies with
  // the original disposition.
  restoreCrashAction(sig);

  uint64_t pc = 0;
#if defined(__x86_64__)
  if (ucontext != nullptr) {
    const auto* uc = static_cast<const ucontext_t*>(ucontext);
    pc = static_cast<uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
  }
#else
  (void)ucontext;
#endif

  CodeRegion region;
  if (pc != 0 && lookupCodeRegion(pc, &region) &&
      !g_reportWritten.exchange(true)) {
    writeCrashReport(STDERR_FILENO, sig, info, pc, region);
    if (g_crashFile[0] != '\0') {
      const int fd = ::open(g_crashFile, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        writeCrashReport(fd, sig, info, pc, region);
        ::close(fd);
      }
    }
  }

  // Re-raise: pending until the handler returns, then delivered with the
  // restored action (and a genuine fault would re-trigger regardless).
  ::raise(sig);
}

// ---------------------------------------------------------------------------
// Environment wiring (observability-style: read once at static init, like
// telemetry's BREW_TRACE_FILE/BREW_STATS)
// ---------------------------------------------------------------------------

bool g_crashHandlerAllowed = true;

struct EnvInit {
  EnvInit() {
    if (const char* path = std::getenv("BREW_CRASH_FILE");
        path != nullptr && path[0] != '\0') {
      std::strncpy(g_crashFile, path, sizeof g_crashFile - 1);
    }
    if (const char* off = std::getenv("BREW_CRASH_HANDLER");
        off != nullptr && off[0] == '0')
      g_crashHandlerAllowed = false;
  }
};
EnvInit g_envInit;

}  // namespace

// ---------------------------------------------------------------------------
// Code-region index
// ---------------------------------------------------------------------------

void registerCodeRegion(const void* code, size_t size, const char* name,
                        uint64_t fingerprint) noexcept {
  if (code == nullptr || size == 0) return;
  installCrashHandler();
  const uint64_t base = reinterpret_cast<uint64_t>(code);
  std::lock_guard<std::mutex> lock(g_regionMu);
  const size_t limit = g_regionScanLimit.load(std::memory_order_relaxed);
  RegionSlot* empty = nullptr;
  for (size_t i = 0; i < limit; ++i) {
    RegionSlot& s = g_regions[i];
    const uint64_t b = s.base.load(std::memory_order_relaxed);
    if (b == base) {  // reinstall at the same address: update in place
      writeSlotLocked(s, base, size, fingerprint, name);
      return;
    }
    if (b == 0 && empty == nullptr) empty = &s;
  }
  RegionSlot* slot = empty;
  if (slot == nullptr) {
    if (limit < kMaxRegions) {
      slot = &g_regions[limit];
      g_regionScanLimit.store(limit + 1, std::memory_order_release);
    } else {  // index full: overwrite round-robin (diagnostic best effort)
      slot = &g_regions[g_regionVictim];
      g_regionVictim = (g_regionVictim + 1) % kMaxRegions;
      g_regionCount.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  writeSlotLocked(*slot, base, size, fingerprint, name);
  g_regionCount.fetch_add(1, std::memory_order_relaxed);
}

void unregisterCodeRegion(const void* base, size_t size) noexcept {
  (void)size;
  if (base == nullptr) return;
  const uint64_t b = reinterpret_cast<uint64_t>(base);
  std::lock_guard<std::mutex> lock(g_regionMu);
  const size_t limit = g_regionScanLimit.load(std::memory_order_relaxed);
  for (size_t i = 0; i < limit; ++i) {
    RegionSlot& s = g_regions[i];
    if (s.base.load(std::memory_order_relaxed) == b) {
      writeSlotLocked(s, 0, 0, 0, nullptr);
      g_regionCount.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
  }
}

bool lookupCodeRegion(uint64_t pc, CodeRegion* out) noexcept {
  if (pc == 0 || out == nullptr) return false;
  const size_t limit = g_regionScanLimit.load(std::memory_order_acquire);
  for (size_t i = 0; i < limit; ++i) {
    RegionSlot& s = g_regions[i];
    for (int attempt = 0; attempt < 2; ++attempt) {
      const uint64_t seq1 = s.seq.load(std::memory_order_acquire);
      if (seq1 & 1) continue;  // writer in flux; retry once
      const uint64_t base = s.base.load(std::memory_order_relaxed);
      if (base == 0 || pc < base) break;
      CodeRegion copy;
      copy.base = base;
      copy.size = s.size.load(std::memory_order_relaxed);
      copy.fingerprint = s.fingerprint.load(std::memory_order_relaxed);
      for (size_t b = 0; b < sizeof copy.name; ++b)
        copy.name[b] = s.name[b].load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != seq1) continue;
      if (pc >= copy.base + copy.size) break;
      *out = copy;
      return true;
    }
  }
  return false;
}

size_t codeRegionCount() noexcept {
  return g_regionCount.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Crash handler
// ---------------------------------------------------------------------------

void installCrashHandler() noexcept {
  if (!g_crashHandlerAllowed) return;
  if (g_crashInstalled.exchange(true)) return;

  // A dedicated alternate stack: the faulting thread's own stack may be
  // the thing that is broken (stack overflow into a guard page is a
  // SIGSEGV too).
  static constexpr size_t kAltStackSize = 64 * 1024;
  stack_t ss;
  ss.ss_sp = std::malloc(kAltStackSize);  // leaked by design
  ss.ss_size = kAltStackSize;
  ss.ss_flags = 0;
  if (ss.ss_sp != nullptr) ::sigaltstack(&ss, nullptr);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = &onCrashSignal;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  const int sigs[] = {SIGSEGV, SIGBUS, SIGILL};
  for (int sig : sigs)
    ::sigaction(sig, &sa, &g_oldActions[crashSignalIndex(sig)]);
}

void setCrashFile(const char* path) noexcept {
  if (path == nullptr) {
    g_crashFile[0] = '\0';
    return;
  }
  std::strncpy(g_crashFile, path, sizeof g_crashFile - 1);
  g_crashFile[sizeof g_crashFile - 1] = '\0';
}

void setCrashDisassembler(CrashDisassembler fn) noexcept {
  g_disassembler.store(fn, std::memory_order_release);
}

}  // namespace brew::prof
