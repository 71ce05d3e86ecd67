#include "support/exec_memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "support/flight_recorder.hpp"
#include "support/profiler.hpp"
#include "support/telemetry.hpp"

namespace brew {

namespace {
size_t roundUpToPage(size_t size) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return (size + page - 1) / page * page;
}

// Dual mapping (see the class comment in exec_memory.hpp) is the default;
// BREW_STRICT_WX=1 forces the single-mapping mprotect scheme. Checked once.
bool dualMappingRequested() noexcept {
  static const bool strict = [] {
    const char* v = std::getenv("BREW_STRICT_WX");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return !strict;
}

std::atomic<ExecFreeHook> g_freeHook{nullptr};
std::atomic<uint64_t> g_codeMutationEpoch{0};

// Bounded ring of mutation records so pollers (the decode cache) can
// invalidate by range instead of flushing wholesale. Indexed by epoch so a
// poller can tell whether its backlog is still fully recorded.
struct MutationRecord {
  uint64_t epoch = 0;
  uint64_t base = 0;
  uint64_t size = 0;
};
constexpr uint64_t kMutationHistory = 64;
std::mutex g_mutationMutex;
MutationRecord g_mutations[kMutationHistory];

void recordMutation(const void* base, size_t size) noexcept {
  std::lock_guard<std::mutex> lock(g_mutationMutex);
  const uint64_t e = g_codeMutationEpoch.load(std::memory_order_relaxed) + 1;
  g_mutations[e % kMutationHistory] =
      MutationRecord{e, reinterpret_cast<uint64_t>(base), size};
  g_codeMutationEpoch.store(e, std::memory_order_release);
  flight::record(flight::Event::CodeMutation,
                 reinterpret_cast<uint64_t>(base), size);
}

void notifyFree(const void* base, size_t size) noexcept {
  recordMutation(base, size);
  // The crash-attribution index drops the range here, symmetric
  // with registerGeneratedCode at install (separate from the single-slot
  // ExecFreeHook, which the specialization cache owns).
  prof::unregisterCodeRegion(base, size);
  telemetry::counter(telemetry::CounterId::ExecFrees).add();
  telemetry::gauge(telemetry::GaugeId::ExecBytesLive)
      .sub(static_cast<int64_t>(size));
  const ExecFreeHook hook = g_freeHook.load(std::memory_order_acquire);
  if (hook != nullptr && base != nullptr) hook(base, size);
}

// Region pool: mmap/munmap dominate the install cost of a small rewrite
// (TLB shootdowns plus first-touch faults), so released mappings are
// parked read+write and handed back to the next same-size allocation.
// Pooled regions are "freed" in every observable sense — notifyFree has
// fired (specialization-cache invalidation, telemetry, decode-cache epoch)
// before a region is parked, exactly as if it had been unmapped, and
// reallocation re-zeroes the bytes to preserve fresh-mmap semantics.
// A parked region keeps both views (wbase == nullptr for single-mapping
// regions, which are parked read+write). Reallocation inherits whichever
// kind it takes.
struct PooledRegion {
  void* base = nullptr;
  void* wbase = nullptr;
  size_t size = 0;
};
constexpr size_t kMaxPooledRegions = 16;
constexpr size_t kMaxPooledBytes = 1 << 20;
std::mutex g_poolMutex;
PooledRegion g_pool[kMaxPooledRegions];
size_t g_poolCount = 0;
size_t g_poolBytes = 0;

bool poolTake(size_t size, PooledRegion& out) noexcept {
  std::lock_guard<std::mutex> lock(g_poolMutex);
  for (size_t i = 0; i < g_poolCount; ++i) {
    if (g_pool[i].size != size) continue;
    out = g_pool[i];
    g_poolBytes -= g_pool[i].size;
    g_pool[i] = g_pool[--g_poolCount];
    return true;
  }
  return false;
}

bool poolPark(void* base, void* wbase, size_t size) noexcept {
  std::lock_guard<std::mutex> lock(g_poolMutex);
  if (g_poolCount >= kMaxPooledRegions ||
      g_poolBytes + size > kMaxPooledBytes)
    return false;
  g_pool[g_poolCount++] = PooledRegion{base, wbase, size};
  g_poolBytes += size;
  return true;
}

void unmapRegion(void* base, void* wbase, size_t size) noexcept {
  ::munmap(base, size);
  if (wbase != nullptr) ::munmap(wbase, size);
}

// Frees a mapping: notify (hook + telemetry + mutation record) first, then
// park in the pool or unmap. The hook may itself free ExecMemory, so no
// lock is held while it runs. Dual-mapped regions park as-is (no syscall);
// single-mapping regions are returned to read+write first.
void releaseMapping(void* base, void* wbase, size_t size,
                    bool executable) noexcept {
  notifyFree(base, size);
  if (wbase == nullptr && executable &&
      ::mprotect(base, size, PROT_READ | PROT_WRITE) != 0) {
    ::munmap(base, size);
    return;
  }
  if (!poolPark(base, wbase, size)) unmapRegion(base, wbase, size);
}

// Maps `bytes` of a fresh memfd twice: read+write and read+exec. Returns
// false (and cleans up) when any step fails, e.g. no memfd_create or a
// filesystem-level noexec policy on the memfd mount.
bool mapDual(size_t bytes, PooledRegion& out) noexcept {
#ifdef MFD_CLOEXEC
  const int fd = ::memfd_create("brew-code", MFD_CLOEXEC);
  if (fd < 0) return false;
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    ::close(fd);
    return false;
  }
  void* w = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  void* x = w != MAP_FAILED
                ? ::mmap(nullptr, bytes, PROT_READ | PROT_EXEC, MAP_SHARED,
                         fd, 0)
                : MAP_FAILED;
  ::close(fd);  // both mappings keep the inode alive
  if (x == MAP_FAILED) {
    if (w != MAP_FAILED) ::munmap(w, bytes);
    return false;
  }
  out = PooledRegion{x, w, bytes};
  return true;
#else
  (void)bytes;
  (void)out;
  return false;
#endif
}
}  // namespace

void setExecFreeHook(ExecFreeHook hook) noexcept {
  g_freeHook.store(hook, std::memory_order_release);
}

uint64_t codeMutationEpoch() noexcept {
  return g_codeMutationEpoch.load(std::memory_order_acquire);
}

bool codeMutationsSince(uint64_t sinceEpoch, std::vector<CodeMutation>& out) {
  std::lock_guard<std::mutex> lock(g_mutationMutex);
  const uint64_t cur = g_codeMutationEpoch.load(std::memory_order_relaxed);
  if (cur == sinceEpoch) return true;
  if (cur - sinceEpoch > kMutationHistory) return false;
  for (uint64_t e = sinceEpoch + 1; e <= cur; ++e) {
    const MutationRecord& r = g_mutations[e % kMutationHistory];
    if (r.epoch != e) return false;
    out.push_back(CodeMutation{r.base, r.size});
  }
  return true;
}

ExecMemory::~ExecMemory() {
  if (base_ != nullptr) releaseMapping(base_, wbase_, size_, executable_);
}

ExecMemory::ExecMemory(ExecMemory&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      wbase_(std::exchange(other.wbase_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      executable_(std::exchange(other.executable_, false)) {}

ExecMemory& ExecMemory::operator=(ExecMemory&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) releaseMapping(base_, wbase_, size_, executable_);
    base_ = std::exchange(other.base_, nullptr);
    wbase_ = std::exchange(other.wbase_, nullptr);
    size_ = std::exchange(other.size_, 0);
    executable_ = std::exchange(other.executable_, false);
  }
  return *this;
}

Result<ExecMemory> ExecMemory::allocate(size_t size) {
  if (size == 0)
    return Error{ErrorCode::InvalidArgument, 0, "zero-size code region"};
  const size_t bytes = roundUpToPage(size);
  PooledRegion region;
  if (poolTake(bytes, region)) {
    // match fresh-mmap zeroed contents
    std::memset(region.wbase != nullptr ? region.wbase : region.base, 0,
                bytes);
  } else if (!dualMappingRequested() || !mapDual(bytes, region)) {
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
      return Error{ErrorCode::CodeBufferFull, 0,
                   std::string("mmap: ") + std::strerror(errno)};
    region = PooledRegion{p, nullptr, bytes};
  }
  ExecMemory mem;
  mem.base_ = region.base;
  mem.wbase_ = region.wbase;
  mem.size_ = bytes;
  telemetry::counter(telemetry::CounterId::ExecAllocations).add();
  telemetry::gauge(telemetry::GaugeId::ExecBytesLive)
      .add(static_cast<int64_t>(bytes));
  return mem;
}

Result<ExecMemory> ExecMemory::adoptShared(int fd, size_t size) {
  if (fd < 0 || size == 0)
    return Error{ErrorCode::InvalidArgument, 0, "bad shared code fd"};
  const size_t bytes = roundUpToPage(size);
  void* x = ::mmap(nullptr, bytes, PROT_READ | PROT_EXEC, MAP_SHARED, fd, 0);
  if (x == MAP_FAILED)
    return Error{ErrorCode::CodeBufferFull, 0,
                 std::string("mmap shared code: ") + std::strerror(errno)};
  ExecMemory mem;
  mem.base_ = x;
  mem.wbase_ = nullptr;
  mem.size_ = bytes;
  mem.executable_ = true;
  telemetry::counter(telemetry::CounterId::ExecAllocations).add();
  telemetry::gauge(telemetry::GaugeId::ExecBytesLive)
      .add(static_cast<int64_t>(bytes));
  return mem;
}

Status ExecMemory::finalize() {
  if (base_ == nullptr)
    return Error{ErrorCode::InvalidArgument, 0, "finalize of empty region"};
  if (wbase_ == nullptr &&
      ::mprotect(base_, size_, PROT_READ | PROT_EXEC) != 0)
    return Error{ErrorCode::CodeBufferFull, 0,
                 std::string("mprotect: ") + std::strerror(errno)};
  executable_ = true;
  __builtin___clear_cache(static_cast<char*>(base_),
                          static_cast<char*>(base_) + size_);
  return Status::okStatus();
}

Status ExecMemory::makeWritable() {
  if (base_ == nullptr)
    return Error{ErrorCode::InvalidArgument, 0, "makeWritable of empty region"};
  if (wbase_ == nullptr &&
      ::mprotect(base_, size_, PROT_READ | PROT_WRITE) != 0)
    return Error{ErrorCode::CodeBufferFull, 0,
                 std::string("mprotect: ") + std::strerror(errno)};
  executable_ = false;
  // The region's bytes may now change in place; cached decodes of any
  // address in it are stale the moment the caller writes.
  recordMutation(base_, size_);
  return Status::okStatus();
}

}  // namespace brew
