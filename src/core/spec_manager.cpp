#include "core/spec_manager.hpp"

#include <cstdlib>
#include <cstring>

#include "support/log.hpp"
#include "support/perf_map.hpp"
#include "support/persist_cache.hpp"
#include "support/telemetry.hpp"

namespace brew {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t fnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t fnvBytes(uint64_t h, const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

// Deferred construction state for the process-wide manager: options staged
// by configureProcess() until the first process() call freezes them.
struct ProcessConfig {
  std::mutex mu;
  SpecManager::Options options;
  bool haveOptions = false;  // configureProcess was called
  bool frozen = false;       // process() already constructed the instance
};

ProcessConfig& processConfig() {
  static auto* config = new ProcessConfig();
  return *config;
}

SpecManager::Options takeProcessOptions() {
  ProcessConfig& pc = processConfig();
  std::lock_guard<std::mutex> lock(pc.mu);
  pc.frozen = true;
  return pc.haveOptions ? pc.options : SpecManager::Options::fromEnv();
}

}  // namespace

uint64_t hashSpecArgs(const Config& config, std::span<const ArgValue> args) {
  uint64_t h = kFnvOffset;
  h = fnvMix(h, args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    const ParamSpec& spec = i < Config::kMaxParams
                                ? config.param(i)
                                : ParamSpec{};
    if (spec.kind == ParamKind::Unknown) {
      // Call-time value never reaches the generated code.
      h = fnvMix(h, 0x55);
      continue;
    }
    h = fnvMix(h, args[i].bits);
    h = fnvMix(h, args[i].isFloat ? 2 : 1);
    if (spec.kind == ParamKind::KnownPtr && spec.pointeeSize > 0 &&
        args[i].bits != 0) {
      // The generated code folds loads through this pointer, so its
      // current pointee bytes are part of the specialization identity
      // (domain-map redistribution must re-specialize, not hit).
      h = fnvBytes(h, reinterpret_cast<const void*>(args[i].bits),
                   spec.pointeeSize);
    }
  }
  for (const MemRegion& region : config.knownRegions()) {
    h = fnvMix(h, region.start);
    h = fnvBytes(h, reinterpret_cast<const void*>(region.start),
                 static_cast<size_t>(region.end - region.start));
  }
  return h;
}

CacheKey makeCacheKey(const Config& config, const PassOptions& passes,
                      const void* fn, std::span<const ArgValue> args) {
  CacheKey key;
  key.fn = reinterpret_cast<uint64_t>(fn);
  key.configFp = fnvMix(config.fingerprint(), passes.fingerprint());
  key.argsHash = hashSpecArgs(config, args);
  return key;
}

int RewriteBatch::next() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock,
           [&] { return !completed_.empty() || claimed_ == items_.size(); });
  if (completed_.empty()) return -1;
  const int index = completed_.front();
  completed_.pop_front();
  ++claimed_;
  return index;
}

void RewriteBatch::wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return doneCount_ == items_.size(); });
}

bool RewriteBatch::done(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < items_.size() && items_[index].done;
}

bool RewriteBatch::ok(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < items_.size() && items_[index].done && items_[index].ok;
}

CodeHandle RewriteBatch::handle(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < items_.size() ? items_[index].handle : CodeHandle{};
}

Error RewriteBatch::error(size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index < items_.size() ? items_[index].error : Error{};
}

void RewriteBatch::complete(size_t index, Result<CodeHandle> result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    Item& item = items_[index];
    item.done = true;
    if (result.ok()) {
      item.ok = true;
      item.handle = std::move(*result);
    } else {
      item.error = result.error();
    }
    completed_.push_back(static_cast<int>(index));
    ++doneCount_;
  }
  cv_.notify_all();
}

SpecManager::Options SpecManager::Options::fromEnv() {
  static const Options cached = [] {
    Options o;
    if (const char* d = std::getenv("BREW_CACHE_DIR"))
      if (d[0] != '\0') o.cacheDir = d;
    return o;
  }();
  return cached;
}

SpecManager::SpecManager(Options options)
    : options_(options),
      cache_(options.cacheBytes, options.cacheShards) {
  if (options_.workers < 1) options_.workers = 1;
  if (!options_.cacheDir.empty()) {
    persist_ = persist::Store::open(options_.cacheDir);
    if (persist_ == nullptr)
      BREW_LOG_INFO("persistent cache disabled: cannot open %s",
                    options_.cacheDir.c_str());
  }
}

SpecManager::~SpecManager() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

SpecManager& SpecManager::process() {
  static SpecManager manager{takeProcessOptions()};
  return manager;
}

bool SpecManager::configureProcess(const Options& options) {
  ProcessConfig& pc = processConfig();
  std::lock_guard<std::mutex> lock(pc.mu);
  if (pc.frozen) return false;
  pc.options = options;
  pc.haveOptions = true;
  return true;
}

Result<CodeHandle> SpecManager::rewrite(const Config& config,
                                        const PassOptions& passes,
                                        const void* fn,
                                        std::span<const ArgValue> args) {
  if (fn == nullptr)
    return Error{ErrorCode::InvalidArgument, 0, "null function pointer"};
  const CacheKey key = makeCacheKey(config, passes, fn, args);
  return cache_.getOrBuild(key, [&]() -> Result<CodeHandle> {
    // Probe the persistent store first: a hit materializes finalized code
    // with zero trace/emulate/emit phases (docs/CACHE.md "Persistence").
    if (persist_ != nullptr) {
      persist::ProbeResult probe =
          persist_->probe(fn, key.configFp, key.argsHash);
      cache_.recordPersistProbe(probe.entry.has_value(), probe.rejected);
      if (probe.entry.has_value()) {
        auto* block = new CodeBlock();
        block->memory = std::move(probe.entry->memory);
        block->emitStats.codeBytes = probe.entry->codeBytes;
        block->emitStats.poolBytes = probe.entry->poolBytes;
        block->emitStats.instructions = probe.entry->instructions;
        block->blockCount = probe.entry->blockUnits;
        block->sharedMapping = probe.entry->shared;
        registerGeneratedCode(block->memory.data(),
                              block->emitStats.codeBytes, fn, key.configFp,
                              "persist");
        return CodeHandle::adopt(block);
      }
    }
    auto built = compileSpecialization(config, passes, fn, args,
                                       CacheKeyHash{}(key));
    if (persist_ != nullptr && built.ok()) {
      const CodeBlock* block = built->get();
      std::vector<persist::RawReloc> relocs;
      relocs.reserve(block->emitStats.relocs.size());
      for (const ir::CodeReloc& r : block->emitStats.relocs)
        relocs.push_back(persist::RawReloc{r.offset, r.target});
      persist::WriteRequest req;
      req.fn = fn;
      req.configFp = key.configFp;
      req.argsHash = key.argsHash;
      req.bytes = block->memory.data();
      req.size = block->memory.size();
      req.codeBytes = static_cast<uint32_t>(block->emitStats.codeBytes);
      req.poolBytes = static_cast<uint32_t>(block->emitStats.poolBytes);
      req.instructions =
          static_cast<uint32_t>(block->emitStats.instructions);
      req.blockUnits = static_cast<uint32_t>(block->blockUnits());
      req.relocs = relocs;
      req.portable = block->emitStats.portable;
      if (persist_->write(req)) cache_.recordPersistWrite();
    }
    return built;
  });
}

void SpecManager::enqueue(std::function<void()> task) {
  bool inline_ = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      inline_ = true;  // shutting down: run synchronously, never drop work
    } else {
      if (workers_.empty())
        for (int i = 0; i < options_.workers; ++i)
          workers_.emplace_back([this] { workerLoop(); });
      queue_.push_back(std::move(task));
    }
  }
  if (inline_)
    task();
  else
    cv_.notify_one();
}

void SpecManager::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::shared_ptr<RewriteBatch> SpecManager::rewriteBatch(
    Config config, PassOptions passes, std::vector<RewriteItem> items) {
  auto batch = std::shared_ptr<RewriteBatch>(
      new RewriteBatch(std::move(config), passes));
  batch->items_.resize(items.size());
  for (size_t i = 0; i < items.size(); ++i)
    batch->items_[i].request = std::move(items[i]);
  const uint64_t enqueuedNs = telemetry::nowNs();
  for (size_t i = 0; i < batch->items_.size(); ++i) {
    enqueue([this, batch, i, enqueuedNs] {
      telemetry::histogram(telemetry::HistogramId::AsyncQueueLatencyNs)
          .record(telemetry::nowNs() - enqueuedNs);
      // Duplicate items hit the cache's per-key single-flight: one traces,
      // the rest wait and share the handle. A null/failing fn fails only
      // its own item.
      const RewriteItem& request = batch->items_[i].request;
      auto result =
          rewrite(batch->config_, batch->passes_, request.fn, request.args);
      if (result.ok())
        cache_.recordAsyncInstall(request.fn,
                                  telemetry::nowNs() - enqueuedNs);
      batch->complete(i, std::move(result));
    });
  }
  return batch;
}

}  // namespace brew
