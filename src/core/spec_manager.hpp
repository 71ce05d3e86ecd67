// SpecManager: the concurrent front door to specialization. Owns the
// process-wide (or per-instance) CodeCache and a small worker pool that
// builds batches of specializations in the background (brew_rewrite_batch,
// dispatch epoch bumps), so callers keep running the original code until a
// result is ready (BAAR-style on-the-fly acceleration; see PAPERS.md).
//
//   SpecManager& mgr = SpecManager::process();
//   Rewriter r{config, mgr};                  // cached, deduplicated
//   auto batch = mgr.rewriteBatch(config, {}, {{fn, args}});
//   batch->wait();                            // or drain with next()
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/code_cache.hpp"
#include "core/rewriter.hpp"

namespace brew {

namespace persist {
class Store;
}

// Hash of everything the generated code depends on besides the target
// address and the config *shape*: known argument values, the bytes behind
// KnownPtr parameters, and the contents of declared-known regions. Unknown
// parameters do not contribute — their call-time value never reaches the
// generated code, so rewrites differing only there share one entry.
uint64_t hashSpecArgs(const Config& config, std::span<const ArgValue> args);

CacheKey makeCacheKey(const Config& config, const PassOptions& passes,
                      const void* fn, std::span<const ArgValue> args);

// One request of a RewriteBatch: the function to specialize and the
// argument values to trace it with.
struct RewriteItem {
  const void* fn = nullptr;
  std::vector<ArgValue> args;
};

// Fan-out of one configuration across many {fn, args} items on the worker
// pool (SpecManager::rewriteBatch): brew_rewrite_batch sends many functions
// with one argument set, a dispatch-epoch bump sends one function with many
// argument sets. Results are consumed in COMPLETION order: next() blocks
// until some unclaimed item finishes and returns its index into the
// original items — each index is returned exactly once across all callers,
// so several threads can drain one batch. Duplicate items deduplicate in
// the cache: they trace once and every item shares the same refcounted
// code.
class RewriteBatch {
 public:
  size_t size() const { return items_.size(); }

  // Blocks until an unclaimed item completes and returns its index; -1
  // once every item has been claimed (immediately for an empty batch).
  int next();
  // Blocks until every item is done (claimed or not).
  void wait() const;

  // Non-blocking: has this item completed (successfully or not)? Lets a
  // poller (core/dispatch.cpp) install finished variants without waiting.
  bool done(size_t index) const;

  // Per-item results; meaningful once the item is done (after its index
  // came back from next(), or after wait()).
  bool ok(size_t index) const;
  CodeHandle handle(size_t index) const;
  Error error(size_t index) const;

 private:
  friend class SpecManager;
  struct Item {
    RewriteItem request;  // set before the fan-out, never mutated
    bool done = false;
    bool ok = false;
    CodeHandle handle;
    Error error{};
  };

  RewriteBatch(Config config, PassOptions passes)
      : config_(std::move(config)), passes_(passes) {}
  void complete(size_t index, Result<CodeHandle> result);

  const Config config_;  // shared by every item
  const PassOptions passes_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<Item> items_;     // sized at construction; slots mutate once
  std::deque<int> completed_;   // completion order, not yet claimed
  size_t doneCount_ = 0;
  size_t claimed_ = 0;
};

// Tuning for the profile-guided multi-version dispatcher
// (core/dispatch.hpp). Lives here so it rides inside SpecManager::Options —
// the one configuration object behind brew_options and the env fallback.
struct DispatchOptions {
  size_t maxVariants = 4;     // live specialized variants per function (N)
  size_t inlineWays = 2;      // inline-cache ways in the dispatch stub [1,4]
  size_t sampleCalls = 64;    // resolver observations before promoting
  uint64_t promoteThreshold = 8;  // miss score a key needs to specialize
  uint64_t decayInterval = 1024;  // resolver events between score halvings
  uint64_t demoteMargin = 2;  // challenger must beat the coldest by this x
};

class SpecManager {
 public:
  struct Options {
    int workers = 2;                                  // async pool size
    size_t cacheBytes = CodeCache::kDefaultByteBudget;
    size_t cacheShards = 0;  // 0 = CodeCache default (16)
    // Persistent on-disk specialization cache directory (see
    // support/persist_cache.hpp). Empty = persistence disabled; the
    // BREW_CACHE_DIR env fallback applies only through fromEnv(), so
    // ad-hoc `SpecManager m;` instances in tests/benches stay cold.
    std::string cacheDir{};
    DispatchOptions dispatch{};

    // The ONE place the deployment env fallback is parsed (read once per
    // process): BREW_CACHE_DIR. Unset or empty keeps the default above.
    // Every tuning knob is set through brew_options / configureProcess.
    static Options fromEnv();
  };

  SpecManager() : SpecManager(Options{}) {}
  explicit SpecManager(Options options);
  ~SpecManager();

  SpecManager(const SpecManager&) = delete;
  SpecManager& operator=(const SpecManager&) = delete;

  // The process-wide instance used by the C API and the PGAS runtime.
  // First use constructs it from Options::fromEnv(), as overridden by
  // configureProcess().
  static SpecManager& process();

  // Replaces the options the process-wide instance will be built with.
  // Must run before the first process() call (i.e. before any rewrite
  // through the C API); returns false once the instance exists. Backs
  // brew_configure().
  static bool configureProcess(const Options& options);

  const Options& options() const { return options_; }

  CodeCache& cache() { return cache_; }

  // The persistent store, or nullptr when options().cacheDir is empty or
  // the directory could not be opened. Exposed for tests and diagnostics.
  persist::Store* persistStore() const { return persist_.get(); }

  // Synchronous cached rewrite: key, deduplicate, trace+emit on miss.
  Result<CodeHandle> rewrite(const Config& config, const PassOptions& passes,
                             const void* fn, std::span<const ArgValue> args);

  // Fans `items` out to the worker pool, all sharing `config`/`passes`.
  // Returns immediately; consume results in completion order with
  // RewriteBatch::next(), or poll done()/ok()/handle(). Null or failing
  // functions fail their own item only — the rest of the batch proceeds.
  // Each successful item counts as one async install in the cache stats
  // (asyncInstalls / asyncLatencyNs*, enqueue to built).
  std::shared_ptr<RewriteBatch> rewriteBatch(Config config,
                                             PassOptions passes,
                                             std::vector<RewriteItem> items);

 private:
  void enqueue(std::function<void()> task);
  void workerLoop();

  Options options_;
  CodeCache cache_;
  std::unique_ptr<persist::Store> persist_;  // null = persistence off

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // spawned lazily on first async use
};

}  // namespace brew
