#include "layer_probe.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "core/rewriter.hpp"
#include "core/spec_manager.hpp"
#include "core/tracer.hpp"
#include "solver.hpp"
#include "support/perf_map.hpp"
#include "support/persist_cache.hpp"
#include "support/telemetry.hpp"

namespace bench {

namespace {

using brew::ArgValue;
using brew::CacheKey;
using brew::CodeBlock;
using brew::CodeHandle;
using brew::Config;
using brew::PassOptions;

// Runs `f` inside a span named `name` (or just clocks it); returns ticks.
template <typename F>
uint64_t timed(SpanRecorder* spans, const char* name, F&& f) {
  if (spans != nullptr) {
    spans->begin(name);
    f();
    return spans->end();
  }
  const uint64_t t0 = ticks();
  f();
  return ticks() - t0;
}

double ns(uint64_t t) { return toNs(static_cast<double>(t)); }

void add(Outcome& out, const char* name, double value, const char* unit) {
  out.perLayer.push_back({name, value, unit});
}

// What SpecManager::rewrite adopts after a build or a persisted load: the
// install half of the pipeline, after the code bytes exist.
CodeHandle install(brew::ExecMemory memory, const void* fn, uint64_t fingerprint,
                   const char* suffix, size_t codeBytes) {
  brew::registerGeneratedCode(memory.data(), codeBytes, fn, fingerprint, suffix);
  auto* block = new CodeBlock();
  block->memory = std::move(memory);
  block->emitStats.codeBytes = codeBytes;
  return CodeHandle::adopt(block);
}

}  // namespace

// ---- runtime set-up ---------------------------------------------------------

double configureRuntime(size_t cacheBytes, const std::string& cacheDir) {
  const double t0 = cpuSeconds();
  brew_options* o = brew_options_init();
  brew_options_set_workers(o, 1);
  brew_options_set_cache_bytes(o, cacheBytes);
  brew_options_set_cache_shards(o, 16);
  brew_options_set_max_variants(o, 4);
  brew_options_set_dispatch_ways(o, 2);
  brew_options_set_profile_hz(o, 0);
  brew_options_set_cache_dir(o, cacheDir.c_str());
  const int rc = brew_configure(o);
  brew_options_free(o);
  if (rc != 0) return -1.0;
  brew_cache_stats stats{};
  brew_getcachestats(&stats);  // constructs the process-wide runtime
  brew_telemetry_reset();
  brew_cache_reset();
  return cpuSeconds() - t0;
}

size_t entryBytes() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }

// ---- stage replay -----------------------------------------------------------

Stages replayCold(const Request& r, const Subjects& s, brew::CodeCache& missCache,
                  SpanRecorder* spans) {
  Stages st;
  const Config config = configFor(r.kind);
  const std::vector<ArgValue> args = argsFor(r, s);
  const PassOptions passes;
  CacheKey key;
  st.key = timed(spans, "spec_manager.key",
                 [&] { key = brew::makeCacheKey(config, passes, r.fn(), args); });
  CodeHandle miss;
  st.lookup = timed(spans, "code_cache.lookup", [&] { miss = missCache.lookup(key); });
  brew::Tracer tracer(config);
  std::optional<brew::Result<brew::ir::CapturedFunction>> captured;
  st.trace = timed(spans, "tracer.trace", [&] {
    captured.emplace(tracer.trace(reinterpret_cast<uint64_t>(r.fn()), args));
  });
  if (!captured->ok()) return st;
  st.traceStats = tracer.stats();
  st.passes = timed(spans, "passes.run", [&] { brew::runPasses(**captured, passes); });
  std::optional<brew::Result<brew::ExecMemory>> memory;
  st.emit = timed(spans, "emit.emit", [&] {
    memory.emplace(brew::ir::emit(**captured, config.limits().maxCodeBytes, &st.emitStats));
  });
  if (!memory->ok()) return st;
  CodeHandle handle;
  st.install = timed(spans, "install.register", [&] {
    handle = install(std::move(**memory), r.fn(), key.configFp, nullptr,
                     st.emitStats.codeBytes);
  });
  st.ok = true;
  return st;
}

Stages replayHit(const Request& r, const Subjects& s, SpanRecorder* spans) {
  Stages st;
  const Config config = configFor(r.kind);
  const std::vector<ArgValue> args = argsFor(r, s);
  CacheKey key;
  st.key = timed(spans, "spec_manager.key",
                 [&] { key = brew::makeCacheKey(config, PassOptions{}, r.fn(), args); });
  CodeHandle hit;
  brew::CodeCache& cache = brew::SpecManager::process().cache();
  st.lookup = timed(spans, "code_cache.lookup", [&] { hit = cache.lookup(key); });
  st.ok = static_cast<bool>(hit);
  return st;
}

Stages replayWarm(const Request& r, const Subjects& s, brew::CodeCache& missCache,
                  brew::persist::Store& store, SpanRecorder* spans) {
  Stages st;
  const Config config = configFor(r.kind);
  const std::vector<ArgValue> args = argsFor(r, s);
  CacheKey key;
  st.key = timed(spans, "spec_manager.key",
                 [&] { key = brew::makeCacheKey(config, PassOptions{}, r.fn(), args); });
  CodeHandle miss;
  st.lookup = timed(spans, "code_cache.lookup", [&] { miss = missCache.lookup(key); });
  brew::persist::ProbeResult probe;
  st.probe = timed(spans, "persist.probe",
                   [&] { probe = store.probe(r.fn(), key.configFp, key.argsHash); });
  if (!probe.entry.has_value()) return st;
  CodeHandle handle;
  st.install = timed(spans, "install.register", [&] {
    handle = install(std::move(probe.entry->memory), r.fn(), key.configFp, "persist",
                     probe.entry->codeBytes);
  });
  st.ok = true;
  return st;
}

void Attribution::report(Outcome& out) const {
  const double self = static_cast<double>(rewriteTicks_) - static_cast<double>(stageTicks_);
  const double n = samples_ > 0 ? static_cast<double>(samples_) : 1.0;
  out.perLayer.push_back({"spec_manager.self_ns", toNs(self) / n, "ns"});
  out.perLayer.push_back({"workload.unattributed_frac",
                          rewriteTicks_ > 0 ? self / static_cast<double>(rewriteTicks_) : 0.0,
                          "fraction"});
  out.detail("attribution.samples", static_cast<double>(samples_), "count");
}

// ---- layer probe ------------------------------------------------------------

namespace {

struct ColdSeries {
  Series traceNs, decodeNs, shadowNs, execNs, tracedInstrs, capturedFrac, blocks,
      passesNs, emitNs, codeBytes, poolBytes, installNs, keyNs;
};

double histogramMean(const brew_telemetry& t, const char* name) {
  for (size_t i = 0; i < t.histogram_count; ++i)
    if (std::string(t.histograms[i].name) == name && t.histograms[i].count > 0)
      return static_cast<double>(t.histograms[i].sum) /
             static_cast<double>(t.histograms[i].count);
  return 0.0;
}

// Cold requests replayed stage by stage beside their real brew_rewrite2
// (alternating which goes first); phase.* histograms cross-checked.
void probeCold(const RunContext& ctx, Subjects& subjects, const Confs& confs,
               Outcome& out, std::vector<Request>& kept) {
  constexpr int kSamples = 64;
  RequestGen gen(ctx.seed ^ 0xc01dc01dULL, coldMix(), subjects);
  brew::CodeCache missCache;
  ColdSeries cs;
  brew_telemetry_reset();
  for (int i = 0; i < kSamples; ++i) {
    Request req = gen.next();
    Stages st;
    if (i % 2 == 0) st = replayCold(req, subjects, missCache, nullptr);
    brew_func* h = acquire(confs, req, subjects);
    if (i % 2 == 1) st = replayCold(req, subjects, missCache, nullptr);
    if (h == nullptr || !st.ok) {
      out.fail("layer probe: cold request failed: " + req.describe());
      brew_release_h(h);
      continue;
    }
    if (!check(req, brew_func_entry(h), subjects))
      out.fail("layer probe: wrong output: " + req.describe());
    // The replayed key must name the entry brew_rewrite2 just inserted.
    const CacheKey key = brew::makeCacheKey(configFor(req.kind), PassOptions{},
                                            req.fn(), argsFor(req, subjects));
    if (!brew::SpecManager::process().cache().lookup(key))
      out.fail("layer probe: replayed cache key differs from brew_rewrite2's: " +
               req.describe());
    brew_release_h(h);
    const double traceNs = ns(st.trace);
    const double decode = static_cast<double>(st.traceStats.decodeNs);
    const double shadow = static_cast<double>(st.traceStats.shadowNs);
    cs.traceNs.add(traceNs);
    cs.decodeNs.add(decode);
    cs.shadowNs.add(shadow);
    cs.execNs.add(std::max(0.0, traceNs - decode - shadow));
    cs.tracedInstrs.add(static_cast<double>(st.traceStats.tracedInstructions));
    cs.capturedFrac.add(st.traceStats.tracedInstructions == 0
                            ? 0.0
                            : static_cast<double>(st.traceStats.capturedInstructions) /
                                  static_cast<double>(st.traceStats.tracedInstructions));
    cs.blocks.add(static_cast<double>(st.traceStats.blocks));
    cs.passesNs.add(ns(st.passes));
    cs.emitNs.add(ns(st.emit));
    cs.codeBytes.add(static_cast<double>(st.emitStats.codeBytes));
    cs.poolBytes.add(static_cast<double>(st.emitStats.poolBytes));
    cs.installNs.add(ns(st.install));
    cs.keyNs.add(ns(st.key));
    kept.push_back(std::move(req));
  }
  brew_telemetry t{};
  brew_telemetry_snapshot(&t);

  add(out, "tracer.trace_ns", cs.traceNs.median(), "ns");
  add(out, "tracer.decode_ns", cs.decodeNs.median(), "ns");
  add(out, "tracer.shadow_ns", cs.shadowNs.median(), "ns");
  add(out, "tracer.exec_ns", cs.execNs.median(), "ns");
  add(out, "tracer.traced_instrs", cs.tracedInstrs.mean(), "instructions");
  add(out, "tracer.captured_frac", cs.capturedFrac.mean(), "fraction");
  add(out, "tracer.blocks", cs.blocks.mean(), "blocks");
  add(out, "passes.run_ns", cs.passesNs.median(), "ns");
  add(out, "emit.ns", cs.emitNs.median(), "ns");
  add(out, "emit.code_bytes", cs.codeBytes.mean(), "bytes");
  add(out, "emit.pool_bytes", cs.poolBytes.mean(), "bytes");
  add(out, "install.ns", cs.installNs.median(), "ns");
  add(out, "spec_manager.key_ns", cs.keyNs.median(), "ns");

  // Benchmark stage means over the program's own phase histograms for the
  // same requests' real rewrites (1.0 = the two clocks agree).
  const double phaseTrace =
      histogramMean(t, "phase.decode_ns") + histogramMean(t, "phase.emulate_ns");
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  add(out, "xcheck.trace_ratio", ratio(cs.traceNs.mean(), phaseTrace), "ratio");
  add(out, "xcheck.passes_ratio",
      ratio(cs.passesNs.mean(), histogramMean(t, "phase.passes_ns")), "ratio");
  add(out, "xcheck.emit_ratio", ratio(cs.emitNs.mean(), histogramMean(t, "phase.emit_ns")),
      "ratio");
  add(out, "xcheck.install_ratio",
      ratio(cs.installNs.mean(), histogramMean(t, "phase.install_ns")), "ratio");
  out.detail("probe.cold_samples", static_cast<double>(cs.traceNs.size()), "count");
}

// passes.removed_frac / vectorized_groups on the solver's own kernels: the
// pass work that shows up in the stencil_solve cell rate.
void probePasses(Outcome& out) {
  const std::vector<SolverStencil> stencils = solverStencils();
  Grid grid(kLevels[0]);
  size_t before = 0, after = 0;
  auto& groups = brew::telemetry::counter(brew::telemetry::CounterId::PassVectorizedGroups);
  const uint64_t groups0 = groups.value();
  for (const SolverStencil& s : stencils) {
    const Config config = configFor(s.grouped ? Kind::Grouped : Kind::Flat);
    const std::vector<ArgValue> args = {
        ArgValue::fromPtr(grid.data() + grid.edge() + 1),
        ArgValue::fromInt(static_cast<uint64_t>(grid.edge())), ArgValue::fromPtr(s.data())};
    brew::Tracer tracer(config);
    auto captured = tracer.trace(reinterpret_cast<uint64_t>(s.generic()), args);
    if (!captured.ok()) {
      out.fail(std::string("layer probe: solver kernel trace failed: ") + s.name);
      continue;
    }
    before += captured->totalInstructions();
    brew::runPasses(*captured, PassOptions{});
    after += captured->totalInstructions();
  }
  add(out, "passes.removed_frac",
      before == 0 ? 0.0 : 1.0 - static_cast<double>(after) / static_cast<double>(before),
      "fraction");
  add(out, "passes.vectorized_groups", static_cast<double>(groups.value() - groups0),
      "groups");
}

// CodeCache::lookup and brew_release_h on entries the cache holds.
void probeCacheHits(Subjects& subjects, const Confs& confs,
                    const std::vector<Request>& requests, Outcome& out) {
  Series lookupNs, releaseNs;
  brew::CodeCache& cache = brew::SpecManager::process().cache();
  for (int round = 0; round < 8; ++round) {
    for (const Request& r : requests) {
      const CacheKey key = brew::makeCacheKey(configFor(r.kind), PassOptions{}, r.fn(),
                                              argsFor(r, subjects));
      CodeHandle h;
      const uint64_t t0 = ticks();
      h = cache.lookup(key);
      const uint64_t t1 = ticks();
      if (h) lookupNs.add(ns(t1 - t0));
      brew_func* f = acquire(confs, r, subjects);
      const uint64_t t2 = ticks();
      brew_release_h(f);
      releaseNs.add(ns(ticks() - t2));
    }
  }
  add(out, "code_cache.lookup_ns", lookupNs.median(), "ns");
  add(out, "code_cache.release_ns", releaseNs.median(), "ns");
}

double medianSweepNs(int reps, const SolverStencil& s, const void* fn, Grid& a, Grid& b) {
  Series t;
  for (int i = 0; i < reps; ++i) {
    const uint64_t t0 = ticks();
    sweep(s, fn, b, a);
    t.add(ns(ticks() - t0));
  }
  return t.median();
}

// Dispatch stub cost and inline-cache behaviour over the four levels, and
// the generated solver and PGAS kernels through their direct entries.
void probeKernels(Subjects& subjects, const Confs& confs, Outcome& out) {
  const std::vector<SolverStencil> stencils = solverStencils();
  std::vector<Grid> a, b;
  brew::Prng rng(0x9e1d);
  for (int edge : kLevels) {
    a.emplace_back(edge);
    a.back().fill(rng);
    b.push_back(a.back());
  }
  constexpr int kReps = 7;

  // Dispatch: 5-point dispatcher keyed on xs, all four levels promoted.
  brew_variant_stats v0{}, v1{}, v2{};
  brew_getvariantstats(&v0);
  brew_dispatch* d = dispatchSolverKernel(confs.get(Kind::Flat), stencils[0], a[0]);
  const void* dentry = d != nullptr ? brew_dispatch_entry(d) : nullptr;
  brew_func* direct = acquireSolverKernel(confs.get(Kind::Flat), stencils[0], a[0]);
  if (dentry == nullptr || direct == nullptr) {
    out.fail("layer probe: dispatcher or direct 5-point kernel unavailable");
  } else {
    for (int warm = 0; warm < 8 && brew_dispatch_variant_count(d) < kLevelCount; ++warm)
      for (int l = 0; l < kLevelCount; ++l) sweep(stencils[0], dentry, b[l], a[l]);
    brew_getvariantstats(&v1);
    uint64_t cells = 0;
    for (int l = 0; l < kLevelCount; ++l) {
      sweep(stencils[0], dentry, b[l], a[l]);
      cells += a[l].cells();
    }
    brew_getvariantstats(&v2);
    const double resolved = static_cast<double>((v2.table_hits - v1.table_hits) +
                                                (v2.misses - v1.misses));
    Series viaDispatch, viaDirect;
    for (int i = 0; i < kReps; ++i) {
      viaDispatch.add(medianSweepNs(1, stencils[0], dentry, a[0], b[0]));
      viaDirect.add(medianSweepNs(1, stencils[0], brew_func_entry(direct), a[0], b[0]));
    }
    add(out, "dispatch.call_overhead_ns",
        (viaDispatch.median() - viaDirect.median()) / static_cast<double>(a[0].cells()),
        "ns/cell");
    add(out, "dispatch.stub_hit_frac", 1.0 - resolved / static_cast<double>(cells),
        "fraction");
    add(out, "dispatch.promotions", static_cast<double>(v2.promotions - v0.promotions),
        "count");
    add(out, "dispatch.demotions", static_cast<double>(v2.demotions - v0.demotions),
        "count");
  }
  brew_release_h(direct);
  brew_dispatch_free(d);

  // Generated solver kernels, direct entries at the paper's size.
  for (const SolverStencil& s : stencils) {
    brew_func* f = acquireSolverKernel(confs.get(s.grouped ? Kind::Grouped : Kind::Flat),
                                       s, a[0]);
    const std::string name = s.name;
    if (f == nullptr) {
      out.fail("layer probe: solver kernel rewrite failed: " + name);
      continue;
    }
    brew_stats stats{};
    brew_func_getstats(f, &stats);
    out.perLayer.push_back({"generated.stencil_ns_per_cell." + name,
                            medianSweepNs(kReps, s, brew_func_entry(f), a[0], b[0]) /
                                static_cast<double>(a[0].cells()),
                            "ns/cell"});
    out.perLayer.push_back({"generated.captured_instrs." + name,
                            static_cast<double>(stats.captured_instructions), "instructions"});
    out.perLayer.push_back({"generated.code_bytes." + name,
                            static_cast<double>(stats.code_bytes), "bytes"});
    brew_release_h(f);
  }

  // PGAS kernels over rank 0's block: accessor, loop-level sum and fill.
  RequestGen gen(1, coldMix(), subjects);
  const long lo = 0, hi = Subjects::kPerRank / 2;
  const auto perElem = [&](auto&& pass) {
    Series t;
    for (int i = 0; i < 21; ++i) {
      const uint64_t t0 = ticks();
      pass();
      t.add(ns(ticks() - t0));
    }
    return t.median() / static_cast<double>(hi - lo);
  };
  for (Kind kind : {Kind::PgasRead, Kind::PgasSum, Kind::PgasFill}) {
    Request r = gen.make(kind);
    *r.view = subjects.runtime().view(0);
    r.lo = 0;
    r.hi = 64;
    const brew_pgas_view* view = r.view.get();
    brew_func* f = acquire(confs, r, subjects);
    const std::string name = kindName(kind);
    if (f == nullptr) {
      out.fail("layer probe: PGAS kernel rewrite failed: " + name);
      continue;
    }
    void* e = brew_func_entry(f);
    double perElemNs = 0;
    double sink = 0;
    if (kind == Kind::PgasRead) {
      perElemNs = perElem([&] {
        sink += brew_pgas_sum_range(view, lo, hi, reinterpret_cast<brew_pgas_read_fn>(e));
      });
    } else if (kind == Kind::PgasSum) {
      using sum_t = double (*)(const brew_pgas_view*, long, long, brew_pgas_read_fn);
      perElemNs = perElem(
          [&] { sink += reinterpret_cast<sum_t>(e)(view, lo, hi, &brew_pgas_read); });
    } else {
      using fill_t = void (*)(const brew_pgas_view*, long, long, double, brew_pgas_write_fn);
      perElemNs = perElem(
          [&] { reinterpret_cast<fill_t>(e)(view, lo, hi, 0.5, &brew_pgas_write); });
    }
    out.detail("probe." + name + "_sink", sink, "value");
    brew_stats stats{};
    brew_func_getstats(f, &stats);
    out.perLayer.push_back({"generated." + name + "_ns_per_elem", perElemNs, "ns/element"});
    out.perLayer.push_back({"generated.captured_instrs." + name,
                            static_cast<double>(stats.captured_instructions), "instructions"});
    out.perLayer.push_back({"generated.code_bytes." + name,
                            static_cast<double>(stats.code_bytes), "bytes"});
    brew_release_h(f);
  }
}

// The persistent store's three operations on a private store directory.
void probePersist(const RunContext& ctx, Subjects& subjects, Outcome& out) {
  constexpr int kSamples = 32;
  const std::string dir = ctx.runDir + "/probe-store";
  RequestGen gen(ctx.seed ^ 0x9e75157ULL, coldMix(), subjects);
  std::vector<Request> requests;
  for (int i = 0; i < kSamples; ++i) requests.push_back(gen.next());
  Series writeNs, probeNs, reloadNs;
  {
    std::unique_ptr<brew::persist::Store> store = brew::persist::Store::open(dir);
    if (store == nullptr) {
      out.fail("layer probe: cannot open " + dir);
      return;
    }
    for (const Request& r : requests) {
      const Config config = configFor(r.kind);
      const std::vector<ArgValue> args = argsFor(r, subjects);
      const CacheKey key = brew::makeCacheKey(config, PassOptions{}, r.fn(), args);
      auto built = brew::compileSpecialization(config, PassOptions{}, r.fn(), args);
      if (!built.ok()) {
        out.fail("layer probe: compile failed: " + r.describe());
        continue;
      }
      const CodeBlock* block = built->get();
      std::vector<brew::persist::RawReloc> relocs;
      for (const brew::ir::CodeReloc& rel : block->emitStats.relocs)
        relocs.push_back({rel.offset, rel.target});
      brew::persist::WriteRequest req;
      req.fn = r.fn();
      req.configFp = key.configFp;
      req.argsHash = key.argsHash;
      req.bytes = block->memory.data();
      req.size = block->memory.size();
      req.codeBytes = static_cast<uint32_t>(block->emitStats.codeBytes);
      req.poolBytes = static_cast<uint32_t>(block->emitStats.poolBytes);
      req.instructions = static_cast<uint32_t>(block->emitStats.instructions);
      req.blockUnits = static_cast<uint32_t>(block->blockUnits());
      req.relocs = relocs;
      req.portable = block->emitStats.portable;
      uint64_t t0 = ticks();
      const bool written = store->write(req);
      writeNs.add(ns(ticks() - t0));
      if (!written) continue;
      t0 = ticks();
      brew::persist::ProbeResult probe = store->probe(r.fn(), key.configFp, key.argsHash);
      probeNs.add(ns(ticks() - t0));
      if (!probe.entry.has_value())
        out.fail("layer probe: written entry not found: " + r.describe());
    }
  }
  brew::SpecManager::Options options;
  options.cacheDir = dir;
  brew::SpecManager manager(options);
  for (const Request& r : requests) {
    const uint64_t t0 = ticks();
    auto h = manager.rewrite(configFor(r.kind), PassOptions{}, r.fn(), argsFor(r, subjects));
    reloadNs.add(ns(ticks() - t0));
    if (!h.ok()) out.fail("layer probe: reload failed: " + r.describe());
  }
  const auto stats = manager.cache().stats();
  if (stats.persistHits != probeNs.size())
    out.fail("layer probe: reloads did not all come from the store");
  add(out, "persist.hits", static_cast<double>(stats.persistHits), "count");
  add(out, "persist.rejects", static_cast<double>(stats.persistRejects), "count");
  add(out, "persist.probe_ns", probeNs.median(), "ns");
  add(out, "persist.reload_ns", reloadNs.median(), "ns");
  add(out, "persist.write_ns", writeNs.median(), "ns");
}

}  // namespace

void layerProbe(const RunContext& ctx, Subjects& subjects, const Confs& confs,
                Outcome& out) {
  std::vector<Request> cold;
  probeCold(ctx, subjects, confs, out, cold);
  probePasses(out);
  probeCacheHits(subjects, confs, cold, out);
  probeKernels(subjects, confs, out);
  probePersist(ctx, subjects, out);
}

// ---- calibration ------------------------------------------------------------

void calibrate(Subjects& subjects, Outcome& out, bool perLayer) {
  const SolverStencil five = solverStencils()[0];
  Grid a(kLevels[0]);
  brew::Prng rng(0xca1);
  a.fill(rng);
  Grid b = a;
  const double cells = static_cast<double>(a.cells());
  Series generic, manual, pgas;
  brew_pgas_view view = subjects.runtime().view(0);
  double sink = 0;
  for (int i = 0; i < 7; ++i) {
    uint64_t t0 = ticks();
    brew_stencil_sweep(b.data(), a.data(), a.edge(), a.edge(), &brew_stencil_apply, &five.flat);
    generic.add(ns(ticks() - t0) / cells);
    t0 = ticks();
    brew_stencil_sweep_manual_ptr(b.data(), a.data(), a.edge(), a.edge(),
                                  &brew_stencil_apply_manual5);
    manual.add(ns(ticks() - t0) / cells);
    for (int j = 0; j < 3; ++j) {
      t0 = ticks();
      sink += brew_pgas_sum_range(&view, 0, Subjects::kPerRank / 2, &brew_pgas_read);
      pgas.add(ns(ticks() - t0) / (Subjects::kPerRank / 2));
    }
  }
  out.detail("calibration.sink", sink, "value");
  out.detail("calibration.stencil.generic_ns_per_cell", generic.median(), "ns/cell");
  out.detail("calibration.stencil.manual_ns_per_cell", manual.median(), "ns/cell");
  out.detail("calibration.pgas.checked_read_ns_per_elem", pgas.median(), "ns/element");
  if (perLayer) {
    add(out, "stencil.generic_ns_per_cell", generic.median(), "ns/cell");
    add(out, "stencil.manual_ns_per_cell", manual.median(), "ns/cell");
    add(out, "pgas.checked_read_ns_per_elem", pgas.median(), "ns/element");
  }
}

// ---- known defects ----------------------------------------------------------

void knownDefects(Subjects& subjects, const Confs& confs, Outcome& out) {
  RequestGen gen(3, coldMix(), subjects);
  const Request r = gen.make(Kind::PgasSum);
  brew_func* h = acquire(confs, r, subjects);
  if (h == nullptr) {
    out.fail("known-defect probe: loop rewrite failed: " + r.describe());
    return;
  }
  using sum_t = double (*)(const brew_pgas_view*, long, long, brew_pgas_read_fn);
  const auto fn = reinterpret_cast<sum_t>(brew_func_entry(h));
  const long lo = r.view->local_end - 4;
  const long hi = std::min(r.view->local_end + 4, r.view->length);
  const double want = brew_pgas_sum_range(r.view.get(), lo, hi, &brew_pgas_read);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid == 0) {
    close(1);  // the crash report is not part of the benchmark's output
    close(2);
    const rlimit noCore{0, 0};  // and the crash leaves no core file behind
    setrlimit(RLIMIT_CORE, &noCore);
    alarm(10);
    const double got = fn(r.view.get(), lo, hi, &brew_pgas_read);
    _exit(sameBits(got, want) ? 0 : 3);
  }
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid) {
    out.fail("known-defect probe: cannot run the child process");
  } else {
    const double verdict = WIFSIGNALED(status) ? 1.0 : (WEXITSTATUS(status) == 0 ? 0.0 : 2.0);
    out.detail("known_defect.loop_remote_call", verdict, "0=ok,1=crash,2=wrong");
  }
  brew_release_h(h);
}

// ---- determinism ------------------------------------------------------------

void determinismCheck(const RunContext& ctx, Subjects& subjects, Outcome& out) {
  const auto streamDigest = [&](uint64_t seed, Mix mix) {
    RequestGen gen(seed, mix, subjects);
    uint64_t h = 0;
    for (int i = 0; i < 256; ++i) h = h * 0x100000001b3ULL ^ gen.next().digest();
    return h;
  };
  for (Mix mix : {coldMix(), reuseMix()}) {
    if (streamDigest(ctx.seed, mix) != streamDigest(ctx.seed, mix))
      out.fail("determinism: one seed gave two request streams");
    if (streamDigest(ctx.seed, mix) == streamDigest(ctx.seed + 1, mix))
      out.fail("determinism: two seeds gave one request stream");
  }

  // Counts the rewrites produce: fresh managers, same requests, same counts.
  RequestGen gen(ctx.seed ^ 0xde7e4ULL, coldMix(), subjects);
  std::vector<Request> requests;
  for (int i = 0; i < 16; ++i) requests.push_back(gen.next());
  struct Counts {
    uint64_t captured = 0, codeBytes = 0, persistWrites = 0, persistHits = 0;
    bool operator==(const Counts&) const = default;
  };
  const auto measure = [&](const std::string& dir) {
    Counts c;
    for (int pass = 0; pass < 2; ++pass) {  // cold (writes), then warm (hits)
      brew::SpecManager::Options options;
      options.cacheDir = dir;
      brew::SpecManager manager(options);
      for (const Request& r : requests) {
        auto h = manager.rewrite(configFor(r.kind), PassOptions{}, r.fn(),
                                 argsFor(r, subjects));
        if (!h.ok()) continue;
        if (pass == 0) {
          c.captured += (*h)->traceStats.capturedInstructions;
          c.codeBytes += (*h)->emitStats.codeBytes;
        }
      }
      if (pass == 0) c.persistWrites = manager.cache().stats().persistWrites;
      if (pass == 1) c.persistHits = manager.cache().stats().persistHits;
    }
    return c;
  };
  const Counts a = measure(ctx.runDir + "/determinism-a");
  const Counts b = measure(ctx.runDir + "/determinism-b");
  if (!(a == b)) out.fail("determinism: one seed gave two sets of counts");
  if (a.persistHits != a.persistWrites || a.persistHits == 0)
    out.fail("determinism: warm pass did not reload every written entry");
  out.detail("determinism.captured_instrs", static_cast<double>(a.captured), "instructions");
  out.detail("determinism.code_bytes", static_cast<double>(a.codeBytes), "bytes");
  out.detail("determinism.persist_hits", static_cast<double>(a.persistHits), "count");
}

}  // namespace bench
