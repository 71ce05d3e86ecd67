// stencil_solve: the paper's application. Multigrid-style Jacobi ping-pong
// sweeps at four levels for four stencils, every cell update through one
// brew_dispatch per stencil keyed on xs, plus PGAS range passes through the
// specialized accessor and the loop-level rewritten sum and fill. After
// set-up the tracer is idle; generated code, dispatch stubs and the PGAS
// accessor do the work.
#include <cstring>
#include <memory>

#include "emu/interpreter.hpp"
#include "layer_probe.hpp"
#include "report.hpp"
#include "solver.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

constexpr int kSetupReps = 5;
constexpr int kPgasPasses = 32;  // range passes per round
constexpr int kRanges = 16;      // pre-drawn ranges per seed

using sum_t = double (*)(const brew_pgas_view*, long, long, brew_pgas_read_fn);
using fill_t = void (*)(const brew_pgas_view*, long, long, double, brew_pgas_write_fn);

struct Range {
  long lo = 0, hi = 0;
};

// One stencil's grids: per level the ping-pong pair and the generic
// library's results after one (b) and two (a) sweeps from the start state.
// Even rounds sweep a -> b, odd rounds b -> a; a is reset after odd rounds.
struct Lane {
  const SolverStencil* stencil = nullptr;
  std::vector<Grid> a, b, refB, refA;
  brew_dispatch* dispatch = nullptr;
  const void* entry = nullptr;
};

struct Pgas {
  Request read, sum, fill;  // their views are the one rank-0 view
  brew_func* readFn = nullptr;
  brew_func* sumFn = nullptr;
  brew_func* fillFn = nullptr;
  Range sums[kRanges], fills[kRanges];
  Range cross;  // crosses into rank 1: remote reads through the accessor
  double sumRef[kRanges] = {};
  double crossRef = 0;
  const brew_pgas_view* view() const { return read.view.get(); }
  void release() {
    for (brew_func** f : {&readFn, &sumFn, &fillFn}) {
      brew_release_h(*f);
      *f = nullptr;
    }
  }
};

// Interpreter third opinion on one solver kernel at one cell.
std::string oracleCell(const SolverStencil& s, const void* entry, const Grid& g, long cell) {
  const double* m = g.data() + cell;
  const int xs = g.edge();
  const double generic =
      s.grouped ? brew_stencil_apply_grouped(m, xs, &s.group) : brew_stencil_apply(m, xs, &s.flat);
  const double native =
      s.grouped
          ? reinterpret_cast<brew_gstencil_fn>(const_cast<void*>(entry))(m, xs, &s.group)
          : reinterpret_cast<brew_stencil_fn>(const_cast<void*>(entry))(m, xs, &s.flat);
  const uint64_t ints[] = {reinterpret_cast<uint64_t>(m), static_cast<uint64_t>(xs),
                           reinterpret_cast<uint64_t>(s.data())};
  brew::emu::Interpreter interp;
  auto ran = interp.call(reinterpret_cast<uint64_t>(entry), ints);
  if (!ran.ok()) return "interpreter: " + ran.error().message();
  if (!sameBits(generic, native)) return "rewritten native differs from generic";
  if (!sameBits(generic, ran->fpResult())) return "interpreted rewritten differs from generic";
  return {};
}

}  // namespace

Outcome runStencilSolve(const RunContext& ctx, Subjects& subjects, const Confs& confs) {
  Outcome out;
  const double configureS = configureRuntime(kDefaultCacheBytes);
  if (configureS < 0) {
    out.fail("brew_configure failed");
    return out;
  }
  const std::vector<SolverStencil> stencils = solverStencils();
  brew::Prng rng(ctx.seed);

  // Grids and references (the reference computation is not set-up time).
  std::vector<Grid> start;
  for (int edge : kLevels) {
    start.emplace_back(edge);
    start.back().fill(rng);
  }
  std::vector<Lane> lanes(stencils.size());
  for (size_t i = 0; i < stencils.size(); ++i) {
    Lane& lane = lanes[i];
    lane.stencil = &stencils[i];
    for (int l = 0; l < kLevelCount; ++l) {
      lane.a.push_back(start[l]);
      lane.b.push_back(start[l]);
      Grid one = start[l], two = start[l];
      sweep(stencils[i], stencils[i].generic(), one, start[l]);
      sweep(stencils[i], stencils[i].generic(), two, one);
      lane.refB.push_back(std::move(one));
      lane.refA.push_back(std::move(two));
    }
  }

  // PGAS: rank 0's view; sums in [0, 4096), fills in [4096, 8064), one
  // range per round crossing the block end.
  Pgas pgas;
  RequestGen gen(ctx.seed, coldMix(), subjects);
  pgas.read = gen.make(Kind::PgasRead);
  pgas.sum = gen.make(Kind::PgasSum);
  pgas.fill = gen.make(Kind::PgasFill);
  *pgas.read.view = subjects.runtime().view(0);
  for (Request* r : {&pgas.sum, &pgas.fill}) r->view = std::make_unique<brew_pgas_view>(*pgas.read.view);
  for (int i = 0; i < kRanges; ++i) {
    const long n = rng.range(1024, 4096);
    pgas.sums[i].lo = static_cast<long>(rng.below(4096 - n + 1));
    pgas.sums[i].hi = pgas.sums[i].lo + n;
    const long f = rng.range(1024, 3968);
    pgas.fills[i].lo = 4096 + static_cast<long>(rng.below(3968 - f + 1));
    pgas.fills[i].hi = pgas.fills[i].lo + f;
    pgas.sumRef[i] = brew_pgas_sum_range(pgas.view(), pgas.sums[i].lo, pgas.sums[i].hi,
                                         &brew_pgas_read);
  }
  pgas.cross.lo = Subjects::kPerRank - rng.range(16, 64);
  pgas.cross.hi = Subjects::kPerRank + rng.range(1, 16);
  pgas.crossRef =
      brew_pgas_sum_range(pgas.view(), pgas.cross.lo, pgas.cross.hi, &brew_pgas_read);

  // Set-up, timed kSetupReps times: dispatchers promoted at every level,
  // the three PGAS specializations acquired.
  SpanRecorder setupSpans(0);
  SpanRecorder* trace = ctx.trace ? &setupSpans : nullptr;
  Attribution attribution;
  brew::CodeCache missCache;
  SetupClock setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (Lane& lane : lanes) brew_dispatch_free(lane.dispatch);
    pgas.release();
    brew_cache_reset();
    setup.begin();
    for (Lane& lane : lanes) {
      brew_conf* conf = confs.get(lane.stencil->grouped ? Kind::Grouped : Kind::Flat);
      lane.dispatch = dispatchSolverKernel(conf, *lane.stencil, lane.a[0]);
      lane.entry = lane.dispatch != nullptr ? brew_dispatch_entry(lane.dispatch) : nullptr;
      if (lane.entry == nullptr) {
        out.fail(std::string("dispatcher creation failed: ") + lane.stencil->name);
        return out;
      }
      for (int warm = 0; warm < 16 && brew_dispatch_variant_count(lane.dispatch) < kLevelCount;
           ++warm)
        for (int l = 0; l < kLevelCount; ++l)
          sweep(*lane.stencil, lane.entry, lane.b[l], lane.a[l]);
      if (brew_dispatch_variant_count(lane.dispatch) < kLevelCount)
        out.fail(std::string("dispatch did not specialize every level: ") + lane.stencil->name);
    }
    int i = 0;
    for (auto [request, fn] : {std::pair{&pgas.read, &pgas.readFn},
                               std::pair{&pgas.sum, &pgas.sumFn},
                               std::pair{&pgas.fill, &pgas.fillFn}}) {
      Stages stages;
      const bool replayFirst = (rep + i++) % 2 == 0;
      if (trace != nullptr && replayFirst)
        stages = replayCold(*request, subjects, missCache, trace);
      uint64_t rewriteTicks = 0;
      {
        if (trace != nullptr) trace->begin("brew_rewrite2");
        *fn = acquire(confs, *request, subjects);
        if (trace != nullptr) rewriteTicks = trace->end();
      }
      if (trace != nullptr && !replayFirst)
        stages = replayCold(*request, subjects, missCache, trace);
      // Repetition 0 decodes the subjects for the first time, in whichever
      // of the two goes first; it is left out of the comparison.
      if (trace != nullptr && stages.ok && rep > 0) attribution.add(rewriteTicks, stages);
      if (*fn == nullptr) {
        out.fail("PGAS rewrite failed: " + request->describe());
        return out;
      }
    }
    setup.end();
  }
  auto* readFn = reinterpret_cast<brew_pgas_read_fn>(brew_func_entry(pgas.readFn));
  auto* sumFn = reinterpret_cast<sum_t>(brew_func_entry(pgas.sumFn));
  auto* fillFn = reinterpret_cast<fill_t>(brew_func_entry(pgas.fillFn));

  // ---- the loop -------------------------------------------------------------
  CacheDelta cache;
  cache.start();
  brew_telemetry_reset();
  SpanRecorder loopSpans(0);
  // Untraced rounds. A round (~15 ms) is long enough to be caught by the
  // host's stalls (a vCPU descheduled for milliseconds), which would make a
  // wall-clock p99 measure the host; the percentiles use the thread's CPU
  // time, which leaves steal time out. The wall-clock ones are detail rows.
  Series roundUs, roundWallUs;
  RateMeter cellMeter;  // cells per second of sweeping
  uint64_t pgasTicks = 0, pgasElems = 0;
  uint64_t rounds = 0;
  const double deadline = wallSeconds() + ctx.seconds;
  while (wallSeconds() < deadline) {
    // Traced in pairs of rounds, so both sweep directions are in each mode.
    const bool traced = ctx.trace && (rounds / 2) % 2 == 1;
    SpanRecorder* spans = traced ? &loopSpans : nullptr;
    if (spans != nullptr) spans->setRequest(static_cast<uint32_t>(rounds));
    uint64_t roundTicks = 0;
    double roundCpuUs = 0;
    const double value = 0.25 * static_cast<double>(rounds % 8) - 1.0;
    double sums[kPgasPasses][2] = {};
    double crossSum = 0;
    {
      Span root(spans, "round");
      const double cpu0 = threadCpuSeconds();
      for (Lane& lane : lanes) {
        for (int l = 0; l < kLevelCount; ++l) {
          const uint64_t t0 = ticks();
          {
            Span s(spans, "dispatch.sweep");
            if (rounds % 2 == 0)
              sweep(*lane.stencil, lane.entry, lane.b[l], lane.a[l]);
            else
              sweep(*lane.stencil, lane.entry, lane.a[l], lane.b[l]);
          }
          const uint64_t dt = ticks() - t0;
          cellMeter.add(traced, lane.a[l].cells(), dt);
          roundTicks += dt;
        }
      }
      const uint64_t t0 = ticks();
      for (int p = 0; p < kPgasPasses; ++p) {
        const Range sr = pgas.sums[(rounds + p) % kRanges];
        const Range fr = pgas.fills[(rounds + 3 * p) % kRanges];
        {
          Span s(spans, "pgas.sum_accessor");
          sums[p][0] = brew_pgas_sum_range(pgas.view(), sr.lo, sr.hi, readFn);
        }
        {
          Span s(spans, "pgas.sum_loop");
          sums[p][1] = sumFn(pgas.view(), sr.lo, sr.hi, &brew_pgas_read);
        }
        {
          Span s(spans, "pgas.fill_loop");
          fillFn(pgas.view(), fr.lo, fr.hi, value, &brew_pgas_write);
        }
        pgasElems += 2 * static_cast<uint64_t>(sr.hi - sr.lo) +
                     static_cast<uint64_t>(fr.hi - fr.lo);
      }
      {
        Span s(spans, "pgas.sum_remote");
        crossSum = brew_pgas_sum_range(pgas.view(), pgas.cross.lo, pgas.cross.hi, readFn);
      }
      pgasElems += static_cast<uint64_t>(pgas.cross.hi - pgas.cross.lo);
      const uint64_t dt = ticks() - t0;
      pgasTicks += dt;
      roundTicks += dt;
      roundCpuUs = 1e6 * (threadCpuSeconds() - cpu0);

      // Check every output of the round against the generic library.
      Span check(spans, "bench.check");
      bool ok = true;
      for (Lane& lane : lanes) {
        for (int l = 0; l < kLevelCount; ++l) {
          const bool odd = rounds % 2 == 1;
          const std::vector<double>& got = odd ? lane.a[l].raw() : lane.b[l].raw();
          const std::vector<double>& want = odd ? lane.refA[l].raw() : lane.refB[l].raw();
          if (std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) != 0) {
            ok = false;
            out.note(std::string("stencil result differs from generic: ") + lane.stencil->name +
                     " level " + std::to_string(kLevels[l]));
          }
          if (odd) lane.a[l] = start[l];
        }
      }
      for (int p = 0; p < kPgasPasses; ++p) {
        const double want = pgas.sumRef[(rounds + p) % kRanges];
        if (!sameBits(sums[p][0], want) || !sameBits(sums[p][1], want)) ok = false;
        const Range fr = pgas.fills[(rounds + 3 * p) % kRanges];
        for (long i = fr.lo; i < fr.hi; ++i)
          if (!sameBits(brew_pgas_read(pgas.view(), i), value)) ok = false;
      }
      if (!sameBits(crossSum, pgas.crossRef)) ok = false;
      if (!ok) out.wrongOutput("round " + std::to_string(rounds) + " output differs from generic");
    }
    if (!traced) {
      roundUs.add(roundCpuUs);
      roundWallUs.add(toUs(static_cast<double>(roundTicks)));
    }
    ++rounds;
  }
  cache.stop();
  out.attempted = rounds;
  out.telemetryJson = telemetrySnapshotJson();

  // Three-way oracle on every solver kernel (two cells per level) and the
  // PGAS kernels.
  for (Lane& lane : lanes) {
    for (int l = 0; l < kLevelCount; ++l) {
      brew_func* f = acquireSolverKernel(
          confs.get(lane.stencil->grouped ? Kind::Grouped : Kind::Flat), *lane.stencil, lane.a[l]);
      if (f == nullptr) {
        out.fail(std::string("oracle: kernel rewrite failed: ") + lane.stencil->name);
        continue;
      }
      const long edge = kLevels[l];
      for (long cell : {edge + 1, (edge / 2) * edge + edge / 2}) {
        const std::string why = oracleCell(*lane.stencil, brew_func_entry(f), lane.a[l], cell);
        if (!why.empty())
          out.fail("oracle: " + why + " (" + lane.stencil->name + " edge " +
                   std::to_string(edge) + " cell " + std::to_string(cell) + ")");
      }
      brew_release_h(f);
    }
  }
  for (auto [request, fn] : {std::pair{&pgas.read, pgas.readFn}, std::pair{&pgas.sum, pgas.sumFn},
                             std::pair{&pgas.fill, pgas.fillFn}}) {
    request->lo = request == &pgas.read ? pgas.cross.hi - 1 : pgas.sums[0].lo;
    request->hi = request == &pgas.read ? 0 : pgas.sums[0].lo + 64;
    const std::string why = oracle(*request, brew_func_entry(fn), subjects);
    if (!why.empty()) out.fail("oracle: " + why + " (" + request->describe() + ")");
  }

  const double cellRate = cellMeter.rate(false);
  out.detail("stencil_solve.rounds", static_cast<double>(rounds), "count");
  out.detail("stencil_solve.cell_updates_per_s", cellRate, "cells/s");
  out.detail("stencil_solve.pgas_elems_per_s",
             static_cast<double>(pgasElems) / toS(static_cast<double>(pgasTicks)), "elements/s");
  out.detail("stencil_solve.round_samples", static_cast<double>(roundUs.size()), "count");
  out.detail("stencil_solve.round_wall_p50_us", roundWallUs.median(), "us");
  out.detail("stencil_solve.round_wall_p99_us", roundWallUs.quantile(0.99), "us");
  addSetupDetails(out, configureS, setup);
  if (!ctx.trace) {
    addLatencyMetrics(out, configureS + setup.cpuMedian(), cellRate, roundUs.median(),
                      roundUs.quantile(0.99));
  } else {
    out.perLayer.push_back({"workload.trace_overhead_frac",
                            1.0 - cellMeter.rate(true) / cellMeter.rate(false), "fraction"});
    attribution.report(out);
    cache.report(out);
    out.spans.push_back(std::move(setupSpans));
    out.spans.push_back(std::move(loopSpans));
  }

  for (Lane& lane : lanes) brew_dispatch_free(lane.dispatch);
  pgas.release();
  return out;
}

}  // namespace bench
