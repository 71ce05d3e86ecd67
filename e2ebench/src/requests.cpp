#include "requests.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>

#include "emu/interpreter.hpp"

namespace bench {

namespace {

using brew::ArgValue;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t fnv(uint64_t h, const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}
template <typename T>
uint64_t fnvValue(uint64_t h, const T& v) {
  return fnv(h, &v, sizeof v);
}

uint64_t bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double coefficient(brew::Prng& rng) { return rng.uniform() * 2.0 - 1.0; }

using read_t = double (*)(const brew_pgas_view*, long);
using write_t = void (*)(const brew_pgas_view*, long, double);
using sum_t = double (*)(const brew_pgas_view*, long, long, brew_pgas_read_fn);
using fill_t = void (*)(const brew_pgas_view*, long, long, double,
                        brew_pgas_write_fn);
using gstencil_fn = double (*)(const double*, int, const brew_gstencil*);

const void* const kRemoteRead = reinterpret_cast<const void*>(&brew_pgas_remote_read);
const void* const kRemoteWrite = reinterpret_cast<const void*>(&brew_pgas_remote_write);

}  // namespace

bool sameBits(double a, double b) { return bits(a) == bits(b); }

const char* kindName(Kind kind) {
  switch (kind) {
    case Kind::Flat: return "flat";
    case Kind::Grouped: return "grouped";
    case Kind::PgasRead: return "pgas_read";
    case Kind::PgasWrite: return "pgas_write";
    case Kind::PgasSum: return "pgas_sum";
    case Kind::PgasFill: return "pgas_fill";
  }
  return "?";
}

// ---- subjects ---------------------------------------------------------------

Subjects::Subjects(uint64_t seed)
    : runtime_(brew::pgas::Runtime::Options{
          .ranks = kRanks, .myRank = 0, .elementsPerRank = kPerRank}) {
  brew::Prng rng(seed ^ 0x5b1ec75ULL);
  for (int r = 0; r < kRanks; ++r)
    for (long k = 0; k < kPerRank; ++k)
      runtime_.segment(r)[k] = coefficient(rng);
  for (long xs : kStrides) {
    std::vector<double> m(static_cast<size_t>(kRows * xs));
    for (double& v : m) v = coefficient(rng);
    matrices_.push_back(std::move(m));
  }
}

const double* Subjects::cell(long xs, long column) const {
  for (size_t i = 0; i < std::size(kStrides); ++i)
    if (kStrides[i] == xs)
      return matrices_[i].data() + (kRows / 2) * xs + column;
  return nullptr;
}

// ---- requests ---------------------------------------------------------------

const void* Request::fn() const {
  switch (kind) {
    case Kind::Flat: return reinterpret_cast<const void*>(&brew_stencil_apply);
    case Kind::Grouped:
      return reinterpret_cast<const void*>(&brew_stencil_apply_grouped);
    case Kind::PgasRead: return reinterpret_cast<const void*>(&brew_pgas_read);
    case Kind::PgasWrite: return reinterpret_cast<const void*>(&brew_pgas_write);
    case Kind::PgasSum: return reinterpret_cast<const void*>(&brew_pgas_sum_range);
    case Kind::PgasFill: return reinterpret_cast<const void*>(&brew_pgas_fill_range);
  }
  return nullptr;
}

uint64_t Request::digest() const {
  uint64_t h = kFnvOffset;
  h = fnvValue(h, static_cast<uint8_t>(kind));
  h = fnvValue(h, xs);
  h = fnvValue(h, column);
  h = fnvValue(h, lo);
  h = fnvValue(h, hi);
  h = fnvValue(h, bits(value));
  if (flat) h = fnv(h, flat.get(), sizeof *flat);
  if (grouped) h = fnv(h, grouped.get(), sizeof *grouped);
  if (view) {
    h = fnvValue(h, view->local_start);
    h = fnvValue(h, view->local_end);
    h = fnvValue(h, view->length);
  }
  return h;
}

std::string Request::describe() const {
  char buf[256];
  int n = std::snprintf(buf, sizeof buf, "%s digest=%016" PRIx64, kindName(kind),
                        digest());
  if (flat)
    n += std::snprintf(buf + n, sizeof buf - n, " xs=%ld points=%d", xs,
                       flat->ps);
  if (grouped)
    n += std::snprintf(buf + n, sizeof buf - n, " xs=%ld groups=%d", xs,
                       grouped->ng);
  if (view)
    std::snprintf(buf + n, sizeof buf - n, " view=[%ld,%ld) lo=%ld hi=%ld",
                  view->local_start, view->local_end, lo, hi);
  return buf;
}

Mix coldMix() {
  Mix m;
  const double w[kKinds] = {0.45, 0.20, 0.10, 0.05, 0.10, 0.10};
  std::memcpy(m.weight, w, sizeof w);
  return m;
}

Mix reuseMix() {
  Mix m;
  m.weight[static_cast<int>(Kind::Flat)] = 0.75;
  m.weight[static_cast<int>(Kind::PgasRead)] = 0.25;
  return m;
}

Request RequestGen::next() {
  double total = 0;
  for (double w : mix_.weight) total += w;
  double u = rng_.uniform() * total;
  for (int k = 0; k < kKinds; ++k) {
    if (u < mix_.weight[k]) return make(static_cast<Kind>(k));
    u -= mix_.weight[k];
  }
  return make(Kind::Flat);
}

void RequestGen::randomView(Request& r) {
  const int rank = static_cast<int>(rng_.below(Subjects::kRanks));
  const long base = Subjects::kPerRank * rank;
  const long len = 256 + static_cast<long>(rng_.below(Subjects::kPerRank - 256));
  const long start =
      base + static_cast<long>(rng_.below(Subjects::kPerRank - len + 1));
  r.view = std::make_unique<brew_pgas_view>(subjects_.runtime().view(rank));
  r.view->local_base += start - base;
  r.view->local_start = start;
  r.view->local_end = start + len;
}

Request RequestGen::make(Kind kind) {
  Request r;
  r.kind = kind;
  switch (kind) {
    case Kind::Flat: {
      r.xs = Subjects::kStrides[rng_.below(std::size(Subjects::kStrides))];
      r.column = 3 + static_cast<long>(rng_.below(r.xs - 7));
      r.flat = std::make_unique<brew_stencil>();
      // Distinct offsets within [-3, 3]^2: a partial shuffle of all 49.
      int offsets[49];
      for (int i = 0; i < 49; ++i) offsets[i] = i;
      const int points = static_cast<int>(rng_.range(3, 25));
      for (int i = 0; i < points; ++i) {
        const int j = i + static_cast<int>(rng_.below(49 - i));
        std::swap(offsets[i], offsets[j]);
        r.flat->p[i] = {coefficient(rng_), offsets[i] % 7 - 3, offsets[i] / 7 - 3};
      }
      r.flat->ps = points;
      break;
    }
    case Kind::Grouped: {
      r.xs = Subjects::kStrides[rng_.below(std::size(Subjects::kStrides))];
      r.column = 3 + static_cast<long>(rng_.below(r.xs - 7));
      r.grouped = std::make_unique<brew_gstencil>();
      r.grouped->ng = static_cast<int>(rng_.range(2, 8));
      for (int g = 0; g < r.grouped->ng; ++g) {
        brew_stencil_group& group = r.grouped->g[g];
        group.f = coefficient(rng_);
        group.np = static_cast<int>(rng_.range(1, 4));
        for (int i = 0; i < group.np; ++i)
          group.p[i] = {static_cast<int>(rng_.range(-3, 3)),
                        static_cast<int>(rng_.range(-3, 3))};
      }
      break;
    }
    case Kind::PgasRead:
    case Kind::PgasWrite: {
      randomView(r);
      const long length = r.view->length;
      if (rng_.below(8) == 0) {  // remote element: the kept transfer call
        do {
          r.lo = static_cast<long>(rng_.below(length));
        } while (r.lo >= r.view->local_start && r.lo < r.view->local_end);
      } else {
        r.lo = r.view->local_start +
               static_cast<long>(rng_.below(r.view->local_end - r.view->local_start));
      }
      r.value = coefficient(rng_);
      break;
    }
    case Kind::PgasSum:
    case Kind::PgasFill: {
      randomView(r);
      // Local ranges only: a loop-level rewrite that reaches its kept
      // remote-transfer call crashes (see knownDefects in layer_probe.cpp).
      const long n = rng_.range(8, 64);
      r.lo = r.view->local_start +
             static_cast<long>(rng_.below(r.view->local_end - r.view->local_start - n + 1));
      r.hi = r.lo + n;
      r.value = coefficient(rng_);
      break;
    }
  }
  return r;
}

// ---- confs ------------------------------------------------------------------

Confs::Confs() {
  for (int k = 0; k < kKinds; ++k) confs_[k] = brew_initConf();
  auto stencilConf = [](brew_conf* c, size_t pointee) {
    brew_setnpar(c, 3);
    brew_setpar(c, 2, BREW_KNOWN);
    brew_setpar_ptr(c, 3, pointee);
    brew_setret(c, BREW_RET_DOUBLE);
  };
  stencilConf(get(Kind::Flat), sizeof(brew_stencil));
  stencilConf(get(Kind::Grouped), sizeof(brew_gstencil));

  brew_conf* c = get(Kind::PgasRead);
  brew_setnpar(c, 2);
  brew_setpar_ptr(c, 1, sizeof(brew_pgas_view));
  brew_setret(c, BREW_RET_DOUBLE);
  brew_setfn(c, kRemoteRead, BREW_FN_NOINLINE | BREW_FN_PURE);

  c = get(Kind::PgasWrite);
  brew_setnpar(c, 3);
  brew_setpar_ptr(c, 1, sizeof(brew_pgas_view));
  brew_setpar_double(c, 3, BREW_UNKNOWN);
  brew_setret(c, BREW_RET_VOID);
  brew_setfn(c, kRemoteWrite, BREW_FN_NOINLINE);

  c = get(Kind::PgasSum);
  brew_setnpar(c, 4);
  brew_setpar_ptr(c, 1, sizeof(brew_pgas_view));
  brew_setpar(c, 4, BREW_KNOWN);
  brew_setret(c, BREW_RET_DOUBLE);
  brew_setfn(c, reinterpret_cast<const void*>(&brew_pgas_sum_range),
             BREW_FN_NOUNROLL);
  brew_setfn(c, kRemoteRead, BREW_FN_NOINLINE | BREW_FN_PURE);

  c = get(Kind::PgasFill);
  brew_setnpar(c, 5);
  brew_setpar_ptr(c, 1, sizeof(brew_pgas_view));
  brew_setpar_double(c, 4, BREW_UNKNOWN);
  brew_setpar(c, 5, BREW_KNOWN);
  brew_setret(c, BREW_RET_VOID);
  brew_setfn(c, reinterpret_cast<const void*>(&brew_pgas_fill_range),
             BREW_FN_NOUNROLL);
  brew_setfn(c, kRemoteWrite, BREW_FN_NOINLINE);
}

Confs::~Confs() {
  for (brew_conf* c : confs_) brew_freeConf(c);
}

brew::Config configFor(Kind kind) {
  using brew::FunctionOptions;
  using brew::ReturnKind;
  brew::Config c;
  const FunctionOptions keepPure{.inlineCalls = false, .pure = true};
  const FunctionOptions keep{.inlineCalls = false};
  const FunctionOptions noUnroll{.forceUnknownResults = true};
  switch (kind) {
    case Kind::Flat:
    case Kind::Grouped:
      c.setParamKnown(1);
      c.setParamKnownPtr(2, kind == Kind::Flat ? sizeof(brew_stencil)
                                               : sizeof(brew_gstencil));
      c.setReturnKind(ReturnKind::Float);
      break;
    case Kind::PgasRead:
      c.setParamKnownPtr(0, sizeof(brew_pgas_view));
      c.setReturnKind(ReturnKind::Float);
      c.setFunctionOptions(kRemoteRead, keepPure);
      break;
    case Kind::PgasWrite:
      c.setParamKnownPtr(0, sizeof(brew_pgas_view));
      c.setParamFloat(2);
      c.setReturnKind(ReturnKind::Void);
      c.setFunctionOptions(kRemoteWrite, keep);
      break;
    case Kind::PgasSum:
      c.setParamKnownPtr(0, sizeof(brew_pgas_view));
      c.setParamKnown(3);
      c.setReturnKind(ReturnKind::Float);
      c.setFunctionOptions(reinterpret_cast<const void*>(&brew_pgas_sum_range),
                           noUnroll);
      c.setFunctionOptions(kRemoteRead, keepPure);
      break;
    case Kind::PgasFill:
      c.setParamKnownPtr(0, sizeof(brew_pgas_view));
      c.setParamFloat(3);
      c.setParamKnown(4);
      c.setReturnKind(ReturnKind::Void);
      c.setFunctionOptions(reinterpret_cast<const void*>(&brew_pgas_fill_range),
                           noUnroll);
      c.setFunctionOptions(kRemoteWrite, keep);
      break;
  }
  return c;
}

std::vector<ArgValue> argsFor(const Request& r, const Subjects& s) {
  const auto ptr = [](const void* p) { return ArgValue::fromPtr(p); };
  const auto num = [](long v) { return ArgValue::fromInt(static_cast<uint64_t>(v)); };
  switch (r.kind) {
    case Kind::Flat: return {ptr(s.cell(r.xs, r.column)), num(r.xs), ptr(r.flat.get())};
    case Kind::Grouped:
      return {ptr(s.cell(r.xs, r.column)), num(r.xs), ptr(r.grouped.get())};
    case Kind::PgasRead: return {ptr(r.view.get()), num(r.lo)};
    case Kind::PgasWrite:
      return {ptr(r.view.get()), num(r.lo), ArgValue::fromDouble(r.value)};
    case Kind::PgasSum:
      return {ptr(r.view.get()), num(r.lo), num(r.hi),
              ptr(reinterpret_cast<const void*>(&brew_pgas_read))};
    case Kind::PgasFill:
      return {ptr(r.view.get()), num(r.lo), num(r.hi), ArgValue::fromDouble(r.value),
              ptr(reinterpret_cast<const void*>(&brew_pgas_write))};
  }
  return {};
}

brew_func* acquire(const Confs& confs, const Request& r, const Subjects& s) {
  brew_conf* c = confs.get(r.kind);
  const void* fn = r.fn();
  switch (r.kind) {
    case Kind::Flat:
      return brew_rewrite2(c, fn, s.cell(r.xs, r.column), r.xs, r.flat.get());
    case Kind::Grouped:
      return brew_rewrite2(c, fn, s.cell(r.xs, r.column), r.xs, r.grouped.get());
    case Kind::PgasRead: return brew_rewrite2(c, fn, r.view.get(), r.lo);
    case Kind::PgasWrite: return brew_rewrite2(c, fn, r.view.get(), r.lo, r.value);
    case Kind::PgasSum:
      return brew_rewrite2(c, fn, r.view.get(), r.lo, r.hi,
                           reinterpret_cast<const void*>(&brew_pgas_read));
    case Kind::PgasFill:
      return brew_rewrite2(c, fn, r.view.get(), r.lo, r.hi, r.value,
                           reinterpret_cast<const void*>(&brew_pgas_write));
  }
  return nullptr;
}

// ---- checks -----------------------------------------------------------------

double callEntry(const Request& r, void* entry, const Subjects& s) {
  if (r.kind == Kind::Flat)
    return reinterpret_cast<brew_stencil_fn>(entry)(s.cell(r.xs, r.column),
                                                    static_cast<int>(r.xs), r.flat.get());
  return reinterpret_cast<read_t>(entry)(r.view.get(), r.lo);
}

double callGeneric(const Request& r, const Subjects& s) {
  if (r.kind == Kind::Flat)
    return brew_stencil_apply(s.cell(r.xs, r.column), static_cast<int>(r.xs),
                              r.flat.get());
  return brew_pgas_read(r.view.get(), r.lo);
}

namespace {

bool filled(const Request& r, double value) {
  for (long i = r.lo; i < r.hi; ++i)
    if (!sameBits(brew_pgas_read(r.view.get(), i), value)) return false;
  return true;
}

}  // namespace

bool check(const Request& r, void* entry, Subjects& s) {
  const int xs = static_cast<int>(r.xs);
  switch (r.kind) {
    case Kind::Flat:
    case Kind::Grouped: {
      const double* cell = s.cell(r.xs, r.column);
      for (const double* m : {cell, cell - xs, cell + xs}) {
        const double got =
            r.kind == Kind::Flat
                ? reinterpret_cast<brew_stencil_fn>(entry)(m, xs, r.flat.get())
                : reinterpret_cast<gstencil_fn>(entry)(m, xs, r.grouped.get());
        const double want = r.kind == Kind::Flat
                                ? brew_stencil_apply(m, xs, r.flat.get())
                                : brew_stencil_apply_grouped(m, xs, r.grouped.get());
        if (!sameBits(got, want)) return false;
      }
      return true;
    }
    case Kind::PgasRead:
      return sameBits(reinterpret_cast<read_t>(entry)(r.view.get(), r.lo),
                      brew_pgas_read(r.view.get(), r.lo));
    case Kind::PgasWrite:
      reinterpret_cast<write_t>(entry)(r.view.get(), r.lo, r.value);
      return sameBits(brew_pgas_read(r.view.get(), r.lo), r.value);
    case Kind::PgasSum:
      return sameBits(
          reinterpret_cast<sum_t>(entry)(r.view.get(), r.lo, r.hi, &brew_pgas_read),
          brew_pgas_sum_range(r.view.get(), r.lo, r.hi, &brew_pgas_read));
    case Kind::PgasFill:
      reinterpret_cast<fill_t>(entry)(r.view.get(), r.lo, r.hi, r.value,
                                      &brew_pgas_write);
      return filled(r, r.value);
  }
  return false;
}

std::string oracle(const Request& r, void* entry, Subjects& s) {
  brew::emu::Interpreter interp;
  const auto u = [](const void* p) { return reinterpret_cast<uint64_t>(p); };
  const auto n = [](long v) { return static_cast<uint64_t>(v); };
  std::vector<uint64_t> ints;
  std::vector<double> fps;
  double generic = 0, native = 0;
  switch (r.kind) {
    case Kind::Flat:
    case Kind::Grouped: {
      const double* cell = s.cell(r.xs, r.column);
      const int xs = static_cast<int>(r.xs);
      if (r.kind == Kind::Flat) {
        generic = brew_stencil_apply(cell, xs, r.flat.get());
        native = reinterpret_cast<brew_stencil_fn>(entry)(cell, xs, r.flat.get());
        ints = {u(cell), n(r.xs), u(r.flat.get())};
      } else {
        generic = brew_stencil_apply_grouped(cell, xs, r.grouped.get());
        native = reinterpret_cast<gstencil_fn>(entry)(cell, xs, r.grouped.get());
        ints = {u(cell), n(r.xs), u(r.grouped.get())};
      }
      break;
    }
    case Kind::PgasRead:
      generic = brew_pgas_read(r.view.get(), r.lo);
      native = reinterpret_cast<read_t>(entry)(r.view.get(), r.lo);
      ints = {u(r.view.get()), n(r.lo)};
      break;
    case Kind::PgasSum:
      generic = brew_pgas_sum_range(r.view.get(), r.lo, r.hi, &brew_pgas_read);
      native = reinterpret_cast<sum_t>(entry)(r.view.get(), r.lo, r.hi, &brew_pgas_read);
      ints = {u(r.view.get()), n(r.lo), n(r.hi),
              u(reinterpret_cast<const void*>(&brew_pgas_read))};
      break;
    case Kind::PgasWrite:
    case Kind::PgasFill: {
      // Each path stores its own value; each must read back as stored.
      const double v1 = r.value, v2 = r.value + 1.0, v3 = r.value + 2.0;
      Request probe;  // same view and range, checked through the generic reader
      probe.kind = r.kind;
      probe.lo = r.lo;
      probe.hi = r.kind == Kind::PgasWrite ? r.lo + 1 : r.hi;
      probe.view = std::make_unique<brew_pgas_view>(*r.view);
      if (r.kind == Kind::PgasWrite) {
        brew_pgas_write(r.view.get(), r.lo, v1);
      } else {
        brew_pgas_fill_range(r.view.get(), r.lo, r.hi, v1, &brew_pgas_write);
      }
      if (!filled(probe, v1)) return "generic store did not read back";
      if (r.kind == Kind::PgasWrite) {
        reinterpret_cast<write_t>(entry)(r.view.get(), r.lo, v2);
        ints = {u(r.view.get()), n(r.lo)};
      } else {
        reinterpret_cast<fill_t>(entry)(r.view.get(), r.lo, r.hi, v2, &brew_pgas_write);
        ints = {u(r.view.get()), n(r.lo), n(r.hi),
                u(reinterpret_cast<const void*>(&brew_pgas_write))};
      }
      if (!filled(probe, v2)) return "rewritten native store differs from generic";
      fps = {v3};
      auto ran = interp.call(u(entry), ints, fps);
      if (!ran.ok()) return "interpreter: " + ran.error().message();
      if (!filled(probe, v3)) return "interpreted rewritten store differs";
      return {};
    }
  }
  auto ran = interp.call(u(entry), ints, fps);
  if (!ran.ok()) return "interpreter: " + ran.error().message();
  if (!sameBits(generic, native)) return "rewritten native differs from generic";
  if (!sameBits(generic, ran->fpResult()))
    return "interpreted rewritten entry differs from generic";
  return {};
}

}  // namespace bench
