// Seeded specialization requests over the two subject libraries (stencil
// and PGAS), the brew_conf shapes they are rewritten with, and the checks
// that compare a rewritten entry with the generic library function.
//
// BREW sees only what a request carries: the subject function, its conf
// and the argument values passed to brew_rewrite2.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/brew.h"
#include "core/config.hpp"
#include "pgas/pgas.h"
#include "pgas/runtime.hpp"
#include "stencil/stencil.h"
#include "support/prng.hpp"

namespace bench {

enum class Kind : uint8_t {
  Flat,       // brew_stencil_apply, xs known, 520-byte stencil known
  Grouped,    // brew_stencil_apply_grouped, xs known, gstencil known
  PgasRead,   // brew_pgas_read, 40-byte view known
  PgasWrite,  // brew_pgas_write, view known
  PgasSum,    // brew_pgas_sum_range with the accessor inlined (loop level)
  PgasFill,   // brew_pgas_fill_range with the writer inlined (loop level)
};
constexpr int kKinds = 6;
const char* kindName(Kind kind);

// Read-only inputs shared by every request: the PGAS runtime (4 ranks of
// 8192 doubles, cache resident) and padded stencil test matrices, one per
// row stride in kStrides.
class Subjects {
 public:
  static constexpr long kStrides[] = {64, 128, 256, 512};
  static constexpr int kRows = 16;      // test rows per stride
  static constexpr long kPerRank = 8192;
  static constexpr int kRanks = 4;

  explicit Subjects(uint64_t seed);
  brew::pgas::Runtime& runtime() { return runtime_; }
  // Cell `column` of the middle test row for stride `xs` (column in
  // [3, xs-4] keeps a radius-3 stencil inside the matrix).
  const double* cell(long xs, long column) const;

 private:
  brew::pgas::Runtime runtime_;
  std::vector<std::vector<double>> matrices_;
};

struct Request {
  Kind kind = Kind::Flat;
  long xs = 0;                 // Flat/Grouped: known row stride
  long column = 0;             // Flat/Grouped: test cell
  long lo = 0, hi = 0;         // PGAS: element index (lo) or range
  double value = 0;            // PgasWrite/PgasFill: stored value
  std::unique_ptr<brew_stencil> flat;
  std::unique_ptr<brew_gstencil> grouped;
  std::unique_ptr<brew_pgas_view> view;

  const void* fn() const;
  // Digest of everything the request carries except addresses; equal
  // seeds give equal digests.
  uint64_t digest() const;
  std::string describe() const;
};

// Relative weights of the request kinds a generator draws.
struct Mix {
  double weight[kKinds] = {};
};
Mix coldMix();   // every kind
Mix reuseMix();  // Flat 3/4, PgasRead 1/4

class RequestGen {
 public:
  RequestGen(uint64_t seed, Mix mix, Subjects& subjects)
      : rng_(seed), mix_(mix), subjects_(subjects) {}
  Request next();
  Request make(Kind kind);

 private:
  void randomView(Request& r);

  brew::Prng rng_;
  Mix mix_;
  Subjects& subjects_;
};

// One brew_conf per kind, built once through the public C API.
class Confs {
 public:
  Confs();
  ~Confs();
  Confs(const Confs&) = delete;
  Confs& operator=(const Confs&) = delete;
  brew_conf* get(Kind kind) const { return confs_[static_cast<int>(kind)]; }

 private:
  brew_conf* confs_[kKinds] = {};
};

// The C++ Config each conf above builds, for replaying a request stage by
// stage (must stay in step with Confs; the layer probe checks that the
// replayed cache key finds the entry brew_rewrite2 inserted).
brew::Config configFor(Kind kind);
std::vector<brew::ArgValue> argsFor(const Request& r, const Subjects& s);

// brew_rewrite2 with the request's arguments. NULL on failure.
brew_func* acquire(const Confs& confs, const Request& r, const Subjects& s);

// Calls `entry` on the request's inputs and the generic library function
// on the same inputs; true when both agree bit for bit. Writes (PgasWrite,
// PgasFill) are checked by reading back through the generic accessor.
// Remote PGAS paths are exercised, so this is not thread-safe.
bool check(const Request& r, void* entry, Subjects& s);

// Read-only single call for the multi-client reuse path (Flat / PgasRead,
// local index only): the entry's result, and the generic result.
double callEntry(const Request& r, void* entry, const Subjects& s);
double callGeneric(const Request& r, const Subjects& s);

// Three-way oracle: generic native vs rewritten native vs emu::Interpreter
// running the rewritten entry. Empty string when all three agree,
// otherwise what differed.
std::string oracle(const Request& r, void* entry, Subjects& s);

// Bit equality of doubles (the rewrites are bit-exact by design).
bool sameBits(double a, double b);

}  // namespace bench
