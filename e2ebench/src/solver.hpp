// The stencil solver's pieces: the four stencils of the paper's application
// (5-point, 9-point box, 13-point radius-2 star, grouped 5-point), the
// multigrid level sizes, padded grids and one Jacobi sweep through a cell
// function of the generic library signature.
#pragma once

#include <cstdint>
#include <vector>

#include "core/brew.h"
#include "stencil/stencil.h"
#include "stencil/stencil.hpp"
#include "support/prng.hpp"

namespace bench {

// Grid edge lengths (row stride = edge): the paper's 500^2 and three
// coarser multigrid levels.
constexpr int kLevels[] = {500, 250, 125, 62};
constexpr int kLevelCount = 4;

struct SolverStencil {
  const char* name = nullptr;
  bool grouped = false;
  brew_stencil flat{};
  brew_gstencil group{};
  const void* generic() const {
    return grouped ? reinterpret_cast<const void*>(&brew_stencil_apply_grouped)
                   : reinterpret_cast<const void*>(&brew_stencil_apply);
  }
  const void* data() const {
    return grouped ? static_cast<const void*>(&group) : static_cast<const void*>(&flat);
  }
};

inline std::vector<SolverStencil> solverStencils() {
  std::vector<SolverStencil> out(4);
  out[0].name = "5pt";
  out[0].flat = brew::stencil::fivePoint();
  out[1].name = "9pt";
  out[1].flat = brew::stencil::ninePoint();
  // Radius-2 star: every offset with |dx| + |dy| <= 2.
  out[2].name = "13pt";
  int n = 0;
  for (int dy = -2; dy <= 2; ++dy)
    for (int dx = -2; dx <= 2; ++dx)
      if ((dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy) <= 2)
        out[2].flat.p[n++] = {(dx == 0 && dy == 0) ? -1.0 : 1.0 / 12.0, dx, dy};
  out[2].flat.ps = n;
  out[3].name = "grouped5";
  out[3].grouped = true;
  out[3].group = brew::stencil::fivePointGrouped();
  return out;
}

// An edge x edge matrix with two padding rows above and below, so a
// radius-2 stencil on the outermost swept rows stays inside the buffer.
class Grid {
 public:
  explicit Grid(int edge)
      : edge_(edge), values_(static_cast<size_t>(edge) * (edge + 4), 0.0) {}
  double* data() { return values_.data() + 2 * edge_; }
  const double* data() const { return values_.data() + 2 * edge_; }
  int edge() const { return edge_; }
  // Cells one sweep updates (the interior).
  uint64_t cells() const { return static_cast<uint64_t>(edge_ - 2) * (edge_ - 2); }
  std::vector<double>& raw() { return values_; }
  const std::vector<double>& raw() const { return values_; }
  void fill(brew::Prng& rng) {
    for (double& v : values_) v = rng.uniform() * 2.0 - 1.0;
  }

 private:
  int edge_;
  std::vector<double> values_;
};

// One Jacobi sweep dst <- src, calling `fn` (generic library signature)
// once per interior cell.
inline void sweep(const SolverStencil& s, const void* fn, Grid& dst, const Grid& src) {
  const int e = dst.edge();
  if (s.grouped)
    brew_stencil_sweep_grouped(dst.data(), src.data(), e, e,
                               reinterpret_cast<brew_gstencil_fn>(const_cast<void*>(fn)),
                               &s.group);
  else
    brew_stencil_sweep(dst.data(), src.data(), e, e,
                       reinterpret_cast<brew_stencil_fn>(const_cast<void*>(fn)), &s.flat);
}

// brew_rewrite2 of a solver stencil for row stride `edge` (conf shape of
// Kind::Flat / Kind::Grouped: xs known, stencil pointee known).
inline brew_func* acquireSolverKernel(brew_conf* conf, const SolverStencil& s,
                                      const Grid& g) {
  return brew_rewrite2(conf, s.generic(), g.data() + g.edge() + 1,
                       static_cast<long>(g.edge()), s.data());
}

// A dispatcher over the stencil keyed on xs (parameter 2).
inline brew_dispatch* dispatchSolverKernel(brew_conf* conf, const SolverStencil& s,
                                           const Grid& g) {
  return brew_dispatch_create(conf, s.generic(), 2, g.data() + g.edge() + 1,
                              static_cast<long>(g.edge()), s.data());
}

}  // namespace bench
