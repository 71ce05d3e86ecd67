#include "core/config.hpp"

#include <algorithm>
#include <cstring>

namespace brew {

ArgValue ArgValue::fromDouble(double d) {
  ArgValue v;
  std::memcpy(&v.bits, &d, 8);
  v.isFloat = true;
  return v;
}

Config& Config::setParamKnown(size_t index, bool isFloat) {
  if (index < kMaxParams) {
    params_[index].kind = ParamKind::Known;
    params_[index].isFloat = isFloat;
    declaredParams_ = std::max(declaredParams_, index + 1);
  }
  return *this;
}

Config& Config::setParamKnownPtr(size_t index, size_t pointeeSize) {
  if (index < kMaxParams) {
    params_[index].kind = ParamKind::KnownPtr;
    params_[index].isFloat = false;
    params_[index].pointeeSize = pointeeSize;
    declaredParams_ = std::max(declaredParams_, index + 1);
  }
  return *this;
}

Config& Config::setParamFloat(size_t index) {
  if (index < kMaxParams) {
    params_[index].isFloat = true;
    declaredParams_ = std::max(declaredParams_, index + 1);
  }
  return *this;
}

Config& Config::addKnownRegion(const void* start, size_t bytes) {
  const auto addr = reinterpret_cast<uint64_t>(start);
  knownRegions_.push_back(MemRegion{addr, addr + bytes});
  return *this;
}

bool Config::isKnownRegion(uint64_t addr, size_t bytes) const {
  return std::any_of(knownRegions_.begin(), knownRegions_.end(),
                     [&](const MemRegion& r) { return r.contains(addr, bytes); });
}

Config& Config::setFunctionOptions(const void* fn, FunctionOptions options) {
  perFunction_[reinterpret_cast<uint64_t>(fn)] = options;
  return *this;
}

FunctionOptions Config::functionOptions(uint64_t fn) const {
  auto it = perFunction_.find(fn);
  return it != perFunction_.end() ? it->second : defaults_;
}

namespace {

uint64_t mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t functionOptionBits(const FunctionOptions& options) {
  return static_cast<uint64_t>(options.inlineCalls) |
         static_cast<uint64_t>(options.forceUnknownResults) << 1 |
         static_cast<uint64_t>(options.pure) << 2;
}

}  // namespace

uint64_t Config::fingerprint() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, declaredParams_);
  for (const ParamSpec& spec : params_) {
    h = mix(h, static_cast<uint64_t>(spec.kind) << 1 |
                   static_cast<uint64_t>(spec.isFloat));
    h = mix(h, spec.pointeeSize);
  }
  for (const MemRegion& region : knownRegions_) {
    h = mix(h, region.start);
    h = mix(h, region.end);
  }
  // perFunction_ is an ordered map, so iteration (and the digest) is
  // deterministic for a given option set.
  for (const auto& [address, options] : perFunction_) {
    h = mix(h, address);
    h = mix(h, functionOptionBits(options));
  }
  h = mix(h, functionOptionBits(defaults_));
  h = mix(h, static_cast<uint64_t>(returnKind_) << 4 |
                 static_cast<uint64_t>(chainBlocks_) << 1 |
                 static_cast<uint64_t>(reconvergeJoins_) << 2 |
                 static_cast<uint64_t>(sideExitFallback_) << 3);
  h = mix(h, limits_.maxTraceSteps);
  h = mix(h, limits_.maxCodeBytes);
  h = mix(h, limits_.maxBlocks);
  h = mix(h, static_cast<uint64_t>(limits_.maxVariantsPerAddress));
  h = mix(h, static_cast<uint64_t>(limits_.maxInlineDepth));
  h = mix(h, static_cast<uint64_t>(limits_.maxForkDepth));
  h = mix(h, reinterpret_cast<uint64_t>(injection_.onEntry));
  h = mix(h, reinterpret_cast<uint64_t>(injection_.onExit));
  h = mix(h, reinterpret_cast<uint64_t>(injection_.onLoad));
  h = mix(h, reinterpret_cast<uint64_t>(injection_.onStore));
  return h;
}

}  // namespace brew
