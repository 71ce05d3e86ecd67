#include "core/autospec.hpp"

#include <algorithm>

#include "core/spec_manager.hpp"
#include "jit/assembler.hpp"
#include "support/log.hpp"
#include "support/perf_map.hpp"

namespace brew {

using isa::makeInstr;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

extern "C" void brewAutospecHook(uint64_t value, AutoSpecializer* self);

// Bounce used by the generated sampler; keeps the C++ method out of the
// ABI-sensitive path.
struct AutoSpecializerHook {
  static void record(uint64_t value, AutoSpecializer* self) {
    self->recordSample(value);
  }
};

extern "C" void brewAutospecHook(uint64_t value, AutoSpecializer* self) {
  AutoSpecializerHook::record(value, self);
}

namespace {

// Builds the sampling proxy: preserve the argument state, report the
// profiled register's value to the hook, restore, tail-jump to the target.
Result<ExecMemory> buildSampler(const void* target, Reg profiledArg,
                                AutoSpecializer* self) {
  jit::Assembler as;
  emitPreservedHookCall(as, profiledArg, self,
                        reinterpret_cast<const void*>(&brewAutospecHook),
                        /*stageResult=*/false);
  as.jmpAbs(reinterpret_cast<uint64_t>(target));
  return as.finalizeExecutable();
}

}  // namespace

AutoSpecializer::AutoSpecializer(const void* fn, size_t paramIndex,
                                 std::vector<ArgValue> prototypeArgs,
                                 Config config, Options options)
    : fn_(fn),
      paramIndex_(paramIndex),
      prototypeArgs_(std::move(prototypeArgs)),
      config_(std::move(config)),
      options_(options) {
  for (size_t i = 0; i < paramIndex_ && i < prototypeArgs_.size(); ++i)
    if (!prototypeArgs_[i].isFloat) ++intIndex_;

  auto sampler = buildSampler(fn_, isa::abi::kIntArgs[intIndex_], this);
  if (sampler.ok()) {
    samplerCode_ = std::move(*sampler);
    entrySlot_ = const_cast<uint8_t*>(samplerCode_.data());
    registerGeneratedCode(samplerCode_.data(), samplerCode_.size(), fn_,
                          reinterpret_cast<uint64_t>(fn_), "sampler");
  } else {
    entrySlot_ = const_cast<void*>(fn_);  // degrade to a plain forwarder
  }
  // The stable entry: an indirect jump through a writable pointer cell, so
  // upgrading from sampler to dispatcher is a single pointer store (shared
  // with SpecManager's async publication, spec_manager.cpp).
  auto stub = buildEntrySlotStub(&entrySlot_);
  if (stub.ok()) {
    entryStub_ = std::make_unique<ExecMemory>(std::move(*stub));
    registerGeneratedCode(entryStub_->data(), entryStub_->size(), fn_,
                          reinterpret_cast<uint64_t>(fn_), "entry");
  }
}

AutoSpecializer::~AutoSpecializer() = default;

void* AutoSpecializer::entry() const {
  if (entryStub_) return const_cast<uint8_t*>(entryStub_->data());
  return const_cast<void*>(fn_);
}

size_t AutoSpecializer::observedCalls() const {
  return static_cast<size_t>(calls_);
}

void AutoSpecializer::recordSample(uint64_t value) {
  if (specialized_) return;
  ++counts_[value];
  if (++calls_ >= options_.sampleCalls) finalize();
}

void AutoSpecializer::finalize() {
  if (specialized_) return;
  specialized_ = true;

  // Hot values by share.
  std::vector<std::pair<uint64_t, uint64_t>> byCount(counts_.begin(),
                                                     counts_.end());
  std::sort(byCount.begin(), byCount.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<uint64_t> hot;
  for (const auto& [value, count] : byCount) {
    if (hot.size() >= options_.maxVariants) break;
    if (calls_ == 0 ||
        static_cast<double>(count) / static_cast<double>(calls_) <
            options_.minShare)
      break;
    hot.push_back(value);
  }
  if (hot.empty()) {
    entrySlot_ = const_cast<void*>(fn_);  // stop sampling, plain dispatch
    return;
  }

  // Hand the profile to a multi-version dispatcher: the hot values become
  // the seed variant set (compiled through the process specialization
  // cache, so repeated profiles converging on the same values share one
  // traced rewrite), and the inline-cache stub keeps promoting/demoting as
  // the distribution shifts after sampling ends.
  SpecManager& manager = SpecManager::process();
  DispatchOptions dopt = manager.options().dispatch;
  dopt.maxVariants = options_.maxVariants;
  dispatcher_ = std::make_unique<VariantDispatcher>(
      manager, fn_, paramIndex_, prototypeArgs_, config_, dopt);
  if (!dispatcher_->valid()) {
    BREW_LOG_INFO("autospec of %p: dispatch stub failed, keeping original",
                  fn_);
    dispatcher_.reset();
    entrySlot_ = const_cast<void*>(fn_);
    return;
  }
  dispatcher_->seedHot(hot, calls_);
  entrySlot_ = dispatcher_->entry();
  BREW_LOG_INFO("autospec of %p: %zu variants after %zu samples", fn_,
                dispatcher_->variantCount(), static_cast<size_t>(calls_));
}

}  // namespace brew
