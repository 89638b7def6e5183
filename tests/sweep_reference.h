// The original one-pass sweep and suspicion-age digest, kept as the
// executable specification of the split collector (§2.2.2): the sweep
// reads every object's masks and reclaims in one id-ordered heap pass, and
// the digest walks every classified object.  Both cost a pass over the
// live heap in the serial phase, so they live in the test tree only;
// sweep_diff_test checks gc::Lgc::collect (mark + scan + apply) and
// gc::SuspicionAgeTracker against them.
#pragma once

#include <cstdint>
#include <map>

#include "gc/lgc/lgc.h"
#include "rm/process.h"

namespace rgc::gc {

/// One collection: Lgc::mark, then the original single heap pass that
/// builds object_reach and unrooted and sweeps in the same walk, then the
/// stub-set regeneration, metrics and recording of Lgc::apply.
[[nodiscard]] LgcResult collect_reference(rm::Process& process,
                                          const LgcConfig& config = {});

/// The original suspicion-age digest over every classified object.
class SuspicionAgesReference {
 public:
  void after_collection(const rm::Process& process, const LgcResult& result);
  [[nodiscard]] std::uint32_t age(ObjectId obj) const;
  [[nodiscard]] const std::map<ObjectId, std::uint32_t>& ages() const {
    return ages_;
  }

 private:
  std::map<ObjectId, std::uint32_t> ages_;
};

}  // namespace rgc::gc
