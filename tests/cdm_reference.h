// The original CDM algebra, kept as the executable specification of
// gc::Cdm's indexed one (§3.3): observations found by a linear scan,
// attribution edges deduplicated by a linear scan and kept in arrival
// order, and the candidate's requirement closure rebuilt from scratch by
// rescanning every edge for every element.  O(closure × edges) per
// verdict check, so it lives in the test tree only; cdm_diff_test checks
// the indexed algebra against it.
#pragma once

#include <utility>
#include <vector>

#include "gc/cycle/cdm.h"

namespace rgc::gc {

struct CdmReference {
  Replica candidate;
  util::FlatSet<Element> prop_deps;
  util::FlatSet<Element> ref_deps;
  util::FlatSet<Element> targets;
  std::vector<std::pair<Element, Element>> dep_edges;
  std::vector<Observation> observations;

  /// The wire sections of `cdm` (edges in its order).
  [[nodiscard]] static CdmReference from(const Cdm& cdm);

  bool observe(Observation obs);
  void require(const Element& from, const Element& on, bool prop);
  [[nodiscard]] util::FlatSet<Element> required_closure() const;
  [[nodiscard]] util::FlatSet<Element> unresolved() const;
  [[nodiscard]] bool cycle_complete() const { return unresolved().empty(); }
  [[nodiscard]] util::FlatSet<Element> flat_unresolved() const;
  [[nodiscard]] bool flat_complete() const { return flat_unresolved().empty(); }

  /// CdmMsg::weight() of a message carrying these sections plus
  /// `pending_refs` continuations.
  [[nodiscard]] std::size_t weight(std::size_t pending_refs = 0) const;
};

/// The original CycleDetector::make_cut over the reference's observations,
/// aimed at `member` (one replica of the verdict's closure) instead of the
/// candidate: every observed scion IC into it and inProp UC toward it.
[[nodiscard]] CutMsg make_cut_reference(const CdmReference& cdm,
                                        std::uint64_t detection_id,
                                        const Replica& member);

}  // namespace rgc::gc
