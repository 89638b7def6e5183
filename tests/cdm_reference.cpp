#include "cdm_reference.h"

#include <algorithm>

namespace rgc::gc {

CdmReference CdmReference::from(const Cdm& cdm) {
  CdmReference ref;
  ref.candidate = cdm.candidate;
  ref.prop_deps = cdm.prop_deps;
  ref.ref_deps = cdm.ref_deps;
  ref.targets = cdm.targets;
  ref.dep_edges = cdm.dep_edges();
  ref.observations = cdm.observations();
  return ref;
}

bool CdmReference::observe(Observation obs) {
  for (const Observation& prev : observations) {
    if (prev.link == obs.link && prev.counter != obs.counter) return false;
  }
  observations.push_back(std::move(obs));
  return true;
}

void CdmReference::require(const Element& from, const Element& on, bool prop) {
  (prop ? prop_deps : ref_deps).insert(on);
  const std::pair<Element, Element> edge{from, on};
  if (std::find(dep_edges.begin(), dep_edges.end(), edge) == dep_edges.end()) {
    dep_edges.push_back(edge);
  }
}

util::FlatSet<Element> CdmReference::required_closure() const {
  util::FlatSet<Element> closure;
  std::vector<Element> work{Element::make(candidate)};
  closure.insert(work.front());
  while (!work.empty()) {
    const Element cur = work.back();
    work.pop_back();
    for (const auto& [from, on] : dep_edges) {
      if (from == cur && closure.insert(on)) work.push_back(on);
    }
  }
  return closure;
}

util::FlatSet<Element> CdmReference::unresolved() const {
  return required_closure().difference(targets);
}

util::FlatSet<Element> CdmReference::flat_unresolved() const {
  util::FlatSet<Element> u = prop_deps.difference(targets);
  u.merge(ref_deps.difference(targets));
  return u;
}

std::size_t CdmReference::weight(std::size_t pending_refs) const {
  return 1 + prop_deps.size() + ref_deps.size() + targets.size() +
         observations.size() + pending_refs + dep_edges.size();
}

CutMsg make_cut_reference(const CdmReference& cdm, std::uint64_t detection_id,
                          const Replica& member) {
  CutMsg cut;
  cut.candidate = member.object;
  cut.detection_id = detection_id;
  for (const Observation& obs : cdm.observations) {
    // The same link is legitimately observed at both of its ends (with, by
    // construction of a completed detection, equal counters) — dedupe.
    if (const auto* ref = std::get_if<RefLink>(&obs.link)) {
      if (ref->target == member.object &&
          ref->target_process == member.process) {
        const std::pair<rm::ScionKey, std::uint64_t> entry{
            rm::ScionKey{ref->holder, ref->target}, obs.counter};
        if (std::find(cut.scion_cuts.begin(), cut.scion_cuts.end(), entry) ==
            cut.scion_cuts.end()) {
          cut.scion_cuts.push_back(entry);
        }
      }
    } else if (const auto* prop = std::get_if<PropLink>(&obs.link)) {
      if (prop->object == member.object && prop->child == member.process) {
        const std::pair<ProcessId, std::uint64_t> entry{prop->parent,
                                                        obs.counter};
        if (std::find(cut.prop_cuts.begin(), cut.prop_cuts.end(), entry) ==
            cut.prop_cuts.end()) {
          cut.prop_cuts.push_back(entry);
        }
      }
    }
  }
  return cut;
}

}  // namespace rgc::gc
