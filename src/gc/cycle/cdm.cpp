#include "gc/cycle/cdm.h"

#include <algorithm>
#include <sstream>

namespace rgc::gc {

std::string to_string(const Element& e) {
  if (e.tag == Element::Kind::kReplica) return rgc::to_string(e.replica);
  return rgc::to_string(e.holder) + "->" + rgc::to_string(e.replica);
}

namespace {

using Edge = std::pair<Element, Element>;

/// Adds to `closure` everything the sorted `edges` reach from `from`,
/// `root` excluded (it is the closure's seed, not a member).
void reach(const std::vector<Edge>& edges, const Element& root,
           const Element& from, util::FlatSet<Element>& closure) {
  std::vector<Element> work{from};
  while (!work.empty()) {
    const Element cur = work.back();
    work.pop_back();
    auto it = std::lower_bound(
        edges.begin(), edges.end(), cur,
        [](const Edge& edge, const Element& e) { return edge.first < e; });
    for (; it != edges.end() && it->first == cur; ++it) {
      if (it->second != root && closure.insert(it->second)) {
        work.push_back(it->second);
      }
    }
  }
}

}  // namespace

bool Cdm::observe(Observation obs) {
  auto it = std::lower_bound(
      observed_.begin(), observed_.end(), obs.link,
      [](const Observation& o, const auto& link) { return o.link < link; });
  if (it != observed_.end() && it->link == obs.link) {
    if (it->counter != obs.counter) return false;
  } else {
    observed_.insert(it, obs);
  }
  observations_.push_back(std::move(obs));
  return true;
}

void Cdm::require(const Element& from, const Element& on, bool prop) {
  (prop ? prop_deps : ref_deps).insert(on);
  const Edge edge{from, on};
  auto it = std::lower_bound(dep_edges_.begin(), dep_edges_.end(), edge);
  if (it != dep_edges_.end() && *it == edge) return;
  dep_edges_.insert(it, edge);
  const Element root = Element::make(candidate);
  if (candidate != closure_root_) {
    closure_root_ = candidate;
    closure_.clear();
    reach(dep_edges_, root, root, closure_);
  } else if ((from == root || closure_.contains(from)) && on != root &&
             closure_.insert(on)) {
    reach(dep_edges_, root, on, closure_);
  }
}

util::FlatSet<Element> Cdm::required_closure() const {
  const Element root = Element::make(candidate);
  util::FlatSet<Element> closure;
  if (candidate == closure_root_) {
    closure = closure_;
  } else {
    reach(dep_edges_, root, root, closure);
  }
  closure.insert(root);
  return closure;
}

util::FlatSet<Element> Cdm::unresolved() const {
  return required_closure().difference(targets);
}

bool Cdm::cycle_complete() const {
  if (!targets.contains(Element::make(candidate))) return false;
  if (candidate != closure_root_) return unresolved().empty();
  return closure_.subset_of(targets);
}

util::FlatSet<Element> Cdm::flat_unresolved() const {
  util::FlatSet<Element> u = prop_deps.difference(targets);
  u.merge(ref_deps.difference(targets));
  return u;
}

std::string Cdm::to_string() const {
  std::ostringstream os;
  auto emit = [&os](const util::FlatSet<Element>& set) {
    os << "{";
    bool first = true;
    for (const Element& e : set) {
      if (!first) os << ", ";
      first = false;
      os << gc::to_string(e);
    }
    os << "}";
  };
  os << "{ ";
  emit(prop_deps);
  os << ", ";
  emit(ref_deps);
  os << " } -> ";
  emit(targets);
  return os.str();
}

}  // namespace rgc::gc
