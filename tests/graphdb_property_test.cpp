// Property-based tests over the graph-database API: random vertex/edge
// churn with cache refreshes, checked against the oracle and against an
// application-level shadow model.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/oracle.h"
#include "graphdb/graphdb.h"
#include "util/rng.h"

namespace rgc::graphdb {
namespace {

struct Shadow {
  // What the application believes: registered vertices and their edges.
  std::set<VertexId> registered;
  std::map<VertexId, std::set<VertexId>> edges;

  void remove_vertex(VertexId v) { registered.erase(v); }

  /// Application-reachable vertices: registered ones plus everything their
  /// edges lead to (deleted-but-referenced vertices stay usable — the
  /// referential-integrity promise).
  [[nodiscard]] std::set<VertexId> reachable() const {
    std::set<VertexId> out;
    std::vector<VertexId> work(registered.begin(), registered.end());
    out.insert(registered.begin(), registered.end());
    while (!work.empty()) {
      const VertexId v = work.back();
      work.pop_back();
      auto it = edges.find(v);
      if (it == edges.end()) continue;
      for (VertexId next : it->second) {
        if (out.insert(next).second) work.push_back(next);
      }
    }
    return out;
  }
};

struct FuzzCase {
  std::uint64_t seed;
  std::size_t shards;
  int ops;
};

class GraphDbFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(GraphDbFuzz, ShadowModelAgreesAndGcIsSafeAndComplete) {
  const FuzzCase param = GetParam();
  GraphStoreConfig cfg;
  cfg.shards = param.shards;
  cfg.background_gc = false;
  cfg.cluster.net.seed = param.seed;
  GraphStore db{cfg};
  Shadow shadow;
  util::Rng rng{param.seed * 31 + 5};
  std::vector<VertexId> pool;  // every vertex ever created

  for (int op = 0; op < param.ops; ++op) {
    const auto roll = rng.below(100);
    if (roll < 30 || pool.empty()) {
      const VertexId v =
          db.add_vertex(std::string("v").append(std::to_string(op)));
      pool.push_back(v);
      shadow.registered.insert(v);
    } else if (roll < 55) {
      // add edge between two application-reachable vertices
      const auto reach = shadow.reachable();
      if (reach.size() < 2) continue;
      auto pick = [&](std::uint64_t n) {
        auto it = reach.begin();
        std::advance(it, static_cast<long>(n % reach.size()));
        return *it;
      };
      const VertexId from = pick(rng.next());
      const VertexId to = pick(rng.next());
      if (from == to) continue;
      if (!db.vertex_exists(from)) continue;
      db.add_edge(from, to);
      shadow.edges[from].insert(to);
    } else if (roll < 70) {
      // remove an edge the shadow knows about
      if (shadow.edges.empty()) continue;
      auto it = shadow.edges.begin();
      std::advance(it, static_cast<long>(rng.below(shadow.edges.size())));
      if (it->second.empty()) continue;
      const VertexId from = it->first;
      const VertexId to = *it->second.begin();
      if (!db.vertex_exists(from)) continue;
      db.remove_edge(from, to);
      it->second.erase(to);
    } else if (roll < 85) {
      // delete a registered vertex
      if (shadow.registered.empty()) continue;
      auto it = shadow.registered.begin();
      std::advance(it,
                   static_cast<long>(rng.below(shadow.registered.size())));
      const VertexId v = *it;
      db.remove_vertex(v);
      shadow.remove_vertex(v);
    } else if (roll < 92) {
      db.refresh_caches();
    } else {
      db.run_gc();
      // Safety after every collection: everything the application can
      // still reach must exist, with its label intact.
      for (VertexId v : shadow.reachable()) {
        ASSERT_TRUE(db.vertex_exists(v))
            << "op " << op << ": reachable vertex lost";
        ASSERT_TRUE(db.label(v).has_value());
      }
      const auto report = core::Oracle::analyze(db.cluster());
      ASSERT_TRUE(report.violations.empty())
          << "op " << op << ": " << report.violations.front();
    }
  }

  // Endgame: completeness.  Cached replicas may still hold edges the
  // application has since removed at the home (remove_edge edits the home
  // replica; the Union Rule rightly keeps such targets alive until the
  // caches converge) — so refresh the caches first, then the store must
  // agree with the shadow exactly.
  db.refresh_caches();
  db.run_gc();
  const auto reach = shadow.reachable();
  for (VertexId v : pool) {
    EXPECT_EQ(db.vertex_exists(v), reach.contains(v))
        << to_string(v) << (reach.contains(v) ? " lost" : " leaked");
  }
  // And dropping everything empties the store (indexes aside).
  for (VertexId v : std::set<VertexId>(shadow.registered)) {
    db.remove_vertex(v);
  }
  db.refresh_caches();
  db.run_gc();
  EXPECT_EQ(db.replica_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GraphDbFuzz,
    ::testing::Values(FuzzCase{1, 3, 150}, FuzzCase{2, 4, 150},
                      FuzzCase{3, 2, 200}, FuzzCase{4, 5, 200},
                      FuzzCase{5, 3, 250}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace rgc::graphdb
