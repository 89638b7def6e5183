#include "gc/cycle/summary.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "gc/lgc/lgc.h"

namespace rgc::gc {

void ProcessSummary::rebuild_anchor_index() {
  anchor_index.clear();
  anchor_index.reserve(scions.size());
  for (const auto& [key, summary] : scions) anchor_index.push_back(key);
  std::sort(anchor_index.begin(), anchor_index.end(),
            [](const rm::ScionKey& a, const rm::ScionKey& b) {
              return a.anchor != b.anchor ? a.anchor < b.anchor
                                          : a.src_process < b.src_process;
            });
}

std::span<const rm::ScionKey> ProcessSummary::scions_anchored_at(
    ObjectId obj) const {
  auto lo = std::lower_bound(
      anchor_index.begin(), anchor_index.end(), obj,
      [](const rm::ScionKey& k, ObjectId o) { return k.anchor < o; });
  auto hi = std::upper_bound(
      lo, anchor_index.end(), obj,
      [](ObjectId o, const rm::ScionKey& k) { return o < k.anchor; });
  return {lo, hi};
}

// ---------------------------------------------------------------------------
// One-pass summarizer.
//
// The per-seed reference summarizer (tests/summary_reference.cpp) answers
// every StubsFrom/ReplicasFrom/ScionsTo/ReplicasTo question with a full
// trace per seed; this one answers all of them with one structure pass:
//   1. one root trace (Lgc::seed/drain over the shared MarkScratch) reads
//      LocalReach straight off the heap's SoA mark state,
//   2. an iterative Tarjan DFS started from each seed (scion anchors and
//      replicated objects present in the heap) condenses the seed-reachable
//      subgraph into SCCs, recording object->object and object->stub edges
//      with exactly Lgc::drain's reference-resolution rules,
//   3. a reverse-topological sweep (Tarjan pop order *is* reverse
//      topological) ORs per-SCC seed bitsets down the condensation DAG,
//      then folds them onto stubs,
//   4. emission walks stubs/seeds in key order, so every output set is
//      materialized pre-sorted and adopted via FlatSet::from_sorted_unique.
// All state lives in rm::SummarizeScratch and is reused across snapshots.
// ---------------------------------------------------------------------------

namespace {

// Arena slots double as the dense node space: Heap::slot_of is the O(1)
// id -> position map (kNoPos == Heap::kNoSlot), and Heap::slab_size bounds
// the side arrays.  No index build per snapshot.
constexpr std::uint32_t kNoPos = rm::Heap::kNoSlot;
constexpr std::uint8_t kSeedAnchor = 1;   // scion anchor with a local replica
constexpr std::uint8_t kSeedReplica = 2;  // replicated object in the heap

/// Visits every set bit (= seed index) of the `words`-long slice.
template <typename Fn>
void for_each_bit(const std::uint64_t* bits, std::size_t words, Fn&& fn) {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      const int b = std::countr_zero(word);
      word &= word - 1;
      fn(static_cast<std::uint32_t>(w * 64 + static_cast<unsigned>(b)));
    }
  }
}

void or_words(std::uint64_t* dst, const std::uint64_t* src, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) dst[w] |= src[w];
}

bool any_word(const std::uint64_t* bits, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    if (bits[w] != 0) return true;
  }
  return false;
}

}  // namespace

// summarize() runs on worker threads during the cluster's parallel snapshot
// phase, so it must not touch shared sinks such as the recorder; the serial
// install loop (Cluster::snapshot_nodes) may.
ProcessSummary summarize(const rm::Process& process) {
  ProcessSummary s;
  s.process = process.id();
  s.taken_at = process.network().now();
  s.mutation_epoch = process.mutation_epoch();

  // ---- Phase 1: root trace ----------------------------------------------
  // LocalReach is read straight off the SoA mark state afterwards; the SCC
  // pass below never marks, so the bits stay valid for the whole
  // summarization.
  const rm::Heap& heap = process.heap();
  const rm::MarkScratch& mark = process.begin_mark_epoch();
  for (ObjectId root : heap.roots()) Lgc::seed(process, root, 1);
  for (const auto& [obj, ttl] : process.transient_roots()) {
    Lgc::seed(process, obj, 1);
  }
  Lgc::drain(process, 1);
  const std::uint64_t epoch = mark.epoch;

  rm::SummarizeScratch& sc = process.summarize_scratch();

  // ---- Skeletons: stubs (dense positions stamped), replicas, scions ----
  sc.stub_list.clear();
  for (const auto& [key, stub] : process.stubs()) {
    stub.summarize_idx = static_cast<std::uint32_t>(sc.stub_list.size());
    sc.stub_list.push_back(&stub);
    StubSummary& t = s.stubs[key];
    t.ic = stub.ic;
    t.local_reach = stub.marks(epoch) != 0;
  }
  const std::size_t stub_count = sc.stub_list.size();

  for (const auto& e : process.in_props()) {
    s.replicas[e.object].in_props.push_back({e.process, e.uc});
  }
  for (const auto& e : process.out_props()) {
    s.replicas[e.object].out_props.push_back({e.process, e.uc});
  }
  for (auto& [obj, r] : s.replicas) {
    const std::uint32_t pos = heap.slot_of(obj);
    r.local_reach = pos != kNoPos && heap.marks(pos, epoch) != 0;
  }

  sc.remote_anchors.clear();
  for (const auto& [key, scion] : process.scions()) {
    ScionSummary& t = s.scions[key];
    t.ic = scion.ic;
    const std::uint32_t pos = heap.slot_of(key.anchor);
    t.local_reach = pos != kNoPos && heap.marks(pos, epoch) != 0;
    if (pos == kNoPos) sc.remote_anchors.push_back(key.anchor);
  }
  std::sort(sc.remote_anchors.begin(), sc.remote_anchors.end());
  sc.remote_anchors.erase(
      std::unique(sc.remote_anchors.begin(), sc.remote_anchors.end()),
      sc.remote_anchors.end());
  s.rebuild_anchor_index();

  // ---- Seeds: in-heap scion anchors and replicated objects --------------
  sc.seed_objs.clear();
  for (const auto& key : s.anchor_index) {
    if (process.has_replica(key.anchor)) sc.seed_objs.push_back(key.anchor);
  }
  for (const auto& [obj, r] : s.replicas) {
    if (process.has_replica(obj)) sc.seed_objs.push_back(obj);
  }
  std::sort(sc.seed_objs.begin(), sc.seed_objs.end());
  sc.seed_objs.erase(std::unique(sc.seed_objs.begin(), sc.seed_objs.end()),
                     sc.seed_objs.end());
  const std::size_t seed_count = sc.seed_objs.size();

  auto seed_pos_of = [&](ObjectId id) -> std::uint32_t {
    auto it = std::lower_bound(sc.seed_objs.begin(), sc.seed_objs.end(), id);
    if (it == sc.seed_objs.end() || *it != id) return kNoPos;
    return static_cast<std::uint32_t>(it - sc.seed_objs.begin());
  };

  sc.seed_flags.assign(seed_count, 0);
  sc.seed_nodes.resize(seed_count);
  for (std::size_t i = 0; i < seed_count; ++i) {
    sc.seed_nodes[i] = heap.slot_of(sc.seed_objs[i]);
  }
  for (const auto& key : s.anchor_index) {
    const std::uint32_t i = seed_pos_of(key.anchor);
    if (i != kNoPos) sc.seed_flags[i] |= kSeedAnchor;
  }
  for (const auto& [obj, r] : s.replicas) {
    const std::uint32_t i = seed_pos_of(obj);
    if (i != kNoPos) sc.seed_flags[i] |= kSeedReplica;
  }

  // ---- Phase 2: iterative Tarjan over the seed-reachable subgraph ------
  const std::size_t heap_size = heap.slab_size();
  sc.num.assign(heap_size, kNoPos);
  sc.low.assign(heap_size, 0);
  sc.scc.assign(heap_size, kNoPos);
  sc.on_stack.assign(heap_size, 0);
  sc.stack.clear();
  sc.frames.clear();
  sc.obj_edges.clear();
  sc.stub_edges.clear();
  std::uint32_t next_num = 0;
  std::uint32_t scc_count = 0;

  auto push_node = [&](std::uint32_t n) {
    sc.num[n] = sc.low[n] = next_num++;
    sc.stack.push_back(n);
    sc.on_stack[n] = 1;
    sc.frames.push_back({n, 0});
  };

  for (std::size_t si = 0; si < seed_count; ++si) {
    if (sc.num[sc.seed_nodes[si]] != kNoPos) continue;
    push_node(sc.seed_nodes[si]);
    while (!sc.frames.empty()) {
      const std::uint32_t n = sc.frames.back().node;
      const rm::Object& obj = heap.at_slot(n);
      if (sc.frames.back().ref < obj.refs.size()) {
        const rm::Ref ref = obj.refs[sc.frames.back().ref++];
        // Edge resolution mirrors Lgc::drain exactly: local binding to a
        // present replica, local binding whose replica vanished (all stubs
        // for the target), or remote binding (the exact {target, via} stub
        // when it exists, every stub for the target otherwise).
        if (ref.is_local()) {
          const std::uint32_t t = heap.slot_of(ref.target);
          if (t != kNoPos) {
            sc.obj_edges.emplace_back(n, t);
            if (sc.num[t] == kNoPos) {
              push_node(t);
            } else if (sc.on_stack[t] != 0) {
              sc.low[n] = std::min(sc.low[n], sc.num[t]);
            }
          } else {
            process.for_each_stub_for(ref.target, [&](const rm::Stub& stub) {
              sc.stub_edges.emplace_back(n, stub.summarize_idx);
            });
          }
        } else if (const rm::Stub* exact =
                       process.find_stub(rm::StubKey{ref.target, ref.via})) {
          sc.stub_edges.emplace_back(n, exact->summarize_idx);
        } else {
          process.for_each_stub_for(ref.target, [&](const rm::Stub& stub) {
            sc.stub_edges.emplace_back(n, stub.summarize_idx);
          });
        }
      } else {
        sc.frames.pop_back();
        const std::uint32_t low_n = sc.low[n];
        if (!sc.frames.empty()) {
          std::uint32_t& parent_low = sc.low[sc.frames.back().node];
          parent_low = std::min(parent_low, low_n);
        }
        if (low_n == sc.num[n]) {
          while (true) {
            const std::uint32_t w = sc.stack.back();
            sc.stack.pop_back();
            sc.on_stack[w] = 0;
            sc.scc[w] = scc_count;
            if (w == n) break;
          }
          ++scc_count;
        }
      }
    }
  }

  // ---- Phase 3: seed bitsets down the condensation DAG ------------------
  // Tarjan completion order is reverse topological: every inter-SCC edge
  // points from a higher component id to a lower one, so one descending
  // sweep delivers each component's bits before any successor reads them.
  const std::size_t words = (seed_count + 63) / 64;
  sc.scc_bits.assign(scc_count * words, 0);
  sc.stub_bits.assign(stub_count * words, 0);
  for (std::size_t si = 0; si < seed_count; ++si) {
    const std::uint32_t c = sc.scc[sc.seed_nodes[si]];
    sc.scc_bits[c * words + si / 64] |= std::uint64_t{1} << (si % 64);
  }
  sc.edge_offsets.assign(scc_count + 1, 0);
  for (const auto& [u, v] : sc.obj_edges) {
    if (sc.scc[u] != sc.scc[v]) ++sc.edge_offsets[sc.scc[u] + 1];
  }
  for (std::size_t c = 0; c < scc_count; ++c) {
    sc.edge_offsets[c + 1] += sc.edge_offsets[c];
  }
  sc.edge_targets.resize(sc.edge_offsets[scc_count]);
  // Scatter with edge_offsets as the running cursor: afterwards
  // edge_offsets[c] is the *end* of bucket c (the old start of c+1).
  for (const auto& [u, v] : sc.obj_edges) {
    const std::uint32_t a = sc.scc[u];
    const std::uint32_t b = sc.scc[v];
    if (a != b) sc.edge_targets[sc.edge_offsets[a]++] = b;
  }
  for (std::uint32_t a = scc_count; a-- > 0;) {
    const std::uint64_t* src = sc.scc_bits.data() + a * words;
    if (!any_word(src, words)) continue;
    const std::uint32_t begin = a == 0 ? 0 : sc.edge_offsets[a - 1];
    for (std::uint32_t i = begin; i < sc.edge_offsets[a]; ++i) {
      or_words(sc.scc_bits.data() + sc.edge_targets[i] * words, src, words);
    }
  }
  for (const auto& [u, t] : sc.stub_edges) {
    or_words(sc.stub_bits.data() + t * words,
             sc.scc_bits.data() + sc.scc[u] * words, words);
  }

  // ---- Phase 4: emission ------------------------------------------------
  // Per-seed forward lists, shared by every scion on the same anchor.
  // Walking stubs in key order / replica seeds in id order materializes
  // every list pre-sorted.
  if (sc.stubs_of_seed.size() < seed_count) sc.stubs_of_seed.resize(seed_count);
  if (sc.reps_of_seed.size() < seed_count) sc.reps_of_seed.resize(seed_count);
  for (std::size_t i = 0; i < seed_count; ++i) {
    sc.stubs_of_seed[i].clear();
    sc.reps_of_seed[i].clear();
  }
  for (std::size_t t = 0; t < stub_count; ++t) {
    for_each_bit(sc.stub_bits.data() + t * words, words, [&](std::uint32_t b) {
      sc.stubs_of_seed[b].push_back(sc.stub_list[t]->key);
    });
  }
  for (std::size_t ri = 0; ri < seed_count; ++ri) {
    if ((sc.seed_flags[ri] & kSeedReplica) == 0) continue;
    for_each_bit(sc.scc_bits.data() + sc.scc[sc.seed_nodes[ri]] * words, words,
                 [&](std::uint32_t b) {
                   sc.reps_of_seed[b].push_back(sc.seed_objs[ri]);
                 });
  }

  auto append_anchor_keys = [&](std::uint32_t b) {
    for (const rm::ScionKey& k : s.scions_anchored_at(sc.seed_objs[b])) {
      sc.tmp_scion_keys.push_back(k);
    }
  };
  auto take_sorted_keys = [&]() {
    std::sort(sc.tmp_scion_keys.begin(), sc.tmp_scion_keys.end());
    return util::FlatSet<rm::ScionKey>::from_sorted_unique(sc.tmp_scion_keys);
  };

  // Scions: forward sets come from the anchor seed; the inverse sets are
  // the seeds whose bit reaches the anchor (its SCC for local anchors, the
  // union over its stub chain for remote ones).
  for (auto& [key, t] : s.scions) {
    sc.tmp_scion_keys.clear();
    sc.tmp_objs.clear();
    const std::uint32_t sa = seed_pos_of(key.anchor);
    if (sa != kNoPos) {
      t.stubs_from =
          util::FlatSet<rm::StubKey>::from_sorted_unique(sc.stubs_of_seed[sa]);
      t.replicas_from =
          util::FlatSet<ObjectId>::from_sorted_unique(sc.reps_of_seed[sa]);
      for_each_bit(sc.scc_bits.data() + sc.scc[sc.seed_nodes[sa]] * words,
                   words, [&](std::uint32_t b) {
                     if (sc.seed_flags[b] & kSeedAnchor) append_anchor_keys(b);
                     if ((sc.seed_flags[b] & kSeedReplica) != 0 &&
                         sc.seed_objs[b] != key.anchor) {
                       sc.tmp_objs.push_back(sc.seed_objs[b]);
                     }
                   });
      // The anchor reaches itself, so its own key landed in the list;
      // a scion never lists itself in ScionsTo.
      std::sort(sc.tmp_scion_keys.begin(), sc.tmp_scion_keys.end());
      auto self_it = std::lower_bound(sc.tmp_scion_keys.begin(),
                                      sc.tmp_scion_keys.end(), key);
      if (self_it != sc.tmp_scion_keys.end() && *self_it == key) {
        sc.tmp_scion_keys.erase(self_it);
      }
      t.scions_to =
          util::FlatSet<rm::ScionKey>::from_sorted_unique(sc.tmp_scion_keys);
    } else {
      // Remote anchor: the scion guards a stub chain.  Its "reach" is the
      // union over every stub designating the anchor, plus the chain's
      // sibling scions on the same anchor.
      sc.tmp_stub_keys.clear();
      sc.tmp_bits.assign(words, 0);
      process.for_each_stub_for(key.anchor, [&](const rm::Stub& stub) {
        sc.tmp_stub_keys.push_back(stub.key);
        or_words(sc.tmp_bits.data(),
                 sc.stub_bits.data() + stub.summarize_idx * words, words);
      });
      t.stubs_from =
          util::FlatSet<rm::StubKey>::from_sorted_unique(sc.tmp_stub_keys);
      for_each_bit(sc.tmp_bits.data(), words, [&](std::uint32_t b) {
        if (sc.seed_flags[b] & kSeedAnchor) append_anchor_keys(b);
        if (sc.seed_flags[b] & kSeedReplica) {
          sc.tmp_objs.push_back(sc.seed_objs[b]);
        }
      });
      for (const rm::ScionKey& k : s.scions_anchored_at(key.anchor)) {
        if (k != key) sc.tmp_scion_keys.push_back(k);
      }
      t.scions_to = take_sorted_keys();
    }
    t.replicas_to = util::FlatSet<ObjectId>::from_sorted_unique(sc.tmp_objs);
  }

  // Stubs: the inverse sets are the seeds whose bit reached this stub,
  // plus — for stubs that are part of a remote anchor's chain — the scions
  // on that anchor.
  {
    std::size_t t_idx = 0;
    for (auto& [key, t] : s.stubs) {
      sc.tmp_scion_keys.clear();
      sc.tmp_objs.clear();
      for_each_bit(sc.stub_bits.data() + t_idx * words, words,
                   [&](std::uint32_t b) {
                     if (sc.seed_flags[b] & kSeedAnchor) append_anchor_keys(b);
                     if (sc.seed_flags[b] & kSeedReplica) {
                       sc.tmp_objs.push_back(sc.seed_objs[b]);
                     }
                   });
      if (std::binary_search(sc.remote_anchors.begin(), sc.remote_anchors.end(),
                             key.target)) {
        for (const rm::ScionKey& k : s.scions_anchored_at(key.target)) {
          sc.tmp_scion_keys.push_back(k);
        }
      }
      t.scions_to = take_sorted_keys();
      t.replicas_to = util::FlatSet<ObjectId>::from_sorted_unique(sc.tmp_objs);
      ++t_idx;
    }
  }

  // Replicas: same recipe from the replica's own seed / SCC.
  for (auto& [obj, r] : s.replicas) {
    const std::uint32_t sr = seed_pos_of(obj);
    if (sr == kNoPos) continue;  // entry outlived its replica
    r.stubs_from =
        util::FlatSet<rm::StubKey>::from_sorted_unique(sc.stubs_of_seed[sr]);
    sc.tmp_objs.clear();
    for (ObjectId other : sc.reps_of_seed[sr]) {
      if (other != obj) sc.tmp_objs.push_back(other);
    }
    r.replicas_from = util::FlatSet<ObjectId>::from_sorted_unique(sc.tmp_objs);
    sc.tmp_scion_keys.clear();
    sc.tmp_objs.clear();
    for_each_bit(sc.scc_bits.data() + sc.scc[sc.seed_nodes[sr]] * words, words,
                 [&](std::uint32_t b) {
                   if (sc.seed_flags[b] & kSeedAnchor) append_anchor_keys(b);
                   if ((sc.seed_flags[b] & kSeedReplica) != 0 &&
                       sc.seed_objs[b] != obj) {
                     sc.tmp_objs.push_back(sc.seed_objs[b]);
                   }
                 });
    r.scions_to = take_sorted_keys();
    r.replicas_to = util::FlatSet<ObjectId>::from_sorted_unique(sc.tmp_objs);
  }

  return s;
}

}  // namespace rgc::gc
