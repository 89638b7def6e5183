#include "core/cluster.h"

#include <algorithm>
#include <bit>
#include <set>
#include <stdexcept>

#include "gc/cycle/snapshot_io.h"
#include "obs/check.h"
#include "util/log.h"
#include "util/trace.h"

namespace rgc::core {

Cluster::Cluster(ClusterConfig config)
    : config_(config), net_(config.net), finalizer_(config.finalize) {
  auditor_ = std::make_unique<obs::HealthAuditor>(
      *this,
      obs::AuditConfig{config_.audit_interval, config_.audit_deep_every});
  net_.add_observer(auditor_.get());
  if (config_.record_capacity > 0) {
    recorder_ = std::make_unique<obs::FlightRecorder>(
        obs::RecorderConfig{config_.record_capacity});
    recorder_->bind(&net_);
    net_.add_observer(recorder_.get());
  }
  if (config_.ledger_capacity > 0) {
    obs::LedgerConfig ledger_config;
    ledger_config.capacity = config_.ledger_capacity;
    ledger_ = std::make_unique<obs::Ledger>(ledger_config);
    ledger_->bind(&net_);
    net_.add_observer(ledger_.get());
  }
  termination_ = std::make_unique<TerminationDetector>(net_.metrics());
  net_.add_observer(termination_.get());
  // Leases imply the fault model: invokes may legally race a crash window.
  faults_engaged_ = config_.lease_timeout > 0;
}

obs::RecStamp Cluster::recorder_stamp() const {
  obs::RecStamp stamp;
  stamp.seed = config_.net.seed;
  stamp.processes = static_cast<std::uint32_t>(nodes_.size());
  stamp.drop_bits = std::bit_cast<std::uint64_t>(config_.net.drop_probability);
  stamp.dup_bits =
      std::bit_cast<std::uint64_t>(config_.net.duplicate_probability);
  stamp.max_delay = config_.net.max_delay;
  stamp.lease_timeout = config_.lease_timeout;
  stamp.capacity = static_cast<std::uint32_t>(config_.record_capacity);
  return stamp;
}

Cluster::~Cluster() = default;

ProcessId Cluster::add_process() {
  const ProcessId pid{next_process_++};
  Node node;
  build_node(pid, node);
  nodes_.emplace(pid, std::move(node));
  return pid;
}

void Cluster::build_node(ProcessId pid, Node& node) {
  node.process = std::make_unique<rm::Process>(pid, net_);
  node.process->set_fault_tolerant(faults_engaged_);
  node.detector = std::make_unique<gc::CycleDetector>(
      *node.process, config_.detector,
      config_.mode == DetectorMode::kBaseline
          ? gc::Traversal::kFlat
          : gc::Traversal::kReplicationAware);
  node.distance =
      std::make_unique<gc::DistanceHeuristic>(config_.candidate_threshold);
  node.suspicion =
      std::make_unique<gc::SuspicionAgeTracker>(config_.candidate_threshold);
  node.detector->on_cycle_found = [this, pid](const gc::Cdm& cdm) {
    handle_cycle_found(pid, cdm);
  };
  node.detector->set_profile(&profile_.histogram("cycle.detect_us"));
  node.process->set_recorder(recorder_.get());
  node.process->set_ledger(ledger_.get());
  node.summary_cache_valid = false;
  node.last_summary_fresh = true;
  node.alive = true;
  termination_->attach(pid);
  net_.attach(pid, [this, pid](const net::Envelope& env) { dispatch(pid, env); });
}

std::size_t Cluster::process_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [pid, node] : nodes_) n += node.alive ? 1 : 0;
  return n;
}

std::vector<ProcessId> Cluster::process_ids() const {
  std::vector<ProcessId> out;
  out.reserve(nodes_.size());
  for (const auto& [pid, node] : nodes_) {
    if (node.alive) out.push_back(pid);
  }
  return out;
}

rm::Process& Cluster::process(ProcessId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::out_of_range("unknown process");
  if (!it->second.alive) throw std::out_of_range("process is down");
  return *it->second.process;
}

const rm::Process& Cluster::process(ProcessId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::out_of_range("unknown process");
  if (!it->second.alive) throw std::out_of_range("process is down");
  return *it->second.process;
}

Cluster::Node& Cluster::live_node(ProcessId id) {
  Node& node = nodes_.at(id);
  if (!node.alive) throw std::out_of_range("process is down");
  return node;
}

gc::CycleDetector& Cluster::detector(ProcessId id) {
  return *live_node(id).detector;
}

gc::DistanceHeuristic& Cluster::distance_heuristic(ProcessId id) {
  return *live_node(id).distance;
}

gc::SuspicionAgeTracker& Cluster::suspicion_tracker(ProcessId id) {
  return *live_node(id).suspicion;
}

ObjectId Cluster::new_object(ProcessId owner, std::uint32_t payload_bytes) {
  const ObjectId id{next_object_++};
  process(owner).create_object(id, payload_bytes);
  return id;
}

void Cluster::add_ref(ProcessId at, ObjectId from, ObjectId to) {
  process(at).add_ref(from, to);
}

void Cluster::remove_ref(ProcessId at, ObjectId from, ObjectId to) {
  process(at).remove_ref(from, to);
}

void Cluster::add_root(ProcessId at, ObjectId target) {
  process(at).add_root(target);
}

void Cluster::remove_root(ProcessId at, ObjectId target) {
  process(at).remove_root(target);
}

void Cluster::propagate(ObjectId object, ProcessId from, ProcessId to) {
  process(from).propagate(object, to);
}

void Cluster::invoke(ProcessId caller, ObjectId target,
                     std::uint32_t root_steps) {
  process(caller).invoke(target, root_steps);
}

void Cluster::step() { advance_clock(1); }

void Cluster::advance_clock(std::uint64_t delta) {
  if (delta > 1) {
    // Silent stretch prefix: the caller clamped `delta` at the next event
    // horizon, so steps (now, now + delta - 1] deliver nothing, cross no
    // audit/heartbeat boundary, and expire no lease or transient root.
    // Their only per-step effect in step-by-step mode is transient-TTL
    // aging — apply it in bulk and jump the network clock.
    for (auto& [pid, node] : nodes_) {
      if (node.alive) node.process->tick(delta - 1);
    }
    net_.skip_to(net_.now() + delta - 1);
  }
  net_.step();
  for (auto& [pid, node] : nodes_) {
    if (node.alive) node.process->tick();
  }
  if (config_.lease_timeout > 0) {
    // Out-of-band keepalive floor: every pair of mutually reachable live
    // processes renews each other's leases without any network traffic
    // (renewals also piggyback on every delivery), so an idle healthy
    // cluster never self-expires and quiescence is unaffected.
    if (now() % heartbeat_interval() == 0) {
      for (auto& [p, pn] : nodes_) {
        if (!pn.alive) continue;
        for (auto& [q, qn] : nodes_) {
          if (q == p || !qn.alive) continue;
          if (net_.reachable(q, p)) pn.process->note_heard(q, now());
        }
      }
    }
    for (auto& [pid, node] : nodes_) {
      if (!node.alive) continue;
      util::ScopedProcess ctx{pid};
      gc::Adgc::expire_leases(*node.process, now(), config_.lease_timeout);
    }
  }
  if (config_.audit_interval != 0 && now() % config_.audit_interval == 0) {
    // Host-OS measurement: nondeterministic, so it lives in profile() (the
    // wall-clock registry excluded from deterministic reports), sampled at
    // audit cadence rather than per step.
    profile_.gauge("cluster.peak_rss_bytes").set(util::peak_rss_bytes());
    auditor_->run_scheduled();
    if (recorder_) {
      const std::uint64_t errors = auditor_->report().errors();
      if (errors > recorded_audit_errors_) {
        recorder_->audit_error(errors);
        recorded_audit_errors_ = errors;
        if (!config_.record_dump_path.empty() && !audit_error_dumped_) {
          // First ERROR: freeze the evidence while it is still fresh.
          audit_error_dumped_ = true;
          obs::dump_recording(*recorder_, recorder_stamp(),
                              config_.record_dump_path);
        }
      }
    }
  }
}

std::uint64_t Cluster::heartbeat_interval() const noexcept {
  if (config_.heartbeat_interval != 0) return config_.heartbeat_interval;
  const std::uint64_t derived = config_.lease_timeout / 4;
  return derived == 0 ? 1 : derived;
}

std::uint64_t Cluster::next_event_delta() const {
  const std::uint64_t at = now();
  std::uint64_t delta = ~std::uint64_t{0};
  const auto clamp_at = [&](std::uint64_t event_step) {
    delta = std::min(delta, event_step > at ? event_step - at : 1);
  };
  if (net_.next_due() != ~std::uint64_t{0}) clamp_at(net_.next_due());
  // Scheduled-audit and keepalive boundaries: step() acts on every multiple
  // of the interval, so the next multiple strictly after `at` must execute.
  if (config_.audit_interval != 0) {
    delta = std::min(delta,
                     config_.audit_interval - at % config_.audit_interval);
  }
  if (config_.lease_timeout > 0) {
    const std::uint64_t h = heartbeat_interval();
    delta = std::min(delta, h - at % h);
    for (const auto& [pid, node] : nodes_) {
      if (!node.alive) continue;
      const std::uint64_t e =
          node.process->next_lease_expiry(config_.lease_timeout);
      if (e != ~std::uint64_t{0}) clamp_at(e);
    }
  }
  for (const auto& [pid, node] : nodes_) {
    if (!node.alive) continue;
    const std::uint32_t ttl = node.process->next_transient_expiry();
    if (ttl != 0) delta = std::min<std::uint64_t>(delta, ttl);
  }
  return delta == 0 ? 1 : delta;
}

void Cluster::advance(std::uint64_t steps) {
  const std::uint64_t end = now() + steps;
  while (now() < end) {
    advance_clock(std::min(next_event_delta(), end - now()));
  }
}

QuiescenceStatus Cluster::run_until_quiescent(std::uint64_t max_steps) {
  const std::uint64_t start = now();
  // Decentralized termination detection (core/quiescence.h): each loop
  // iteration circulates the weighted token through the per-process
  // send/receive accounts instead of reading the network's global
  // in-flight count — no "is everyone idle" scan.
  while (!termination_->probe() && now() - start < max_steps) {
    const std::uint64_t budget = max_steps - (now() - start);
    advance_clock(std::min(next_event_delta(), budget));
  }
  const std::uint64_t steps = now() - start;
  const bool quiescent = termination_->quiescent();
  const auto in_flight = static_cast<std::size_t>(termination_->deficit());
  if (!quiescent) {
    // Giving up with traffic still queued means protocol rounds (ADGC
    // hand-shakes, CDM tracks) were cut short — callers used to get no
    // signal at all.  Count it and say so.
    net_.metrics().add("cluster.quiescence_timeout");
    RGC_WARN("cluster: run_until_quiescent gave up after ", max_steps,
             " steps with ", in_flight, " messages still in flight");
  }
  // Crashed processes are not pending work: kill() purged their traffic
  // (refunding the senders' accounts), so they never hold up quiescence —
  // callers see them in `dead` instead.
  const std::size_t dead = termination_->dead();
  // Why a run stalled, as registered gauges: crashed members vs a genuine
  // truncation (gave up with traffic still in flight).
  net_.metrics().gauge("cluster.quiescence_dead_pids").set(dead);
  net_.metrics().gauge("cluster.quiescence_truncated").set(quiescent ? 0 : 1);
  return QuiescenceStatus{steps, quiescent, in_flight, dead};
}

util::ThreadPool& Cluster::pool() {
  if (!pool_) {
    pool_ = std::make_unique<util::ThreadPool>(
        config_.threads > 0 ? config_.threads : 1);
  }
  return *pool_;
}

std::vector<Cluster::Node*> Cluster::live_nodes() {
  std::vector<Node*> nodes;
  nodes.reserve(nodes_.size());
  for (auto& [pid, node] : nodes_) {
    if (node.alive) nodes.push_back(&node);
  }
  return nodes;
}

gc::LgcResult Cluster::collect(ProcessId id) {
  return std::move(collect_nodes({&live_node(id)}).front());
}

std::uint64_t Cluster::collect_all() {
  const std::vector<Node*> nodes = live_nodes();
  std::uint64_t reclaimed = 0;
  for (const gc::LgcResult& r : collect_nodes(nodes)) {
    reclaimed += r.reclaimed.size();
  }
  if (recorder_) {
    recorder_->phase(obs::kPhaseCollectRound, reclaimed, nodes.size());
  }
  return reclaimed;
}

std::vector<gc::LgcResult> Cluster::collect_nodes(
    const std::vector<Node*>& nodes) {
  // Equivalent to a one-node collect on every node in pid order: each
  // process's state is private, and cross-process effects travel only
  // through messages queued on the network (delivered at a later step()),
  // so reordering *read-only* work across processes cannot change any
  // outcome.  The phases that mutate a process, share the finalizer, emit
  // log output or recorder events, or send messages run serially in pid
  // order — which makes results, metrics, traffic, and recordings identical
  // for any thread count.
  const std::size_t n = nodes.size();
  gc::LgcConfig cfg;
  cfg.finalizer = &finalizer_;

  // Phase 1 — trace (read-only, parallel across processes).
  std::vector<gc::LgcMark> marks(n);
  {
    util::ScopedTimerUs timer{&profile_.histogram("lgc.mark_us")};
    pool().parallel_for(n, [&](std::size_t i) {
      marks[i] = gc::Lgc::mark(*nodes[i]->process, cfg);
    });
  }

  // Phase 2 — sweep + finalize (mutating, shared finalizer: serial).
  std::vector<gc::LgcResult> results(n);
  {
    util::ScopedTimerUs timer{&profile_.histogram("lgc.apply_us")};
    for (std::size_t i = 0; i < n; ++i) {
      rm::Process& proc = *nodes[i]->process;
      util::ScopedProcess ctx{proc.id()};
      results[i] = gc::Lgc::apply(proc, marks[i], cfg);
      nodes[i]->distance->prune(proc);
    }
  }

  // Phase 3 — post-sweep summaries for the distance heuristic (read-only,
  // parallel).  Nodes whose mutation epoch is unchanged since their last
  // summary reuse it outright.
  summarize_all(nodes, &profile_.histogram("lgc.summarize_us"));

  // Phase 4 — heuristic digests + ADGC protocol messages (sends traffic:
  // serial, pid order).  Candidate heuristics digest every collection
  // regardless of policy — the distance announcements cost a few bytes on
  // traffic that flows anyway, and tests/benches can inspect either
  // tracker.
  util::ScopedTimerUs timer{&profile_.histogram("adgc.digest_us")};
  for (std::size_t i = 0; i < n; ++i) {
    Node& node = *nodes[i];
    rm::Process& proc = *node.process;
    util::ScopedProcess ctx{proc.id()};
    const auto announcements =
        node.distance->after_collection(results[i], node.summary_cache);
    node.suspicion->after_collection(proc, results[i]);
    gc::Adgc::after_collection(proc, results[i], &announcements);
  }
  return results;
}

void Cluster::summarize_all(const std::vector<Node*>& nodes,
                            util::Histogram* timer_hist) {
  const std::size_t n = nodes.size();
  std::vector<std::uint8_t> reused(n, 0);
  {
    util::ScopedTimerUs timer{timer_hist};
    pool().parallel_for(n, [&](std::size_t i) {
      Node& nd = *nodes[i];
      const rm::Process& proc = *nd.process;
      if (nd.summary_cache_valid &&
          nd.summary_cache.mutation_epoch == proc.mutation_epoch()) {
        // Same epoch ⇒ no summary-relevant mutation since the cached
        // summary was computed ⇒ a fresh summarize() would reproduce it
        // bit for bit, only with a newer timestamp.
        nd.summary_cache.taken_at = net_.now();
        reused[i] = 1;
      } else {
        nd.summary_cache = gc::summarize(proc);
        nd.summary_cache_valid = true;
      }
    });
  }
  // Metrics land serially so counter order is thread-count independent
  // (the reuse decision itself is epoch-based and thus deterministic).
  for (std::size_t i = 0; i < n; ++i) {
    if (reused[i] != 0) {
      nodes[i]->process->metrics().add("cycle.summarize_reused");
    }
    nodes[i]->last_summary_fresh = reused[i] == 0;
  }
  update_dirty_gauge();
}

void Cluster::update_dirty_gauge() {
  std::size_t live = 0;
  std::size_t fresh = 0;
  for (const auto& [pid, node] : nodes_) {
    if (!node.alive) continue;
    ++live;
    if (node.last_summary_fresh) ++fresh;
  }
  if (live == 0) return;
  net_.metrics().gauge("cycle.summary_dirty_fraction").set(fresh * 100 / live);
}

void Cluster::snapshot(ProcessId id) { snapshot_nodes({&live_node(id)}); }

void Cluster::snapshot_all() {
  const std::vector<Node*> nodes = live_nodes();
  snapshot_nodes(nodes);
  if (recorder_) recorder_->phase(obs::kPhaseSnapshotAll, nodes.size());
}

void Cluster::snapshot_nodes(const std::vector<Node*>& nodes) {
  // Summarize concurrently (read-only per process, dirty-epoch reuse for
  // quiescent ones), install copies serially so detector bookkeeping and
  // metrics land in pid order.
  summarize_all(nodes, &profile_.histogram("cycle.summarize_us"));
  util::ScopedTimerUs install_timer{&profile_.histogram("cycle.install_us")};
  for (Node* node : nodes) {
    const ProcessId pid = node->process->id();
    util::ScopedProcess ctx{pid};
    node->detector->install_snapshot(node->summary_cache);
  }
}

std::optional<std::uint64_t> Cluster::detect(ProcessId at, ObjectId candidate) {
  return detector(at).start_detection(candidate);
}

Cluster::FullGcStats Cluster::run_full_gc(std::size_t max_rounds) {
  FullGcStats stats;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    ++stats.rounds;
    const std::uint64_t cycles_before = cycles_found_.size();

    // Acyclic phase: drive LGC + ADGC (and any pending cuts) to a
    // fixpoint.  Unreachable/Reclaim chains need one collection per tree
    // level, and a message delivered during an iteration's quiescence can
    // unlock sweeps only the *next* collection performs — so progress is
    // measured as sweeps *plus* deliveries of state-unlocking traffic.
    auto unlock_signal = [this] {
      return net_.metrics().get("net.delivered.Unreachable") +
             net_.metrics().get("net.delivered.Reclaim") +
             net_.metrics().get("net.delivered.Cut") +
             net_.metrics().get("net.delivered.PropCut") +
             metric_total("adgc.scions_deleted") +
             metric_total("gc.lease_expirations");
    };
    std::uint64_t reclaimed_this_round = 0;
    for (std::size_t inner = 0; inner < 4 * nodes_.size() + 8; ++inner) {
      const std::uint64_t signal_before = unlock_signal();
      const std::uint64_t reclaimed = collect_all();
      run_until_quiescent();
      reclaimed_this_round += reclaimed;
      if (reclaimed == 0 && unlock_signal() == signal_before) break;
    }
    stats.reclaimed_objects += reclaimed_this_round;

    // Cyclic phase: fresh snapshots, then one detection per suspect under
    // the configured candidate policy.
    snapshot_all();
    std::uint64_t started = 0;
    for (auto& [pid, node] : nodes_) {
      if (!node.alive) continue;
      util::ScopedProcess ctx{pid};
      for (ObjectId suspect : pick_suspects(node, node.detector->summary())) {
        if (detect(pid, suspect).has_value()) ++started;
      }
    }
    stats.detections_started += started;
    run_until_quiescent();

    const std::uint64_t new_cycles = cycles_found_.size() - cycles_before;
    stats.cycles_found += new_cycles;
    // Heuristic candidate policies need threshold-many collections before
    // estimates/ages mature into suspects — don't give up before that.
    const bool warming_up =
        config_.candidates != CandidatePolicy::kExhaustive &&
        round < config_.candidate_threshold + 1;
    if (reclaimed_this_round == 0 && new_cycles == 0 && !warming_up) break;
  }
  return stats;
}

std::set<ObjectId> Cluster::suspects(ProcessId id) {
  Node& node = nodes_.at(id);
  if (!node.alive) return {};
  if (!node.detector->has_snapshot()) return {};
  return pick_suspects(node, node.detector->summary());
}

std::set<ObjectId> Cluster::pick_suspects(const Node& node,
                                          const gc::ProcessSummary& s) {
  std::set<ObjectId> suspects;
  switch (config_.candidates) {
    case CandidatePolicy::kExhaustive:
      for (const auto& [key, scion] : s.scions) {
        if (!scion.local_reach) suspects.insert(key.anchor);
      }
      for (const auto& [obj, rep] : s.replicas) {
        if (!rep.local_reach) suspects.insert(obj);
      }
      break;
    case CandidatePolicy::kDistance:
      for (ObjectId obj : node.distance->suspects()) suspects.insert(obj);
      break;
    case CandidatePolicy::kSuspicionAge:
      for (ObjectId obj : node.suspicion->suspects()) suspects.insert(obj);
      break;
  }
  return suspects;
}

std::uint64_t Cluster::total_objects() const {
  std::uint64_t total = 0;
  for (const auto& [pid, node] : nodes_) {
    if (node.alive) total += node.process->heap().size();
  }
  return total;
}

std::uint64_t Cluster::metric_total(const std::string& name) const {
  std::uint64_t total = 0;
  for (const auto& [pid, node] : nodes_) {
    if (node.alive) total += node.process->metrics().get(name);
  }
  return total;
}

void Cluster::dispatch(ProcessId pid, const net::Envelope& env) {
  Node& node = nodes_.at(pid);
  // Any delivery is proof of life: renew the sender's lease.  Deliberately
  // epoch-silent (rm::Process::note_heard), so piggybacked heartbeats never
  // invalidate the dirty-epoch summary cache.
  node.process->note_heard(env.src, net_.now());
  const net::Message* m = env.msg;
  if (const auto* p = dynamic_cast<const rm::PropagateMsg*>(m)) {
    node.process->on_propagate(env, *p);
  } else if (const auto* p = dynamic_cast<const rm::InvokeMsg*>(m)) {
    node.process->on_invoke(env, *p);
  } else if (const auto* p = dynamic_cast<const rm::RecoverMsg*>(m)) {
    // The peer restarted with a reset collection-epoch counter: forget its
    // recorded NewSetStubs epoch so its next announcement is not dropped as
    // stale, then run our half of the reconciliation toward it.  Ships on
    // the same FIFO link *before* the peer's reconciliation traffic
    // (Cluster::restart sends Recover first), so the reset cannot race it.
    RGC_DEBUG("cluster: ", to_string(pid), " sees ", to_string(env.src),
              " recovering (incarnation ", p->incarnation, ")");
    node.process->newsetstubs_epochs()[env.src] = 0;
    node.process->metrics().add("rm.recover_received");
    send_reconciliation(*node.process, env.src);
  } else if (const auto* p = dynamic_cast<const rm::RebindMsg*>(m)) {
    node.process->on_rebind(env, *p);
  } else if (const auto* p = dynamic_cast<const rm::RebindNackMsg*>(m)) {
    node.process->on_rebind_nack(env, *p);
  } else if (const auto* p = dynamic_cast<const rm::PropSyncMsg*>(m)) {
    node.process->on_prop_sync(env, *p);
  } else if (const auto* p = dynamic_cast<const gc::NewSetStubsMsg*>(m)) {
    gc::Adgc::on_new_set_stubs(*node.process, env, *p);
    if (!p->distances.empty()) {
      const std::map<ObjectId, std::uint32_t> estimates(p->distances.begin(),
                                                        p->distances.end());
      node.distance->apply_remote_estimates(*node.process, env.src, estimates);
    }
  } else if (const auto* p = dynamic_cast<const gc::UnreachableMsg*>(m)) {
    gc::Adgc::on_unreachable(*node.process, env, *p);
  } else if (const auto* p = dynamic_cast<const gc::ReclaimMsg*>(m)) {
    gc::Adgc::on_reclaim(*node.process, env, *p);
  } else if (const auto* p = dynamic_cast<const gc::CdmMsg*>(m)) {
    node.detector->on_cdm(env, *p);
  } else if (const auto* p = dynamic_cast<const gc::CutMsg*>(m)) {
    node.detector->on_cut(env, *p);
  } else if (const auto* p = dynamic_cast<const gc::PropCutMsg*>(m)) {
    node.detector->on_prop_cut(env, *p);
  } else {
    throw std::logic_error(std::string("unhandled message kind: ") + m->kind());
  }
}

// ---- Faults: crash, restart, partition (docs/FAULTS.md) --------------------

void Cluster::engage_fault_tolerance() {
  if (faults_engaged_) return;
  faults_engaged_ = true;
  for (auto& [pid, node] : nodes_) {
    if (node.alive) node.process->set_fault_tolerant(true);
  }
}

void Cluster::kill(ProcessId pid) {
  auto it = nodes_.find(pid);
  if (it == nodes_.end()) throw std::out_of_range("unknown process");
  Node& node = it->second;
  if (!node.alive) throw std::logic_error("process already down");
  engage_fault_tolerance();
  if (recorder_) recorder_->fault(obs::RecKind::kKill, pid, node.incarnations);
  // The auditor banks the dying process's conservation contributions (CDMs
  // sent/received, pending cut whitelists) before the state vanishes.
  auditor_->note_crash(pid, node.process->metrics());
  net_.detach(pid);  // purges its in-flight traffic, both directions
  // Freeze the account *after* the purge refunds landed: the dead pid's
  // balance is now exact and stays in the termination books (a crashed
  // process is never "pending work" — docs/FAULTS.md).
  termination_->mark_dead(pid);
  node.process.reset();
  node.detector.reset();
  node.distance.reset();
  node.suspicion.reset();
  node.summary_cache_valid = false;
  node.alive = false;
  net_.metrics().add("cluster.crashes");
  RGC_INFO("cluster: killed ", to_string(pid));
}

void Cluster::persist(ProcessId pid) {
  auto it = nodes_.find(pid);
  if (it == nodes_.end()) throw std::out_of_range("unknown process");
  Node& node = it->second;
  if (!node.alive) throw std::logic_error("cannot persist a dead process");
  // No metrics, no mutation-epoch effect: periodic persistence must be
  // invisible to deterministic runs (core/daemon.cpp calls this on its
  // snapshot cadence).
  node.image = gc::encode_image(node.process->capture_image(now()));
  node.image_epoch = node.process->mutation_epoch();
  if (recorder_) {
    recorder_->fault(obs::RecKind::kPersist, pid, node.image.size());
  }
}

void Cluster::persist_all() {
  for (auto& [pid, node] : nodes_) {
    if (node.alive) persist(pid);
  }
}

bool Cluster::restart(ProcessId pid) {
  auto it = nodes_.find(pid);
  if (it == nodes_.end()) throw std::out_of_range("unknown process");
  Node& node = it->second;
  if (node.alive) throw std::logic_error("process is not down");

  build_node(pid, node);
  ++node.incarnations;

  bool rehydrated = false;
  if (!node.image.empty()) {
    // Never silently mis-rehydrate: a corrupt or stale image is rejected
    // (check_image verdict) and the process restarts empty instead.
    const auto findings = obs::check_image(node.image, node.image_epoch);
    if (findings.empty()) {
      if (auto image = gc::decode_image(node.image)) {
        node.process->restore_image(*image, now());
        rehydrated = true;
      }
    }
    if (!rehydrated) {
      net_.metrics().add("cluster.restart_image_rejected");
      RGC_WARN("cluster: persisted image for ", to_string(pid), " rejected (",
               findings.empty() ? std::string("undecodable")
                                : findings.front().detail,
               "); restarting empty");
    }
  }
  net_.metrics().add("cluster.recoveries");

  // Lease re-registration in both directions BEFORE any reclamation can run
  // again — the safety of Adgc::expire_leases depends on it.
  for (auto& [q, qn] : nodes_) {
    if (q == pid || !qn.alive) continue;
    qn.process->note_heard(pid, now());
    node.process->note_heard(q, now());
  }
  // RecoverMsg first on every FIFO link, so each peer resets our recorded
  // NewSetStubs epoch before any reconciliation announcement arrives.
  for (auto& [q, qn] : nodes_) {
    if (q == pid || !qn.alive || !net_.reachable(pid, q)) continue;
    auto msg = std::make_unique<rm::RecoverMsg>();
    msg->incarnation = node.incarnations;
    net_.send(pid, q, std::move(msg));
    node.process->metrics().add("rm.recover_sent");
  }
  for (auto& [q, qn] : nodes_) {
    if (q == pid || !qn.alive || !net_.reachable(pid, q)) continue;
    send_reconciliation(*node.process, q);
  }
  if (recorder_) {
    recorder_->fault(obs::RecKind::kRestart, pid, node.incarnations,
                     rehydrated ? 1 : 0);
  }
  RGC_INFO("cluster: restarted ", to_string(pid),
           rehydrated ? " from persisted image" : " empty");
  return rehydrated;
}

bool Cluster::is_alive(ProcessId pid) const {
  auto it = nodes_.find(pid);
  return it != nodes_.end() && it->second.alive;
}

std::vector<ProcessId> Cluster::dead_process_ids() const {
  std::vector<ProcessId> out;
  for (const auto& [pid, node] : nodes_) {
    if (!node.alive) out.push_back(pid);
  }
  return out;
}

bool Cluster::has_image(ProcessId pid) const { return !image(pid).empty(); }

const std::string& Cluster::image(ProcessId pid) const {
  auto it = nodes_.find(pid);
  if (it == nodes_.end()) throw std::out_of_range("unknown process");
  return it->second.image;
}

void Cluster::set_image(ProcessId pid, std::string bytes) {
  auto it = nodes_.find(pid);
  if (it == nodes_.end()) throw std::out_of_range("unknown process");
  it->second.image = std::move(bytes);
}

void Cluster::partition(const std::vector<std::vector<ProcessId>>& groups) {
  engage_fault_tolerance();
  if (recorder_) {
    recorder_->fault(obs::RecKind::kPartition, kNoProcess, groups.size());
  }
  net_.set_partition(groups);
  net_.metrics().add("cluster.partitions");
}

void Cluster::heal() {
  if (!net_.partitioned()) return;
  if (recorder_) recorder_->fault(obs::RecKind::kHeal, kNoProcess);
  const std::map<ProcessId, std::uint32_t> groups = net_.partition_groups();
  net_.clear_partition();
  net_.metrics().add("cluster.heals");
  // Anti-entropy across the former cut: every live pair the mask separated
  // renews leases immediately (so this step's expiry sweep cannot retire
  // freshly-rebound state) and reconciles in both directions, in pid order.
  for (auto& [p, pn] : nodes_) {
    if (!pn.alive) continue;
    const auto pg = groups.find(p);
    if (pg == groups.end()) continue;
    for (auto& [q, qn] : nodes_) {
      if (raw(q) <= raw(p) || !qn.alive) continue;
      const auto qg = groups.find(q);
      if (qg == groups.end() || qg->second == pg->second) continue;
      pn.process->note_heard(q, now());
      qn.process->note_heard(p, now());
      send_reconciliation(*pn.process, q);
      send_reconciliation(*qn.process, p);
    }
  }
  RGC_INFO("cluster: partition healed");
}

void Cluster::send_reconciliation(rm::Process& from, ProcessId peer) {
  util::ScopedProcess ctx{from.id()};
  const ProcessId self = from.id();

  // (1) Re-bind: ask the peer to re-create the scion behind every stub we
  // hold toward it (its restart image may predate the export, or it may
  // have lease-expired us during a partition).
  std::size_t stubs_toward_peer = 0;
  for (const auto& [key, stub] : from.stubs()) {
    if (key.target_process != peer) continue;
    ++stubs_toward_peer;
    auto msg = std::make_unique<rm::RebindMsg>();
    msg->anchor = key.target;
    msg->ic = stub.ic;
    net_.send(self, peer, std::move(msg));
    from.metrics().add("rm.rebinds_sent");
  }

  // (2) Re-propagate every link we own toward the peer — the replica and
  // its inProp entry are re-created if the peer lost them — then (3) a
  // PropSync names exactly the links that exist on this side, so the peer
  // drops inProp entries whose parent half died with our lost state.
  std::vector<ObjectId> owned;
  for (const auto& e : from.out_props()) {
    if (e.process == peer) owned.push_back(e.object);
  }
  std::sort(owned.begin(), owned.end());
  owned.erase(std::unique(owned.begin(), owned.end()), owned.end());
  for (ObjectId obj : owned) {
    if (!from.has_replica(obj)) continue;
    from.propagate(obj, peer);
  }
  auto sync = std::make_unique<rm::PropSyncMsg>();
  sync->objects = owned;
  net_.send(self, peer, std::move(sync));
  from.metrics().add("rm.propsyncs_sent");

  // (4) Refresh the scion-retirement channel: with stubs toward the peer,
  // re-enter the NewSetStubs round so orphaned scions there retire on the
  // next collection; with none, one final empty (reliable) announcement
  // lets the peer drop every scion it still holds for us.
  if (stubs_toward_peer > 0) {
    from.stub_peers().insert(peer);
  } else {
    auto nss = std::make_unique<gc::NewSetStubsMsg>();
    nss->epoch = from.next_collection_epoch();
    nss->horizon = from.delivered_prop_seq(peer);
    nss->final_set = true;
    net_.send(self, peer, std::move(nss));
    from.metrics().add("adgc.newsetstubs_sent");
    from.stub_peers().erase(peer);
  }
  from.metrics().add("rm.reconciliations");
}

void Cluster::handle_cycle_found(ProcessId at, const gc::Cdm& cdm) {
  cycles_found_.push_back(cdm);
  // Before the Cut send, which the timeline parents on this verdict.
  if (recorder_) {
    recorder_->detection(obs::RecKind::kVerdict, at, cdm.detection_id,
                         cdm.candidate.object);
  }
  if (ledger_ != nullptr) {
    // The verdict fires on the serial dispatch (or detect) path, so the
    // ledger hook is deterministic.  Before sending the Cut, so zero-hop
    // local detections have a live record for the Cut send to charge.
    std::uint64_t unlinked = 0;
    if (const auto it = nodes_.find(cdm.candidate.process);
        it != nodes_.end() && it->second.alive) {
      if (const rm::Object* obj =
              it->second.process->heap().find(cdm.candidate.object)) {
        unlinked = obj->unlinked_at;
      }
    }
    ledger_->cycle_proven(at, cdm, unlinked);
  }
  if (!config_.auto_cut) return;
  auto cut = std::make_unique<gc::CutMsg>(gc::CycleDetector::make_cut(cdm));
  net_.send(at, cdm.candidate.process, std::move(cut));
}

}  // namespace rgc::core
