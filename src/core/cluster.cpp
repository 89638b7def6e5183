#include "core/cluster.h"

#include <algorithm>
#include <bit>
#include <set>
#include <stdexcept>
#include <utility>

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
  // One event stream feeds both the recording and the ledger, so it runs
  // whenever either is on.
  if (config_.ledger_capacity > 0) {
    ledger_ = std::make_unique<obs::Ledger>(config_.ledger_capacity,
                                            config_.net.min_delay);
  }
  if (config_.record_capacity > 0 || ledger_ != nullptr) {
    recorder_ = std::make_unique<obs::FlightRecorder>(
        obs::RecorderConfig{config_.record_capacity}, &net_, ledger_.get());
    net_.add_observer(recorder_.get());
  }
  starts_covered_ = net_.metrics().counter("cycle.starts_covered");
  starts_queued_ = net_.metrics().counter("cycle.starts_queued");
  quiescence_timeout_ = net_.metrics().counter("cluster.quiescence_timeout");
  quiescence_dead_pids_ = net_.metrics().gauge("cluster.quiescence_dead_pids");
  quiescence_truncated_ = net_.metrics().gauge("cluster.quiescence_truncated");
  crashes_ = net_.metrics().counter("cluster.crashes");
  recoveries_ = net_.metrics().counter("cluster.recoveries");
  restart_image_rejected_ =
      net_.metrics().counter("cluster.restart_image_rejected");
  partitions_ = net_.metrics().counter("cluster.partitions");
  heals_ = net_.metrics().counter("cluster.heals");
  for (std::size_t i = 0; i < kUnlockKinds.size(); ++i) {
    unlock_delivered_[i] =
        net_.metrics().counter(std::string{"net.delivered."} + kUnlockKinds[i]);
  }
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
  stamp.min_delay = config_.net.min_delay;
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
  node.suspicion = std::make_unique<gc::SuspicionAgeTracker>();
  node.detector->on_cycle_found = [this, pid](const gc::Cdm& cdm) {
    handle_cycle_found(pid, cdm);
  };
  node.detector->set_profile(&profile_.histogram("cycle.detect_us"));
  node.process->set_recorder(recorder_.get());
  node.last_summary_fresh = true;
  node.alive = true;
  node.covered.clear();
  node.detecting = false;
  node.queued.clear();
  net_.attach(pid, [this, pid](const net::Envelope& env, net::Message& msg) {
    dispatch(pid, env, msg);
  });
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
    if (obs::FlightRecorder* rec = recorder()) {
      const std::uint64_t errors = auditor_->report().errors();
      if (errors > recorded_audit_errors_) {
        rec->append(obs::RecKind::kAuditError, kNoProcess, errors);
        recorded_audit_errors_ = errors;
        if (!config_.record_dump_path.empty() && !audit_error_dumped_) {
          // First ERROR: freeze the evidence while it is still fresh.
          audit_error_dumped_ = true;
          obs::dump_recording(*rec, recorder_stamp(),
                              config_.record_dump_path);
        }
      }
    }
  }
  if (net_.idle()) start_waves();
}

std::uint64_t Cluster::heartbeat_interval() const noexcept {
  if (config_.heartbeat_interval != 0) return config_.heartbeat_interval;
  const std::uint64_t derived = config_.lease_timeout / 4;
  return derived == 0 ? 1 : derived;
}

std::uint64_t Cluster::next_event_delta() const {
  // Queued detection starts on an idle network begin at the end of the
  // next step, as they would under step().
  if (net_.idle() && starts_queued()) return 1;
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
  // Queued starts whose predecessors sent nothing begin here; later waves
  // begin inside advance_clock, whenever the network drains.
  if (net_.idle()) start_waves();
  while (!net_.idle() && now() - start < max_steps) {
    const std::uint64_t budget = max_steps - (now() - start);
    advance_clock(std::min(next_event_delta(), budget));
  }
  const std::uint64_t steps = now() - start;
  const bool quiescent = net_.idle() && !starts_queued();
  const std::size_t in_flight = net_.in_flight();
  if (!quiescent) {
    // Giving up with traffic still queued means protocol rounds (ADGC
    // hand-shakes, CDM tracks) were cut short — callers used to get no
    // signal at all.  Count it and say so.
    quiescence_timeout_.inc();
    RGC_WARN("cluster: run_until_quiescent gave up after ", max_steps,
             " steps with ", in_flight, " messages still in flight");
  }
  // Crashed processes are not pending work: kill() purged their traffic,
  // so they never hold up quiescence — callers see them in `dead` instead.
  const std::size_t dead = nodes_.size() - process_count();
  // Why a run stalled, as registered gauges: crashed members vs a genuine
  // truncation (gave up with traffic still in flight).
  quiescence_dead_pids_.set(dead);
  quiescence_truncated_.set(quiescent ? 0 : 1);
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

const gc::LgcResult& Cluster::collect(ProcessId id) {
  Node& node = live_node(id);
  collect_nodes({&node});
  return node.last_collection;
}

std::uint64_t Cluster::collect_all() {
  const std::vector<Node*> nodes = live_nodes();
  const std::uint64_t reclaimed = collect_nodes(nodes);
  if (recorder_) {
    recorder_->phase(obs::kPhaseCollectRound, reclaimed, nodes.size());
  }
  return reclaimed;
}

std::uint64_t Cluster::collect_nodes(const std::vector<Node*>& nodes) {
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

  // One decision per node, by the tags its kept result carries: a process
  // still at the mutation epoch it was tagged with changed nothing a trace
  // reads, so a fresh mark would reproduce the kept result, with nothing to
  // sweep; one still at the tagged root epoch changed only scions and
  // propagation lists, so the root family's classes stand and only the
  // remotely anchored closure is retraced — when the kept result listed
  // it, because it was small beside the heap.
  enum class Path : std::uint8_t { kFresh, kRemote, kReuse };
  std::vector<Path> path(n, Path::kFresh);
  for (std::size_t i = 0; i < n; ++i) {
    const Node& node = *nodes[i];
    if (node.last_collection_epoch == node.process->mutation_epoch()) {
      path[i] = Path::kReuse;
    } else if (node.last_root_epoch == node.process->root_epoch() &&
               node.last_collection.remote_kept) {
      path[i] = Path::kRemote;
    }
  }

  // Phase 1 — trace, then the sweep's read-only heap scan (parallel across
  // processes), for every node that cannot reuse its mark.  Everything
  // proportional to the live heap happens here.
  std::vector<gc::LgcMark> marks(n);
  {
    util::ScopedTimerUs timer{&profile_.histogram("lgc.mark_us")};
    pool().parallel_for(n, [&](std::size_t i) {
      const rm::Process& proc = *nodes[i]->process;
      // Either way the kept result's buffers are refilled, so the classes
      // of a process never live twice and are not reallocated.
      gc::LgcResult& kept = nodes[i]->last_collection;
      switch (path[i]) {
        case Path::kReuse:
          return;
        case Path::kRemote:
          marks[i] = gc::Lgc::mark_remote(proc, std::move(kept), cfg);
          return;
        case Path::kFresh:
          marks[i] = gc::Lgc::mark(proc, cfg);
          marks[i].result = std::move(kept);
          gc::Lgc::scan(proc, marks[i]);
          return;
      }
    });
  }

  // Phase 2 — reclaim + finalize the unmarked objects (mutating, shared
  // finalizer: serial); a reused mark has none, so it only re-records the
  // kept result.  The tags are the epochs right after this phase: the
  // sweep and stub drops it makes do not change the survivors' marks.
  std::uint64_t reclaimed = 0;
  {
    util::ScopedTimerUs timer{&profile_.histogram("lgc.apply_us")};
    for (std::size_t i = 0; i < n; ++i) {
      Node& node = *nodes[i];
      rm::Process& proc = *node.process;
      util::ScopedProcess ctx{proc.id()};
      if (path[i] == Path::kReuse) {
        gc::Lgc::reuse(proc, node.last_collection);
      } else {
        if (path[i] == Path::kRemote) proc.counters().marks_remote.inc();
        node.last_collection = gc::Lgc::apply(proc, std::move(marks[i]), cfg);
      }
      node.last_collection_epoch = proc.mutation_epoch();
      node.last_root_epoch = proc.root_epoch();
      reclaimed += node.last_collection.reclaimed.size();
    }
  }

  // Phase 3 — suspicion-age digest + ADGC protocol messages (sends
  // traffic: serial, pid order), on the fresh or the kept result alike, so
  // NewSetStubs resends, lease cadence and suspicion ages do not depend on
  // reuse.  The digest's work follows the unrooted objects, not the heap.
  // A tag is kept only if this phase left its epoch there (dismantling a
  // propagation tree unlinks what the mark saw; it moves the mutation
  // epoch alone) and no finalizer resurrected an object (it stays
  // unmarked, to be swept by the next fresh collection).
  util::ScopedTimerUs timer{&profile_.histogram("adgc.digest_us")};
  for (std::size_t i = 0; i < n; ++i) {
    Node& node = *nodes[i];
    rm::Process& proc = *node.process;
    util::ScopedProcess ctx{proc.id()};
    node.suspicion->after_collection(proc, node.last_collection);
    gc::Adgc::after_collection(proc, node.last_collection);
    const bool resurrected = node.last_collection.resurrected != 0;
    if (resurrected || node.last_collection_epoch != proc.mutation_epoch()) {
      node.last_collection_epoch.reset();
    }
    if (resurrected || node.last_root_epoch != proc.root_epoch()) {
      node.last_root_epoch.reset();
    }
  }
  return reclaimed;
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
  // Summarize concurrently (read-only per process), install serially so
  // detector bookkeeping and metrics land in pid order.  A process still
  // at the mutation epoch its installed summary captured is not
  // summarized: a fresh summarize() would reproduce that summary bit for
  // bit, only with a newer timestamp, so the detector keeps it.
  const std::size_t n = nodes.size();
  std::vector<std::optional<gc::ProcessSummary>> fresh(n);
  {
    util::ScopedTimerUs timer{&profile_.histogram("cycle.summarize_us")};
    pool().parallel_for(n, [&](std::size_t i) {
      const gc::CycleDetector& detector = *nodes[i]->detector;
      const rm::Process& proc = *nodes[i]->process;
      if (!detector.has_snapshot() ||
          detector.summary().mutation_epoch != proc.mutation_epoch()) {
        fresh[i] = gc::summarize(proc);
      }
    });
  }
  {
    util::ScopedTimerUs timer{&profile_.histogram("cycle.install_us")};
    for (std::size_t i = 0; i < n; ++i) {
      Node& node = *nodes[i];
      util::ScopedProcess ctx{node.process->id()};
      if (fresh[i].has_value()) {
        node.detector->install_snapshot(std::move(*fresh[i]));
      } else {
        node.detector->reinstall_snapshot(net_.now());
        node.process->counters().summarize_reused.inc();
      }
      node.last_summary_fresh = fresh[i].has_value();
      // A new snapshot may see what the old one hid (a cut that went
      // stale, a suspect that became garbage): nothing stays covered or
      // queued.
      node.covered.clear();
      node.detecting = false;
      node.queued.clear();
    }
  }
  update_dirty_gauge();
}

std::optional<std::uint64_t> Cluster::detect(ProcessId at, ObjectId candidate) {
  return start_detection(live_node(at), candidate, /*paced=*/true);
}

std::optional<std::uint64_t> Cluster::start_detection(Node& node,
                                                      ObjectId candidate,
                                                      bool paced) {
  // Skipping never cuts anything, so neither branch touches safety.  Only a
  // verdict covers, and run_full_gc runs another round (fresh snapshots,
  // nothing covered) after any round that proved a cycle.
  if (node.covered.contains(candidate)) {
    starts_covered_.inc();
    return std::nullopt;
  }
  if (paced && node.detecting) {
    node.queued.push_back(candidate);
    starts_queued_.inc();
    return std::nullopt;
  }
  const auto id = node.detector->start_detection(candidate);
  if (paced && id.has_value()) node.detecting = true;
  return id;
}

bool Cluster::starts_queued() const {
  return std::any_of(nodes_.begin(), nodes_.end(), [](const auto& entry) {
    return !entry.second.queued.empty();
  });
}

void Cluster::start_waves() {
  while (net_.idle() && starts_queued()) {
    for (auto& [pid, node] : nodes_) {
      // A queued suspect that is covered, or that no longer starts (its
      // snapshot sees it locally live), gives its turn to the next one.
      while (!node.queued.empty()) {
        const ObjectId suspect = node.queued.front();
        node.queued.pop_front();
        if (node.covered.contains(suspect)) {
          starts_covered_.inc();
          continue;
        }
        util::ScopedProcess ctx{pid};
        if (node.detector->start_detection(suspect).has_value()) break;
      }
    }
  }
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
      std::uint64_t signal = 0;
      for (const util::Counter& c : unlock_delivered_) signal += c.value();
      for (const auto& [pid, node] : nodes_) {
        if (!node.alive) continue;
        const rm::ProcessCounters& c = node.process->counters();
        signal += c.scions_deleted.value() + c.lease_expirations.value();
      }
      return signal;
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

    // Cyclic phase: fresh snapshots, then every suspect goes to detect():
    // one detection per process starts now, the rest follow in waves while
    // the network drains, and suspects a verdict has covered are skipped.
    snapshot_all();
    for (ProcessId pid : process_ids()) {
      stats.detections_started += start_detections(pid);
    }
    run_until_quiescent();

    const std::uint64_t new_cycles = cycles_found_.size() - cycles_before;
    stats.cycles_found += new_cycles;
    if (reclaimed_this_round == 0 && new_cycles == 0) break;
  }
  return stats;
}

std::set<ObjectId> Cluster::suspects(ProcessId id) {
  Node& node = nodes_.at(id);
  if (!node.alive) return {};
  if (!node.detector->has_snapshot()) return {};
  const gc::ProcessSummary& s = node.detector->summary();
  std::set<ObjectId> suspects;
  for (const auto& [key, scion] : s.scions) {
    if (!scion.local_reach) suspects.insert(key.anchor);
  }
  for (const auto& [obj, rep] : s.replicas) {
    if (!rep.local_reach) suspects.insert(obj);
  }
  return suspects;
}

std::uint64_t Cluster::start_detections(ProcessId id, std::size_t budget) {
  util::ScopedProcess ctx{id};
  const std::set<ObjectId> picked = suspects(id);
  std::vector<ObjectId> order(picked.begin(), picked.end());
  if (budget != 0 && order.size() > budget) {
    // Objects that survived the most collections anchored only remotely
    // are the likeliest cycle members; sorting stably over the id-ordered
    // set lets id order break ties, so the pick is deterministic.
    const gc::SuspicionAgeTracker& tracker = *nodes_.at(id).suspicion;
    std::stable_sort(order.begin(), order.end(),
                     [&tracker](ObjectId a, ObjectId b) {
                       return tracker.age(a) > tracker.age(b);
                     });
    order.resize(budget);
  }
  Node& node = nodes_.at(id);  // a dead one has no suspects
  std::uint64_t started = 0;
  for (ObjectId suspect : order) {
    if (start_detection(node, suspect, /*paced=*/budget == 0).has_value()) {
      ++started;
    }
  }
  return started;
}

std::uint64_t Cluster::total_objects() const {
  std::uint64_t total = 0;
  for (const auto& [pid, node] : nodes_) {
    if (node.alive) total += node.process->heap().size();
  }
  return total;
}

std::uint64_t Cluster::metric_total(const std::string& name) const {
  const auto retired = retired_counters_.find(name);
  std::uint64_t total = retired == retired_counters_.end() ? 0 : retired->second;
  for (const auto& [pid, node] : nodes_) {
    if (node.alive) total += node.process->metrics().get(name);
  }
  return total;
}

void Cluster::dispatch(ProcessId pid, const net::Envelope& env,
                       net::Message& msg) {
  Node& node = nodes_.at(pid);
  // Any delivery is proof of life: renew the sender's lease.  Deliberately
  // epoch-silent (rm::Process::note_heard), so piggybacked heartbeats never
  // invalidate the dirty-epoch summary cache.
  node.process->note_heard(env.src, net_.now());
  const net::Message* m = &msg;
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
    node.process->counters().recover_received.inc();
    send_reconciliation(*node.process, env.src);
  } else if (const auto* p = dynamic_cast<const rm::RebindMsg*>(m)) {
    node.process->on_rebind(env, *p);
  } else if (const auto* p = dynamic_cast<const rm::RebindNackMsg*>(m)) {
    node.process->on_rebind_nack(env, *p);
  } else if (const auto* p = dynamic_cast<const rm::PropSyncMsg*>(m)) {
    node.process->on_prop_sync(env, *p);
  } else if (const auto* p = dynamic_cast<const gc::NewSetStubsMsg*>(m)) {
    gc::Adgc::on_new_set_stubs(*node.process, env, *p);
  } else if (const auto* p = dynamic_cast<const gc::UnreachableMsg*>(m)) {
    gc::Adgc::on_unreachable(*node.process, env, *p);
  } else if (const auto* p = dynamic_cast<const gc::ReclaimMsg*>(m)) {
    gc::Adgc::on_reclaim(*node.process, env, *p);
  } else if (auto* p = dynamic_cast<gc::CdmMsg*>(&msg)) {
    node.detector->on_cdm(env, *p);  // takes the payload
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
  if (recorder_) recorder_->append(obs::RecKind::kKill, pid, node.incarnations);
  // The auditor banks the dying process's conservation contributions (CDMs
  // sent/received, pending cut whitelists) before the state vanishes.
  auditor_->note_crash(pid, node.process->metrics());
  // The restart builds a fresh process with zeroed counters: bank what
  // this incarnation counted so metric_total keeps it.
  for (const auto& [name, value] : node.process->metrics().snapshot()) {
    retired_counters_[name] += value;
  }
  net_.detach(pid);  // purges its in-flight traffic, both directions
  node.process.reset();
  node.detector.reset();
  node.suspicion.reset();
  node.last_collection = {};
  node.last_collection_epoch.reset();
  node.last_root_epoch.reset();
  node.alive = false;
  node.queued.clear();  // no wave may start on a dead process
  crashes_.inc();
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
    recorder_->append(obs::RecKind::kPersist, pid, node.image.size());
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
    rm::ProcessImage image;
    const auto findings =
        obs::check_image(node.image, node.image_epoch, &image);
    if (findings.empty()) {
      node.process->restore_image(image, now());
      rehydrated = true;
    } else {
      restart_image_rejected_.inc();
      RGC_WARN("cluster: persisted image for ", to_string(pid), " rejected (",
               findings.front().detail, "); restarting empty");
    }
  }
  recoveries_.inc();

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
    node.process->counters().recover_sent.inc();
  }
  for (auto& [q, qn] : nodes_) {
    if (q == pid || !qn.alive || !net_.reachable(pid, q)) continue;
    send_reconciliation(*node.process, q);
  }
  if (recorder_) {
    recorder_->append(obs::RecKind::kRestart, pid, node.incarnations,
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
    recorder_->append(obs::RecKind::kPartition, kNoProcess, groups.size());
  }
  net_.set_partition(groups);
  partitions_.inc();
}

void Cluster::heal() {
  if (!net_.partitioned()) return;
  if (recorder_) recorder_->append(obs::RecKind::kHeal, kNoProcess);
  const std::map<ProcessId, std::uint32_t> groups = net_.partition_groups();
  net_.clear_partition();
  heals_.inc();
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
    from.counters().rebinds_sent.inc();
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
  from.counters().propsyncs_sent.inc();

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
    from.counters().newsetstubs_sent.inc();
    from.stub_peers().erase(peer);
  }
  from.counters().reconciliations.inc();
}

void Cluster::handle_cycle_found(ProcessId at, const gc::Cdm& cdm) {
  cycles_found_.push_back(cdm);
  // The verdict proves the candidate's whole requirement closure garbage:
  // every member is covered until its process snapshots again.  Reference
  // link elements count by their target replica — some members (a strand's
  // tail) appear in the closure only as a link.
  for (const gc::Element& e : cdm.required_closure()) {
    if (const auto it = nodes_.find(e.replica.process);
        it != nodes_.end() && it->second.alive) {
      it->second.covered.insert(e.replica.object);
    }
  }
  // Before the Cut send, which the timeline parents on this verdict and
  // the ledger charges to its entry.
  if (recorder_) {
    std::uint64_t unlinked = 0;  // when the candidate became garbage
    if (const auto it = nodes_.find(cdm.candidate.process);
        it != nodes_.end() && it->second.alive) {
      if (const rm::Object* obj =
              it->second.process->heap().find(cdm.candidate.object)) {
        unlinked = obj->unlinked_at;
      }
    }
    recorder_->verdict(at, cdm, unlinked);
  }
  if (!config_.auto_cut) return;
  for (auto& [member, cut] : gc::CycleDetector::make_cuts(cdm)) {
    net_.send(at, member.process, std::make_unique<gc::CutMsg>(std::move(cut)));
  }
}

}  // namespace rgc::core
