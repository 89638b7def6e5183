#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string_view>

#include "util/log.h"
#include "util/trace.h"

namespace rgc::net {

Network::Network(NetworkConfig config)
    : config_(config), rng_(config.seed ^ 0xa5a5a5a5a5a5a5a5ULL) {
  if (config_.min_delay < 1) config_.min_delay = 1;
  if (config_.max_delay < config_.min_delay) config_.max_delay = config_.min_delay;
  dropped_ = metrics_.counter("net.dropped");
  duplicated_ = metrics_.counter("net.duplicated");
  queue_depth_ = metrics_.gauge("net.queue_depth");
  queue_depth_hist_ = &metrics_.histogram("net.queue_depth");
}

void Network::attach(ProcessId process, Handler handler) {
  handlers_[process] = std::move(handler);
  dead_.erase(process);
}

void Network::detach(ProcessId process) {
  handlers_.erase(process);
  dead_.insert(process);
  // A crash loses everything addressed to the process *and* everything it
  // had in flight: those messages existed only in kernel buffers of a node
  // that no longer exists.
  const std::size_t purged = purge_in_flight([process](const InFlight& m) {
    return m.src == process || m.dst == process;
  });
  if (purged != 0) {
    RGC_TRACE("net: detach ", to_string(process), " purged ", purged,
              " in-flight messages");
  }
}

void Network::add_observer(Observer* observer) {
  if (observer == nullptr) return;
  if (std::find(observers_.begin(), observers_.end(), observer) ==
      observers_.end()) {
    observers_.push_back(observer);
  }
}

void Network::emit_send(const Envelope& env) {
  for (Observer* o : observers_) o->on_send(env);
}

void Network::emit_deliver(const Envelope& env) {
  for (Observer* o : observers_) o->on_deliver(env);
}

void Network::emit_drop(const Envelope& env) {
  for (Observer* o : observers_) o->on_drop(env);
}

void Network::emit_duplicate(const Envelope& env) {
  for (Observer* o : observers_) o->on_duplicate(env);
}

std::uint32_t Network::group_of(ProcessId p) const {
  const auto it = partition_group_.find(p);
  return it == partition_group_.end() ? 0 : it->second;
}

bool Network::reachable(ProcessId src, ProcessId dst) const {
  if (dead_.contains(src) || dead_.contains(dst)) return false;
  return group_of(src) == group_of(dst);
}

void Network::set_partition(const std::vector<std::vector<ProcessId>>& groups) {
  partition_group_.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const ProcessId p : groups[g]) {
      partition_group_[p] = static_cast<std::uint32_t>(g);
    }
  }
  // Messages already crossing the cut are lost, not parked: a partition in
  // this model severs links outright, and heal() re-delivers nothing.
  purge_in_flight([this](const InFlight& m) {
    return group_of(m.src) != group_of(m.dst);
  });
}

void Network::clear_partition() { partition_group_.clear(); }

std::size_t Network::purge_in_flight(
    const std::function<bool(const InFlight&)>& pred) {
  std::size_t purged = 0;
  for (auto bucket = in_flight_.begin(); bucket != in_flight_.end();) {
    auto& queue = bucket->second;
    for (auto it = queue.begin(); it != queue.end();) {
      if (!pred(*it)) {
        ++it;
        continue;
      }
      KindCounters& kc = counters_for(it->msg->kind());
      dropped_.inc();
      kc.dropped.inc();
      --kc.in_flight;
      --in_flight_count_;
      ++purged;
      emit_drop(Envelope{it->src, it->dst, it->seq, it->sent_at, it->msg.get()});
      it = queue.erase(it);
    }
    bucket = queue.empty() ? in_flight_.erase(bucket) : std::next(bucket);
  }
  return purged;
}

Network::KindCounters& Network::counters_for(const char* kind) {
  auto it = kind_counters_.find(std::string_view{kind});
  if (it == kind_counters_.end()) {
    const std::string k{kind};
    KindCounters handles{static_cast<std::uint32_t>(kind_counters_.size()),
                         metrics_.counter("net.sent." + k),
                         metrics_.counter("net.delivered." + k),
                         metrics_.counter("net.weight." + k),
                         metrics_.counter("net.dropped." + k),
                         metrics_.counter("net.duplicated." + k)};
    it = kind_counters_.emplace(k, handles).first;
  }
  return it->second;
}

std::uint64_t Network::send(ProcessId src, ProcessId dst, MessagePtr msg) {
  assert(msg != nullptr);
  const char* kind = msg->kind();
  KindCounters& counters = counters_for(kind);
  counters.sent.inc();
  counters.weight.inc(msg->weight());
  if (per_step_sent_.size() <= now_) per_step_sent_.resize(now_ + 1);
  auto& at_step = per_step_sent_[now_];
  if (at_step.size() <= counters.id) at_step.resize(counters.id + 1, 0);
  ++at_step[counters.id];

  const std::uint64_t seq = ++link_seq_[{src, dst}];
  emit_send(Envelope{src, dst, seq, now_, msg.get()});
  // Fault model: a dead destination or a partition cut loses the message at
  // the source, reliable or not — "reliable" means the transport never loses
  // it, not that it outlives the endpoints or a severed link.
  if (dead_.contains(dst) ||
      (!partition_group_.empty() && group_of(src) != group_of(dst))) {
    dropped_.inc();
    counters.dropped.inc();
    emit_drop(Envelope{src, dst, seq, now_, msg.get()});
    return seq;
  }
  if (!msg->reliable() && rng_.chance(config_.drop_probability)) {
    dropped_.inc();
    counters.dropped.inc();
    emit_drop(Envelope{src, dst, seq, now_, msg.get()});
    return seq;
  }
  enqueue(src, dst, std::move(msg), seq, now_, counters);
  return seq;
}

void Network::enqueue(ProcessId src, ProcessId dst, MessagePtr msg,
                      std::uint64_t seq, std::uint64_t sent_at,
                      KindCounters& counters) {
  const auto delay =
      config_.min_delay +
      (config_.max_delay > config_.min_delay
           ? rng_.below(config_.max_delay - config_.min_delay + 1)
           : 0);
  std::uint64_t due = now_ + delay;
  if (msg->reliable()) {
    // Per-link FIFO: a reliable message never overtakes an earlier one.
    auto& horizon = reliable_due_[{src, dst}];
    due = std::max(due, horizon);
    horizon = due;
  } else if (rng_.chance(config_.duplicate_probability)) {
    duplicated_.inc();
    counters.duplicated.inc();
    emit_duplicate(Envelope{src, dst, seq, sent_at, msg.get()});
    // The clone lands one step after the original, so (src, dst, seq) stays
    // unique within every due bucket.
    in_flight_[now_ + delay + 1].push_back(
        {src, dst, seq, sent_at, msg->clone()});
    ++in_flight_count_;
    ++counters.in_flight;
  }
  in_flight_[due].push_back({src, dst, seq, sent_at, std::move(msg)});
  ++in_flight_count_;
  ++counters.in_flight;
}

bool Network::step() {
  ++now_;
  util::set_sim_now(now_);
  // Drain every due bucket (normally exactly one: delays are >= 1, so no
  // bucket can age past its step unnoticed).  Delivery order matches the
  // old full sort: due step ascending (map order), then link, then send
  // order — (src, dst, seq) is unique within a bucket, so sorting the
  // bucket reproduces it exactly.
  while (!in_flight_.empty() && in_flight_.begin()->first <= now_) {
    std::vector<InFlight> due = std::move(in_flight_.begin()->second);
    in_flight_.erase(in_flight_.begin());
    in_flight_count_ -= due.size();
    std::sort(due.begin(), due.end(), [](const InFlight& a, const InFlight& b) {
      return std::tie(a.src, a.dst, a.seq) < std::tie(b.src, b.dst, b.seq);
    });
    for (auto& m : due) {
      auto it = handlers_.find(m.dst);
      if (it == handlers_.end()) {
        throw std::logic_error("message addressed to unattached process " +
                               to_string(m.dst));
      }
      KindCounters& kc = counters_for(m.msg->kind());
      kc.delivered.inc();
      --kc.in_flight;
      // Handler runs in the destination's context: RGC_LOG lines it emits
      // are attributed to (step, dst).
      const util::ScopedProcess ctx{m.dst};
      RGC_TRACE("net: deliver ", m.msg->kind(), " ", to_string(m.src), "->",
                to_string(m.dst));
      const Envelope env{m.src, m.dst, m.seq, m.sent_at, m.msg.get()};
      emit_deliver(env);
      it->second(env, *m.msg);
    }
  }

  const std::uint64_t depth = in_flight_count_;
  queue_depth_.set(depth);
  queue_depth_hist_->record(depth);
  return in_flight_count_ != 0;
}

void Network::skip_to(std::uint64_t target) {
  if (target <= now_) return;
  assert(in_flight_.empty() || in_flight_.begin()->first > target);
  now_ = target;
  util::set_sim_now(now_);
}

std::uint64_t Network::sent_at_step(const std::string& kind,
                                    std::uint64_t step) const {
  if (step >= per_step_sent_.size()) return 0;
  auto it = kind_counters_.find(kind);
  if (it == kind_counters_.end()) return 0;
  const auto& at = per_step_sent_[step];
  return it->second.id < at.size() ? at[it->second.id] : 0;
}

std::uint64_t Network::total_sent(const std::string& kind) const {
  return metrics_.get("net.sent." + kind);
}

std::vector<Network::KindFlow> Network::kind_flows() const {
  std::vector<KindFlow> out;
  out.reserve(kind_counters_.size());
  for (const auto& [kind, c] : kind_counters_) {
    out.push_back(KindFlow{kind, c.sent.value(), c.delivered.value(),
                           c.dropped.value(), c.duplicated.value(),
                           c.in_flight});
  }
  return out;
}

std::uint64_t Network::in_flight_of(std::string_view kind) const {
  auto it = kind_counters_.find(kind);
  return it == kind_counters_.end() ? 0 : it->second.in_flight;
}

}  // namespace rgc::net
