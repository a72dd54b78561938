#include "proto/distributed_mot.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "adapt/adaptive.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"
#include "proto/cluster_link.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mot::proto {

namespace {

constexpr int kMaxQueryRestarts = 1000;
// Retransmission gives up only when something is structurally wrong: with
// any loss rate < 1 the expected attempt count is small, so hitting the
// cap means a message is being sent to a node that can never ack (a
// protocol bug — crashes cancel their transfers during recovery).
constexpr int kMaxTransferAttempts = 100;

// Detection-list maintenance traffic: the message kinds the batching
// window may stage and that crash recovery / rebuild epochs gate.
bool is_maintenance_type(MsgType type) {
  switch (type) {
    case MsgType::kPublish:
    case MsgType::kInsert:
    case MsgType::kDelete:
    case MsgType::kSdlAdd:
    case MsgType::kSdlRemove:
      return true;
    default:
      return false;
  }
}

// Query walker traffic: climbs, descents (direct or via a replica) and
// the reply travelling home.
bool is_query_type(MsgType type) {
  return type == MsgType::kQueryUp || type == MsgType::kQueryDown ||
         type == MsgType::kQueryDownReplica || type == MsgType::kQueryReply;
}

// Walker spine hops advance a trace's span cursor; everything else a
// handler sends (SDL / replica bookkeeping) branches off the current
// spine span without moving it, so a walk's spine reads as one chain
// with leaf branches.
bool is_spine_hop(MsgType type) {
  return is_query_type(type) || type == MsgType::kPublish ||
         type == MsgType::kInsert || type == MsgType::kDelete;
}

}  // namespace

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kPublish:
      return "publish";
    case MsgType::kInsert:
      return "insert";
    case MsgType::kDelete:
      return "delete";
    case MsgType::kQueryUp:
      return "query-up";
    case MsgType::kQueryDown:
      return "query-down";
    case MsgType::kQueryReply:
      return "query-reply";
    case MsgType::kSdlAdd:
      return "sdl-add";
    case MsgType::kSdlRemove:
      return "sdl-remove";
    case MsgType::kReplicaAdd:
      return "replica-add";
    case MsgType::kReplicaRemove:
      return "replica-remove";
    case MsgType::kQueryDownReplica:
      return "query-down-replica";
  }
  return "?";
}

DistributedMot::DistributedMot(const PathProvider& provider, Simulator& sim,
                               const ChainOptions& options)
    : provider_(&provider), sim_(&sim), options_(options),
      sensors_(provider.num_nodes()) {
  // Shortcut descent needs a node to read a remote chain locally, which a
  // message-passing node cannot do; the centralized engines model it.
  MOT_EXPECTS(!options.shortcut_descent);
}

void DistributedMot::use_channel(Channel* channel) {
  MOT_EXPECTS(channel != nullptr);
  MOT_EXPECTS(inflight_ == 0);  // attach before injecting traffic
  MOT_EXPECTS(!batching_);      // frames own their delivery path
  channel_ = channel;
  channel->subscribe_crashes(
      [this](NodeId node) { recover_from_crash(node); });
}

void DistributedMot::replicate_detection_lists(bool on) {
  MOT_EXPECTS(inflight_ == 0);  // enable before injecting traffic
  MOT_EXPECTS(proxies_.empty());
  replica_mode_ = on ? ReplicaMode::kAll : ReplicaMode::kOff;
}

void DistributedMot::replicate_placed() {
  MOT_EXPECTS(inflight_ == 0);  // enable before injecting traffic
  MOT_EXPECTS(proxies_.empty());
  replica_mode_ = ReplicaMode::kPlaced;
}

void DistributedMot::use_adaptive(adapt::AdaptiveController* controller) {
  MOT_EXPECTS(controller != nullptr);
  // The AIMD loop rides ack/timeout feedback and the tuner reads the
  // service model's load gauges; both only exist with overload engaged.
  MOT_EXPECTS(service_ != nullptr);
  MOT_EXPECTS(inflight_ == 0);  // attach before injecting traffic
  adapt_ = controller;
  divert_attempts_.assign(sensors_.size(), 0);
  degraded_by_node_.assign(sensors_.size(), 0);
}

void DistributedMot::use_overload(ServiceModel* service) {
  MOT_EXPECTS(service != nullptr);
  // Backpressure rides the link layer: shed frames are recovered by the
  // sender's retransmission, which only exists with a channel attached.
  MOT_EXPECTS(channel_ != nullptr);
  MOT_EXPECTS(inflight_ == 0);  // attach before injecting traffic
  service_ = service;
}

void DistributedMot::use_batching(bool on) {
  MOT_EXPECTS(inflight_ == 0);  // enable before injecting traffic
  MOT_EXPECTS(staged_.empty());
  // Batching coalesces simulator deliveries; the reliable link layer,
  // overload model, and cluster transport each own their own delivery
  // path (frames, admission queues, shard forwarding), so they are
  // mutually exclusive with it.
  MOT_EXPECTS(!on || (channel_ == nullptr && service_ == nullptr &&
                      cluster_ == nullptr));
  batching_ = on;
}

overload::Priority DistributedMot::classify(MsgType type, int attempt) {
  // Retransmitted frames carry work the sender already paid transport
  // for; dropping them again multiplies the waste, so they escalate past
  // fresh maintenance and query traffic.
  if (attempt > 0) return overload::Priority::kTransport;
  if (type == MsgType::kReplicaAdd || type == MsgType::kReplicaRemove) {
    return overload::Priority::kRecovery;
  }
  return is_maintenance_type(type) ? overload::Priority::kMaintenance
                                   : overload::Priority::kQuery;
}

std::size_t DistributedMot::window_cap(NodeId to) const {
  const std::size_t max = service_->config().max_window;
  if (adapt_ != nullptr) return adapt_->window_cap(to, max);
  return max;
}

DistributedMot::LinkCredit& DistributedMot::credit_for(NodeId to) {
  LinkCredit& credit = credit_[to];
  if (credit.window == 0) credit.window = window_cap(to);
  return credit;
}

overload::CircuitBreaker& DistributedMot::breaker_for(NodeId from,
                                                      NodeId to) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(from) << 32) | to;
  const auto it = breakers_.find(key);
  if (it != breakers_.end()) return it->second;
  const overload::OverloadConfig& config = service_->config();
  return breakers_
      .emplace(key, overload::CircuitBreaker(config.breaker_threshold,
                                             config.breaker_cooldown))
      .first->second;
}

NodeId DistributedMot::replica_of(OverlayNode role, ObjectId object) const {
  const std::uint64_t n = sensors_.size();
  if (n <= 1) return kInvalidNode;
  // Deterministic rehash: everyone (writer, reader, recovery) derives
  // the same slot from the role and object alone, re-probing past dead
  // hosts. Depends on the current liveness set, which is why recovery
  // rebuilds every replica after a crash (rebuild_replicas).
  std::uint64_t state =
      (static_cast<std::uint64_t>(role.node) << 40) ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(role.level))
       << 32) ^
      object ^ 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t probe = 0; probe < n; ++probe) {
    const std::uint64_t h = splitmix64(state);
    const NodeId cand =
        static_cast<NodeId>((role.node + 1 + h % (n - 1)) % n);
    if (cand != role.node && !is_node_dead(cand)) return cand;
  }
  return kInvalidNode;  // everyone else is dead: no replica
}

void DistributedMot::send_replica_update(NodeId self, int level,
                                         ObjectId object, OverlayNode child,
                                         bool present) {
  if (!replica_owner_active(self)) return;
  const NodeId slot = replica_of({level, self}, object);
  if (slot == kInvalidNode) return;
  RoleState& role = local(self).roles[level];
  const std::uint32_t version = ++role.replica_versions[object];
  Message update;
  update.type = present ? MsgType::kReplicaAdd : MsgType::kReplicaRemove;
  update.object = object;
  update.role = {level, slot};
  update.link = child;
  update.walk_source = self;     // owner node
  update.walk_index = version;   // last-writer-wins ordering
  ++stats_.replica_updates;
  send(self, update, nullptr);  // mirrored bookkeeping, not op cost
}

void DistributedMot::rebuild_replicas() {
  if (!replicating()) return;
  // Ground truth wins: wipe every hosted replica and re-derive from the
  // live detection lists. Runs in the recovery control plane, so slots
  // are recomputed against the post-crash liveness set — replicas whose
  // host died re-home automatically. Versions keep climbing so that any
  // post-recovery update still supersedes the rebuilt record.
  for (SensorState& sensor : sensors_) {
    for (auto& [level, role] : sensor.roles) {
      (void)level;
      role.replicas.clear();
    }
  }
  for (NodeId v = 0; v < sensors_.size(); ++v) {
    if (!is_node_dead(v) && replica_owner_active(v)) mirror_replicas(v);
  }
}

void DistributedMot::mirror_replicas(NodeId owner) {
  for (auto& [level, role] : sensors_[owner].roles) {
    for (const auto& [object, entry] : role.dl) {
      const NodeId slot = replica_of({level, owner}, object);
      if (slot == kInvalidNode) continue;
      const std::uint32_t version = ++role.replica_versions[object];
      sensors_[slot].roles[level].replicas[object][owner] = {entry.child,
                                                             version, true};
      ++stats_.replica_updates;
    }
  }
}

void DistributedMot::apply_replica_placements(
    const std::vector<NodeId>& place, const std::vector<NodeId>& retire) {
  MOT_EXPECTS(replica_mode_ == ReplicaMode::kPlaced);
  // Placement is control-plane state and moves only at quiescence: with
  // nothing in flight and nothing unacked there is no message to race.
  MOT_EXPECTS(inflight_ == 0);
  MOT_EXPECTS(pending_.empty());
  for (const NodeId owner : retire) {
    if (placed_.erase(owner) == 0) continue;
    ++stats_.replicas_retired;
    for (SensorState& sensor : sensors_) {
      for (auto& [level, role] : sensor.roles) {
        (void)level;
        for (auto it = role.replicas.begin(); it != role.replicas.end();) {
          it->second.erase(owner);
          it = it->second.empty() ? role.replicas.erase(it) : std::next(it);
        }
      }
    }
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kReplicaRetire,
                 .t = sim_->now(),
                 .from = owner,
                 .aux = placed_.size()});
    }
  }
  for (const NodeId owner : place) {
    if (is_node_dead(owner)) continue;
    if (!placed_.insert(owner).second) continue;
    ++stats_.replicas_placed;
    // Fresh versions: an in-flight pre-placement update (there are none
    // at quiescence, but restarts replay through here too) could never
    // supersede the mirrored ground truth.
    mirror_replicas(owner);
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kReplicaPlace,
                 .t = sim_->now(),
                 .from = owner,
                 .aux = placed_.size()});
    }
  }
}

void DistributedMot::adaptive_step() {
  if (adapt_ == nullptr || service_ == nullptr) return;
  MOT_EXPECTS(inflight_ == 0);
  // 1. Gradient tuner: the epoch's per-node load signals go in, tuned
  //    operating points come out and are applied to the service model.
  std::vector<adapt::NodeSignal> signals;
  signals.reserve(service_->num_nodes());
  for (std::size_t v = 0; v < service_->num_nodes(); ++v) {
    const NodeLoad& load = service_->load(v);
    adapt::NodeSignal sig;
    sig.node = static_cast<std::uint32_t>(v);
    sig.delay_samples = load.delay_count;
    sig.mean_delay = load.delay_count == 0
                         ? 0.0
                         : load.delay_sum /
                               static_cast<double>(load.delay_count);
    sig.sheds = load.sheds;
    sig.depth_ewma = load.depth_ewma;
    sig.degrades = degraded_by_node_[v];
    signals.push_back(sig);
  }
  const std::vector<adapt::TuneAction> actions =
      adapt_->tune(signals, service_->config());
  for (const adapt::TuneAction& action : actions) {
    service_->set_red_fraction(action.node, action.red_fraction);
    service_->set_query_admit_fraction(action.node, action.admit_fraction);
    ++stats_.tuner_steps;
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kTunerStep,
                 .t = sim_->now(),
                 .to = action.node,
                 .aux = service_->node_config(action.node).red_threshold()});
    }
  }
  // 2. Load-aware replica placement from the epoch's divert gauges.
  if (replica_mode_ == ReplicaMode::kPlaced &&
      adapt_->config().place_replicas) {
    std::vector<adapt::LoadGauge> gauges;
    gauges.reserve(sensors_.size());
    for (std::size_t v = 0; v < sensors_.size(); ++v) {
      if (is_node_dead(static_cast<NodeId>(v))) continue;
      const NodeLoad& load = service_->load(v);
      gauges.push_back({static_cast<std::uint32_t>(v), divert_attempts_[v],
                        load.sheds, load.depth_ewma});
    }
    const adapt::PlacementPlan plan = adapt_->plan_placements(gauges);
    apply_replica_placements(plan.place, plan.retire);
  }
  // 3. A fresh epoch for the next quiescence window.
  service_->reset_load_epoch();
  std::fill(divert_attempts_.begin(), divert_attempts_.end(), 0);
  std::fill(degraded_by_node_.begin(), degraded_by_node_.end(), 0);
}

void DistributedMot::export_adaptive_state(
    obs::MetricsRegistry& registry) const {
  if (adapt_ == nullptr || service_ == nullptr) return;
  adapt_->export_metrics(registry, service_->config().max_window);
  const overload::OverloadConfig& base = service_->config();
  for (std::size_t v = 0; v < service_->num_nodes(); ++v) {
    const overload::OverloadConfig& tuned = service_->node_config(v);
    // Only nodes moved off the base operating point get a labeled gauge;
    // hundreds of untouched nodes would be noise.
    if (tuned.red_fraction == base.red_fraction &&
        tuned.admit_fraction[static_cast<std::size_t>(
            overload::Priority::kQuery)] ==
            base.admit_fraction[static_cast<std::size_t>(
                overload::Priority::kQuery)]) {
      continue;
    }
    registry
        .gauge("mot_adapt_red_threshold", {{"node", std::to_string(v)}})
        .set(static_cast<double>(tuned.red_threshold()));
  }
  registry.gauge("mot_adapt_placed_replicas")
      .set(static_cast<double>(placed_.size()));
}

void DistributedMot::on_replica_add(const Message& message) {
  RoleState& role = local(message.role.node).roles[message.role.level];
  // A placement retirement may race an in-flight add from before the
  // owner was retired; installing it would orphan the record, so adds
  // from no-longer-active owners are dropped (their versions are owner
  // state and keep climbing, so a re-placement still supersedes).
  if (!replica_owner_active(message.walk_source)) return;
  ReplicaRecord& record = role.replicas[message.object][message.walk_source];
  if (message.walk_index > record.version) {
    record = {message.link, message.walk_index, true};
  }
}

void DistributedMot::on_replica_remove(const Message& message) {
  RoleState& role = local(message.role.node).roles[message.role.level];
  ReplicaRecord& record = role.replicas[message.object][message.walk_source];
  if (message.walk_index > record.version) {
    record = {OverlayNode{}, message.walk_index, false};
  }
}

Weight DistributedMot::distance(NodeId a, NodeId b) const {
  return a == b ? 0.0 : provider_->oracle().distance(a, b);
}

bool DistributedMot::is_node_dead(NodeId node) const {
  return channel_ != nullptr && channel_->is_dead(node);
}

std::size_t DistributedMot::next_alive_index(
    std::span<const PathStop> sequence, std::size_t index) const {
  // Crashed sensors are skipped on climbs: departures are announced
  // (Section 7), so a live node never forwards into a dead role.
  while (index < sequence.size() &&
         is_node_dead(sequence[index].node.node)) {
    ++index;
  }
  return index;
}

std::size_t DistributedMot::next_reachable_index(
    NodeId self, std::span<const PathStop> sequence,
    std::size_t index) const {
  const std::size_t first_alive = next_alive_index(sequence, index);
  if (channel_ == nullptr) return first_alive;
  // Prefer the first stop we can actually reach: a cut between self and
  // a stop is locally observable (carrier sense), and any higher stop of
  // the walk also meets the object's chain — worst case the root. If
  // everything ahead is across the cut, keep the first alive stop and
  // let the reliable layer wait out the heal; that preserves
  // termination (queries never spin on restarts during a partition).
  std::size_t probe = first_alive;
  while (probe < sequence.size()) {
    const NodeId node = sequence[probe].node.node;
    if (!channel_->link_blocked(sim_->now(), self, node)) return probe;
    probe = next_alive_index(sequence, probe + 1);
  }
  return first_alive;
}

bool DistributedMot::link_unreachable(NodeId from, NodeId to) const {
  return channel_ != nullptr &&
         (channel_->is_dead(to) ||
          channel_->link_blocked(sim_->now(), from, to));
}

DistributedMot::SensorState& DistributedMot::local(NodeId node) {
  // The locality guard: only the node currently handling a message may
  // touch its state. This is what makes the runtime genuinely
  // distributed rather than conveniently centralized.
  MOT_CHECK(node == active_node_);
  return sensors_[node];
}

Weight DistributedMot::account_hop(NodeId from, Message& message, Weight hop,
                                   Weight* op_cost, bool opens_frame,
                                   bool pays) {
  const NodeId to = message.role.node;
  if (opens_frame) {
    ++stats_.messages_sent;
    if (router_ != nullptr && from != to) {
      // Hop-by-hop physical forwarding. With a shortest-path router the
      // route cost equals the oracle distance charged below, so the cost
      // model is realized rather than assumed.
      const std::vector<NodeId> route = router_->route(from, to);
      MOT_CHECK(!route.empty());  // the overlay requires deliverable routes
      stats_.physical_hops += route.size() - 1;
    }
  } else {
    ++stats_.messages_coalesced;  // rides an edge frame already counted
  }
  Weight charged = 0.0;
  if (op_cost != nullptr) {
    if (pays && hop > 0.0) {
      meter_.charge(hop);
      *op_cost += hop;
      charged = hop;
    } else {
      meter_.charge(0.0, 1);
    }
  }
  if (obs::tracing()) {
    std::uint64_t span_parent = 0;
    if (TraceCtx* tctx = trace_ctx_for(message);
        tctx != nullptr && tctx->trace_id != 0) {
      // Stamp the hop's span onto the message itself: locally the copy
      // is informational, but if this hop crosses a shard boundary the
      // fields travel on the wire and the owning shard resumes the
      // same span tree (span_seq re-seeds its allocator).
      message.trace_id = tctx->trace_id;
      message.span = tctx->next_span++;
      span_parent = tctx->last_span;
      if (is_spine_hop(message.type)) tctx->last_span = message.span;
      message.span_seq = tctx->next_span;
    }
    obs::emit({.type = obs::Ev::kMsgSend,
               .t = sim_->now(),
               .object = message.object,
               .from = from,
               .to = to,
               .level = message.role.level,
               .dist = hop,
               .charged = charged,
               .trace = message.trace_id,
               .span = message.span,
               .parent = span_parent,
               .label = msg_type_name(message.type)});
  }
  return charged;
}

void DistributedMot::send(NodeId from, Message message, Weight* op_cost) {
  if (batching_ && is_maintenance_type(message.type)) {
    // Batched maintenance: stage the update instead of scheduling it.
    // All metering / tracing / stats run at flush time, where updates
    // sharing a directed edge collapse into one charged message. The
    // op-cost sink is NOT captured (it may point into a caller's stack
    // frame); the flush re-resolves it against the move in flight.
    staged_.push_back({message, from, op_cost != nullptr});
    if (!flush_scheduled_) {
      flush_scheduled_ = true;
      // The window closes at the current instant: one zero-delay event
      // drains everything staged "now", including the follow-up hops
      // handlers stage while it runs.
      sim_->schedule(0.0, [this] { flush_batches(); });
    }
    return;
  }
  const NodeId to = message.role.node;
  const Weight hop = distance(from, to);
  account_hop(from, message, hop, op_cost, /*opens_frame=*/true,
              /*pays=*/true);
  if (cluster_ != nullptr && !cluster_->owns(to)) {
    // The destination lives on another shard: the cost above is already
    // charged (costs accrue at the sender), so the message leaves this
    // process with the walker's remaining context embedded.
    forward_remote(from, std::move(message));
    return;
  }
  if (channel_ == nullptr) {
    sim_->schedule(hop, [this, message] { handle(message); });
    return;
  }
  if (from == to) {
    // Local handoff: no link crossed, so no frame — but the node may
    // crash before the zero-distance delivery fires, and crash recovery
    // may rebuild the operation out from under a queued handoff. Frames
    // are cancelled by poisoning their sequence number; a handoff has no
    // frame, so it carries the object's rebuild epoch instead.
    const std::uint64_t epoch = rebuild_epoch(message.object);
    sim_->schedule(hop, [this, message, epoch] {
      handle_if_current(message, epoch);
    });
    return;
  }
  // Reliable link layer: the message becomes a sequence-numbered DATA
  // frame, retransmitted until acknowledged.
  const std::uint64_t seq = next_seq_++;
  PendingTransfer transfer;
  transfer.message = message;
  transfer.from = from;
  transfer.to = to;
  transfer.dist = hop;
  transfer.rto = 2.0 * hop + 1.0;  // round trip + processing slack
  transfer.first_send = sim_->now();
  ++stats_.data_sent;
  if (service_ != nullptr) {
    // Credit flow control: the destination's last ack granted a window of
    // outstanding frames; beyond it the frame parks untransmitted — no
    // timer, no wire traffic — until an ack or poisoning frees a slot.
    LinkCredit& credit = credit_for(to);
    if (credit.outstanding >= credit.window) {
      pending_.emplace(seq, std::move(transfer));
      credit.stalled.push_back(seq);
      ++stats_.credit_stalls;
      if (obs::tracing()) {
        obs::emit({.type = obs::Ev::kCreditStall,
                   .t = sim_->now(),
                   .object = message.object,
                   .from = from,
                   .to = to,
                   .aux = seq,
                   .label = msg_type_name(message.type)});
      }
      return;
    }
    transfer.counted_outstanding = true;
    ++credit.outstanding;
  }
  pending_.emplace(seq, std::move(transfer));
  transmit_data(seq);
}

void DistributedMot::handle_if_current(const Message& message,
                                       std::uint64_t epoch) {
  if (is_node_dead(message.role.node)) return;
  if (is_maintenance_type(message.type) &&
      epoch != rebuild_epoch(message.object)) {
    ++stats_.stale_maintenance_drops;
    return;
  }
  handle(message);
}

void DistributedMot::flush_batches() {
  ++stats_.batch_flushes;
  // Drain the window in rounds: group everything staged so far by
  // directed (from, to) edge, deliver group by group — edges in
  // first-staged order, FIFO within a group — and let the handlers
  // stage the follow-up hops that form the next round. The order
  // depends only on the staging sequence, so the flush is fully
  // deterministic. All scratch (the round copy, the chaining tables)
  // lives in the batch arena, retired wholesale once the window drains.
  constexpr std::uint32_t kNoNext = 0xffffffffu;
  struct EdgeGroup {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
  };
  while (!staged_.empty()) {
    const std::span<const StagedUpdate> round =
        batch_arena_.copy<StagedUpdate>(staged_);
    staged_.clear();
    const std::span<std::uint32_t> next =
        batch_arena_.make_span<std::uint32_t>(round.size());
    const std::span<EdgeGroup> groups =
        batch_arena_.make_span<EdgeGroup>(round.size());
    std::size_t num_groups = 0;
    for (std::uint32_t i = 0; i < round.size(); ++i) {
      const NodeId from = round[i].from;
      const NodeId to = round[i].message.role.node;
      next[i] = kNoNext;
      std::size_t g = 0;
      while (g < num_groups &&
             !(groups[g].from == from && groups[g].to == to)) {
        ++g;
      }
      if (g == num_groups) {
        groups[num_groups++] = {from, to, i, i};
      } else {
        next[groups[g].tail] = i;
        groups[g].tail = i;
      }
    }
    for (std::size_t g = 0; g < num_groups; ++g) {
      const EdgeGroup& group = groups[g];
      const Weight hop = distance(group.from, group.to);
      // One metered message carries the whole group: the first update
      // opens the edge frame, its co-riders are the coalescing win.
      bool edge_paid = false;
      for (std::uint32_t i = group.head; i != kNoNext; i = next[i]) {
        Message message = round[i].message;  // trace stamping mutates it
        Weight scratch = 0.0;
        Weight* sink = nullptr;
        if (round[i].billable) {
          // Re-resolve the cost sink: inserts / deletes / SDL updates
          // bill the move in flight; a publish hop (or an update whose
          // move completed earlier this window) is metered but not
          // attributed to an operation — exactly the unbatched split.
          sink = move_cost(message.object);
          if (sink == nullptr) sink = &scratch;
        }
        // The first billable update on the edge pays the hop; the riders
        // travel free but still count as meter messages.
        if (account_hop(group.from, message, hop, sink, i == group.head,
                        !edge_paid) > 0.0) {
          edge_paid = true;
        }
        handle(message);
      }
    }
  }
  batch_arena_.reset();
  flush_scheduled_ = false;
}

void DistributedMot::transmit_data(std::uint64_t seq) {
  PendingTransfer& transfer = pending_.at(seq);
  const Message message = transfer.message;
  const NodeId from = transfer.from;
  const NodeId to = transfer.to;
  const Weight dist = transfer.dist;
  if (service_ != nullptr) {
    // Circuit breaker: an open link parks the frame instead of burning a
    // guaranteed-futile transmission. The parked frame keeps its wakeup
    // timer (flagged so the timeout is not mistaken for link evidence)
    // and re-consults the gate each round; after the cooldown the gate
    // elects exactly one frame as the half-open probe.
    switch (breaker_for(from, to).gate(sim_->now(), seq)) {
      case overload::CircuitBreaker::Gate::kBlocked:
        transfer.breaker_parked = true;
        ++stats_.breaker_suppressed;
        sim_->schedule(transfer.rto,
                       [this, seq] { on_transfer_timeout(seq); });
        return;
      case overload::CircuitBreaker::Gate::kProbe:
        ++stats_.breaker_probes;
        if (obs::tracing()) {
          obs::emit({.type = obs::Ev::kBreakerProbe,
                     .t = sim_->now(),
                     .object = message.object,
                     .from = from,
                     .to = to,
                     .aux = seq});
        }
        break;
      case overload::CircuitBreaker::Gate::kPass:
        break;
    }
  }
  if (transfer.attempts > 0) {
    // A resend is charged when it reaches the wire, so a frame the
    // breaker parks costs nothing until its gate opens.
    ++stats_.retransmissions;
    stats_.transport_distance += dist;
    meter_.charge(dist);
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kRetransmit,
                 .t = sim_->now(),
                 .object = message.object,
                 .from = from,
                 .to = to,
                 .dist = dist,
                 .charged = dist,
                 .aux = seq,
                 .label = msg_type_name(message.type)});
    }
  }
  const int attempt = transfer.attempts;
  channel_->transmit(*sim_, from, to, dist,
                     [this, seq, message, from, to, dist, attempt] {
                       deliver_data(seq, message, from, to, dist, attempt);
                     });
  sim_->schedule(transfer.rto,
                 [this, seq] { on_transfer_timeout(seq); });
}

void DistributedMot::deliver_data(std::uint64_t seq, const Message& message,
                                  NodeId from, NodeId to, Weight dist,
                                  int attempt) {
  if (poisoned_.count(seq) != 0) return;  // cancelled by crash recovery
  // Duplicate suppression, so handlers run effectively once. A pending_
  // entry is erased only by its ack or by poisoning, so a sequence number
  // in neither map was delivered before; a pending one was delivered
  // once its flag is set.
  const auto it = pending_.find(seq);
  const bool duplicate = it == pending_.end() || it->second.delivered;
  if (!duplicate) {
    if (service_ != nullptr) {
      // Finite-capacity receiver: admission control runs BEFORE the ack.
      // A shed frame was never acknowledged, so the sender's
      // retransmission timer retries it later — shedding is
      // backpressure, not loss — and an admitted frame is never evicted
      // (its ack already told the sender to forget it). Queued handlers
      // outlive crashes and rebuilds and cannot be poisoned by sequence
      // number, so they carry the same guard as local handoffs.
      const std::uint64_t epoch = rebuild_epoch(message.object);
      const overload::Admit outcome = service_->offer(
          to, classify(message.type, attempt),
          [this, message, epoch] { handle_if_current(message, epoch); });
      if (outcome != overload::Admit::kAdmit) {
        ++stats_.messages_shed;
        if (obs::tracing()) {
          obs::emit({.type = obs::Ev::kShed,
                     .t = sim_->now(),
                     .object = message.object,
                     .from = from,
                     .to = to,
                     .aux = seq,
                     .label = overload::admit_name(outcome)});
        }
        return;
      }
    }
    it->second.delivered = true;
  }
  // Acknowledge every copy: a duplicate DATA regenerates the ack in case
  // the previous one was lost. The ack link is just as unreliable.
  ++stats_.acks_sent;
  stats_.transport_distance += dist;
  meter_.charge(dist);
  if (obs::tracing()) {
    obs::emit({.type = obs::Ev::kAck,
               .t = sim_->now(),
               .object = message.object,
               .from = to,
               .to = from,
               .dist = dist,
               .charged = dist,
               .aux = seq});
  }
  // With a service model the ack advertises the receiver's remaining
  // admission headroom as a credit grant, capping how many frames the
  // sender may keep in flight toward this node.
  const std::size_t grant =
      service_ != nullptr ? service_->headroom(to) : 0;
  channel_->transmit(*sim_, to, from, dist,
                     [this, seq, grant] { on_ack(seq, grant); });
  if (duplicate) {
    ++stats_.duplicates_suppressed;
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kDuplicate,
                 .t = sim_->now(),
                 .object = message.object,
                 .from = from,
                 .to = to,
                 .aux = seq});
    }
    return;
  }
  // An admitted frame runs from the service queue.
  if (service_ == nullptr) handle(message);
}

void DistributedMot::on_ack(std::uint64_t seq, std::size_t grant) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // duplicate ack
  const NodeId from = it->second.from;
  const NodeId to = it->second.to;
  const bool counted = it->second.counted_outstanding;
  const bool clean = it->second.attempts == 0;  // acked without a resend
  stats_.ack_rtt_sum += sim_->now() - it->second.first_send;
  ++stats_.ack_rtt_count;
  pending_.erase(it);
  if (service_ == nullptr) return;
  // AIMD additive increase: a first-transmission ack is a clean epoch
  // sample; a full epoch of them raises the per-link cap one notch.
  if (adapt_ != nullptr && clean &&
      adapt_->on_clean_ack(to, service_->config().max_window)) {
    ++stats_.window_increases;
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kWindowRaise,
                 .t = sim_->now(),
                 .from = from,
                 .to = to,
                 .aux = window_cap(to)});
    }
  }
  // Adopt the receiver's advertised headroom as the new window. The
  // clamp to >= 1 guarantees progress: even a saturated receiver accepts
  // one probe frame at a time, and shedding handles the rest. With the
  // adaptive controller attached, the ceiling is its per-link AIMD cap
  // instead of the static max_window.
  LinkCredit& credit = credit_for(to);
  credit.window = std::clamp<std::size_t>(grant, 1, window_cap(to));
  if (counted) {
    MOT_CHECK(credit.outstanding > 0);
    --credit.outstanding;
  }
  // Any ack is proof of life for the link: reset the breaker's failure
  // streak, and close it if this was the half-open probe reporting back.
  if (breaker_for(from, to).on_success()) {
    ++stats_.breaker_closes;
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kBreakerClose,
                 .t = sim_->now(),
                 .from = from,
                 .to = to,
                 .aux = seq});
    }
  }
  pump_stalled(to);
}

void DistributedMot::pump_stalled(NodeId to) {
  const auto it = credit_.find(to);
  if (it == credit_.end()) return;
  LinkCredit& credit = it->second;
  while (credit.outstanding < credit.window && !credit.stalled.empty()) {
    const std::uint64_t seq = credit.stalled.front();
    credit.stalled.pop_front();
    const auto pending_it = pending_.find(seq);
    if (pending_it == pending_.end()) continue;  // poisoned while parked
    pending_it->second.counted_outstanding = true;
    // The RTT clock starts when the frame actually reaches the wire, not
    // when the sender first wished it had.
    pending_it->second.first_send = sim_->now();
    ++credit.outstanding;
    transmit_data(seq);
  }
}

void DistributedMot::on_transfer_timeout(std::uint64_t seq) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // acked (or recovered) in time
  PendingTransfer& transfer = it->second;
  if (transfer.breaker_parked) {
    // The frame never reached the wire this round — the breaker parked
    // it — so this wakeup carries no evidence about the link. Re-consult
    // the gate (which may elect it as the half-open probe by now).
    transfer.breaker_parked = false;
    transmit_data(seq);
    return;
  }
  if (channel_->link_blocked(sim_->now(), transfer.from, transfer.to)) {
    // Carrier sense: the link is partitioned, so a resend is guaranteed
    // to be refused at the sender. Hold the frame at its current timeout
    // without burning an attempt or doubling the RTO — a partition
    // lasting thousands of ticks must neither wedge the sender into the
    // attempts cap (that cap is reserved for structural bugs) nor
    // inflate the backoff so far that post-heal recovery stalls.
    ++stats_.retransmits_suppressed;
    sim_->schedule(transfer.rto, [this, seq] { on_transfer_timeout(seq); });
    return;
  }
  ++transfer.attempts;
  MOT_CHECK(transfer.attempts < kMaxTransferAttempts);
  // Capped exponential backoff keeps retransmissions of a persistently
  // unlucky frame from flooding the link.
  transfer.rto = std::min(transfer.rto * 2.0,
                          128.0 * (transfer.dist + 1.0));
  if (service_ != nullptr) {
    // A genuine timeout of a frame that was on the wire: feed the
    // breaker's failure streak (the resend is charged in transmit_data,
    // if the gate lets it out).
    if (breaker_for(transfer.from, transfer.to)
            .on_timeout(sim_->now(), seq)) {
      ++stats_.breaker_trips;
      if (obs::tracing()) {
        obs::emit({.type = obs::Ev::kBreakerTrip,
                   .t = sim_->now(),
                   .object = transfer.message.object,
                   .from = transfer.from,
                   .to = transfer.to,
                   .aux = seq});
      }
      // AIMD multiplicative decrease, keyed to the breaker trip rather
      // than the raw timeout: under deep receiver queues a single RTO is
      // mostly delay evidence, and halving on every one collapses the
      // window spuriously. A trip means a whole failure streak — real
      // congestion. The live window shrinks with the cap immediately
      // (never below 1; outstanding frames above it drain without
      // replacement — the pump only releases while outstanding < window).
      if (adapt_ != nullptr &&
          adapt_->on_link_loss(transfer.to, service_->config().max_window)) {
        ++stats_.window_decreases;
        LinkCredit& credit = credit_for(transfer.to);
        credit.window = std::max<std::size_t>(
            1, std::min(credit.window, window_cap(transfer.to)));
        if (obs::tracing()) {
          obs::emit({.type = obs::Ev::kWindowShrink,
                     .t = sim_->now(),
                     .from = transfer.from,
                     .to = transfer.to,
                     .aux = window_cap(transfer.to)});
        }
      }
    }
  }
  transmit_data(seq);
}

void DistributedMot::poison_transfer(std::uint64_t seq) {
  poisoned_.insert(seq);
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return;
  const NodeId to = it->second.to;
  const bool counted = it->second.counted_outstanding;
  pending_.erase(it);
  if (counted) {
    // Release the credit slot the frame held so stalled frames toward
    // the same destination are not wedged by a cancelled transfer. A
    // frame parked in `stalled` leaves a dangling seq there; the pump
    // skips seqs that are no longer pending.
    LinkCredit& credit = credit_for(to);
    MOT_CHECK(credit.outstanding > 0);
    --credit.outstanding;
    pump_stalled(to);
  }
}

void DistributedMot::poison_query_transfers(std::uint64_t query_id) {
  std::vector<std::uint64_t> seqs;
  for (const auto& [seq, transfer] : pending_) {
    if (is_query_type(transfer.message.type) &&
        transfer.message.query_id == query_id) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  for (const std::uint64_t seq : seqs) poison_transfer(seq);
}

void DistributedMot::poison_object_transfers(ObjectId object) {
  std::vector<std::uint64_t> seqs;
  for (const auto& [seq, transfer] : pending_) {
    if (is_maintenance_type(transfer.message.type) &&
        transfer.message.object == object) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.begin(), seqs.end());
  for (const std::uint64_t seq : seqs) poison_transfer(seq);
}

void DistributedMot::handle(const Message& message) {
  MOT_CHECK(active_node_ == kInvalidNode);
  active_node_ = message.role.node;
  switch (message.type) {
    case MsgType::kPublish:
      on_publish(message);
      break;
    case MsgType::kInsert:
      on_insert(message);
      break;
    case MsgType::kDelete:
      on_delete(message);
      break;
    case MsgType::kQueryUp:
      on_query_up(message);
      break;
    case MsgType::kQueryDown:
      on_query_down(message);
      break;
    case MsgType::kQueryReply:
      on_query_reply(message);
      break;
    case MsgType::kSdlAdd:
      on_sdl_add(message);
      break;
    case MsgType::kSdlRemove:
      on_sdl_remove(message);
      break;
    case MsgType::kReplicaAdd:
      on_replica_add(message);
      break;
    case MsgType::kReplicaRemove:
      on_replica_remove(message);
      break;
    case MsgType::kQueryDownReplica:
      on_query_down_replica(message);
      break;
  }
  active_node_ = kInvalidNode;
}

DistributedMot::Entry* DistributedMot::find_entry(SensorState& sensor,
                                                  int level,
                                                  ObjectId object) {
  const auto role_it = sensor.roles.find(level);
  if (role_it == sensor.roles.end()) return nullptr;
  const auto dl_it = role_it->second.dl.find(object);
  return dl_it == role_it->second.dl.end() ? nullptr : &dl_it->second;
}

Weight* DistributedMot::move_cost(ObjectId object) {
  const auto it = moves_.find(object);
  return it == moves_.end() ? nullptr : &it->second.cost;
}

void DistributedMot::install_entry(const Message& message, NodeId self,
                                   std::optional<OverlayNode> sp,
                                   Weight* op_cost) {
  if (!options_.use_special_lists) sp.reset();
  if (sp && is_node_dead(sp->node)) sp.reset();  // no SDL on the departed
  RoleState& role = local(self).roles[message.role.level];
  MOT_CHECK(role.dl.count(message.object) == 0);
  role.dl.emplace(message.object, Entry{message.link, sp});
  journal(durable::JournalRecord::make_insert(message.role, message.object,
                                              message.link, sp));
  send_replica_update(self, message.role.level, message.object,
                      message.link, /*present=*/true);
  if (sp) {
    Message add;
    add.type = MsgType::kSdlAdd;
    add.object = message.object;
    add.role = *sp;
    add.link = message.role;  // the special child registering itself
    send(self, add, options_.charge_special_updates ? op_cost : nullptr);
  }
}

// ---------------------------------------------------------------------------
// Publish
// ---------------------------------------------------------------------------

void DistributedMot::publish(ObjectId object, NodeId proxy) {
  MOT_EXPECTS(proxy < provider_->num_nodes());
  MOT_EXPECTS(!is_node_dead(proxy));
  MOT_EXPECTS(proxies_.count(object) == 0);
  proxies_[object] = proxy;
  physical_[object] = proxy;
  journal(durable::JournalRecord::make_publish(object, proxy));
  if (obs::tracing()) ++op_trace_seq_[object];
  start_publish(object, proxy);
}

void DistributedMot::start_publish(ObjectId object, NodeId proxy) {
  ++inflight_;
  publishing_.insert(object);
  if (obs::tracing()) {
    publish_trace_[object] =
        TraceCtx{make_op_trace_id(object, op_trace_seq_[object])};
  }
  const auto sequence = provider_->upward_sequence(proxy);
  Message message;
  message.type = MsgType::kPublish;
  message.object = object;
  message.role = sequence.front().node;
  message.walk_source = proxy;
  message.walk_index = 0;
  message.link = sequence.front().node;  // sentinel: child == self
  send(proxy, message, nullptr);
}

void DistributedMot::on_publish(const Message& message) {
  const NodeId self = message.role.node;
  install_entry(message, self,
                provider_->special_parent(message.walk_source,
                                          message.walk_index),
                nullptr);
  const auto sequence = provider_->upward_sequence(message.walk_source);
  const std::size_t next_index =
      next_alive_index(sequence, message.walk_index + 1);
  if (next_index >= sequence.size()) {
    ++stats_.publishes_completed;
    publishing_.erase(message.object);
    publish_trace_.erase(message.object);
    --inflight_;
    if (cluster_ != nullptr) cluster_->complete_publish(message.object);
    return;
  }
  Message next = message;
  next.walk_index = static_cast<std::uint32_t>(next_index);
  next.role = sequence[next_index].node;
  next.link = message.role;  // we become the child of the next stop
  Weight publish_cost = 0.0;  // publish cost goes to the meter only
  send(self, next, &publish_cost);
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

void DistributedMot::move(ObjectId object, NodeId new_proxy,
                          MoveCallback done) {
  MOT_EXPECTS(new_proxy < provider_->num_nodes());
  MOT_EXPECTS(!is_node_dead(new_proxy));
  MOT_EXPECTS(proxies_.count(object) != 0);
  // One-by-one execution: at most one maintenance operation per object.
  MOT_EXPECTS(moves_.count(object) == 0);
  if (physical_[object] == new_proxy) {
    if (done) sim_->schedule(0.0, [done] { done(MoveResult{}); });
    return;
  }
  // The object moves now; the structure catches up asynchronously.
  physical_[object] = new_proxy;
  journal(durable::JournalRecord::make_physical(object, new_proxy));
  if (obs::tracing()) ++op_trace_seq_[object];
  start_move(object, new_proxy, std::move(done));
}

void DistributedMot::start_move(ObjectId object, NodeId new_proxy,
                                MoveCallback done) {
  MoveCtx ctx;
  ctx.to = new_proxy;
  ctx.done = std::move(done);
  if (obs::tracing()) {
    ctx.trace.trace_id = make_op_trace_id(object, op_trace_seq_[object]);
  }
  auto [it, inserted] = moves_.emplace(object, std::move(ctx));
  MOT_CHECK(inserted);
  ++inflight_;
  const auto sequence = provider_->upward_sequence(new_proxy);
  Message message;
  message.type = MsgType::kInsert;
  message.object = object;
  message.role = sequence.front().node;
  message.walk_source = new_proxy;
  message.walk_index = 0;
  message.link = sequence.front().node;  // sentinel if installed fresh
  message.new_proxy = new_proxy;
  send(new_proxy, message, &it->second.cost);
}

void DistributedMot::on_insert(const Message& message) {
  const NodeId self = message.role.node;
  const ObjectId object = message.object;
  auto move_it = moves_.find(object);
  MOT_CHECK(move_it != moves_.end());
  MoveCtx& ctx = move_it->second;

  Entry* entry = find_entry(local(self), message.role.level, object);
  if (entry != nullptr) {
    // Meet node: splice the chain onto the new fragment.
    const OverlayNode first_victim = entry->child;
    entry->child =
        message.walk_index == 0 ? message.role : message.link;
    ctx.peak_level = message.role.level;
    proxies_[object] = ctx.to;  // the move commits at the splice
    journal(durable::JournalRecord::make_splice(message.role, object,
                                                entry->child));
    journal(durable::JournalRecord::make_proxy(object, ctx.to));
    send_replica_update(self, message.role.level, object, entry->child,
                        /*present=*/true);
    if (first_victim == message.role) {
      // The meet entry was the old proxy's sentinel (structural
      // ancestor/descendant move): nothing to tear.
      redirect_parked(self, object, ctx.to);
      finish_move(object);
      return;
    }
    Message del;
    del.type = MsgType::kDelete;
    del.object = object;
    del.role = first_victim;
    del.new_proxy = ctx.to;
    send(self, del, &ctx.cost);
    return;
  }

  install_entry(message, self,
                provider_->special_parent(message.walk_source,
                                          message.walk_index),
                &ctx.cost);
  const auto sequence = provider_->upward_sequence(message.walk_source);
  const std::size_t next_index =
      next_alive_index(sequence, message.walk_index + 1);
  // The root always holds every published object, so the climb meets.
  MOT_CHECK(next_index < sequence.size());
  Message next = message;
  next.walk_index = static_cast<std::uint32_t>(next_index);
  next.role = sequence[next_index].node;
  next.link = message.role;
  send(self, next, &ctx.cost);
}

void DistributedMot::on_delete(const Message& message) {
  const NodeId self = message.role.node;
  const ObjectId object = message.object;
  Weight* cost = move_cost(object);
  MOT_CHECK(cost != nullptr);

  SensorState& sensor = local(self);
  auto role_it = sensor.roles.find(message.role.level);
  MOT_CHECK(role_it != sensor.roles.end());
  auto dl_it = role_it->second.dl.find(object);
  MOT_CHECK(dl_it != role_it->second.dl.end());
  const Entry entry = dl_it->second;
  role_it->second.dl.erase(dl_it);
  journal(durable::JournalRecord::make_delete(message.role, object));
  send_replica_update(self, message.role.level, object, OverlayNode{},
                      /*present=*/false);

  if (entry.sp) {
    Message remove;
    remove.type = MsgType::kSdlRemove;
    remove.object = object;
    remove.role = *entry.sp;
    remove.link = message.role;
    send(self, remove, options_.charge_special_updates ? cost : nullptr);
  }

  if (entry.child == message.role) {
    // Old proxy sentinel reached: redirect parked queries to the new
    // location the delete carries (Section 3), then the move is done.
    redirect_parked(self, object, message.new_proxy);
    finish_move(object);
    return;
  }
  Message next = message;
  next.role = entry.child;
  send(self, next, cost);
}

void DistributedMot::finish_move(ObjectId object) {
  auto it = moves_.find(object);
  MOT_CHECK(it != moves_.end());
  MoveCtx ctx = std::move(it->second);
  moves_.erase(it);
  --inflight_;
  ++stats_.moves_completed;
  MoveResult result;
  result.cost = ctx.cost;
  result.peak_level = ctx.peak_level;
  if (ctx.done) ctx.done(result);
  if (cluster_ != nullptr) cluster_->complete_move(object, result);
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

void DistributedMot::query(NodeId from, ObjectId object,
                           QueryCallback done) {
  MOT_EXPECTS(from < provider_->num_nodes());
  MOT_EXPECTS(!is_node_dead(from));
  MOT_EXPECTS(proxies_.count(object) != 0);
  const std::uint64_t id = next_query_id_++;
  start_query(id, from, object, std::move(done));
  if (policy_.deadline > 0.0) arm_query_watchdog(id);
  if (policy_.hedge_delay > 0.0) {
    sim_->schedule(policy_.hedge_delay, [this, id] { hedge_query(id); });
  }
}

void DistributedMot::start_query(std::uint64_t query_id, NodeId origin,
                                 ObjectId object, QueryCallback done) {
  QueryCtx ctx;
  ctx.origin = origin;
  ctx.object = object;
  ctx.done = std::move(done);
  if (obs::tracing()) ctx.trace.trace_id = make_query_trace_id(query_id);
  const bool inserted = queries_.emplace(query_id, std::move(ctx)).second;
  MOT_CHECK(inserted);
  ++inflight_;
  issue_query_walker(query_id, origin);
}

void DistributedMot::issue_query_walker(std::uint64_t query_id,
                                        NodeId from) {
  QueryCtx& ctx = queries_.at(query_id);
  const auto sequence = provider_->upward_sequence(from);
  Message message;
  message.type = MsgType::kQueryUp;
  message.object = ctx.object;
  message.role = sequence.front().node;
  message.walk_source = from;
  message.walk_index = 0;
  message.requester = ctx.origin;
  message.query_id = query_id;
  send(from, message, &ctx.cost);
}

void DistributedMot::arm_query_watchdog(std::uint64_t query_id) {
  QueryCtx& ctx = queries_.at(query_id);
  // Bumping the generation orphans any previously armed watchdog; the
  // stale timer fires, sees the mismatch, and does nothing. That stands
  // in for cancellation on a simulator without timer removal.
  const std::uint64_t gen = ++ctx.watchdog_gen;
  double deadline = policy_.deadline;
  for (int i = 0; i < ctx.attempt && i < 6; ++i) {  // cap at 64x
    deadline *= policy_.backoff;
  }
  sim_->schedule(deadline, [this, query_id, gen] {
    on_query_deadline(query_id, gen);
  });
}

void DistributedMot::on_query_deadline(std::uint64_t query_id,
                                       std::uint64_t gen) {
  const auto it = queries_.find(query_id);
  if (it == queries_.end()) return;     // answered or aborted meanwhile
  QueryCtx& ctx = it->second;
  if (ctx.watchdog_gen != gen) return;  // superseded by a later arm
  ++ctx.attempt;
  if (ctx.attempt >= policy_.max_attempts) {
    // Retry budget exhausted: terminate explicitly rather than leaving
    // the caller hanging — every query either answers or aborts.
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kQueryDeadlineAbort,
                 .t = sim_->now(),
                 .object = ctx.object,
                 .from = ctx.origin,
                 .aux = query_id});
    }
    poison_query_transfers(query_id);
    erase_parked_records(query_id);
    QueryCtx dead = std::move(it->second);
    queries_.erase(it);
    --inflight_;
    ++stats_.queries_deadline_aborted;
    if (dead.done) {
      QueryResult result;  // found stays false: the explicit abort
      result.cost = dead.cost;
      dead.done(result);
    }
    return;
  }
  ++stats_.queries_retried;
  if (obs::tracing()) {
    obs::emit({.type = obs::Ev::kQueryRetry,
               .t = sim_->now(),
               .object = ctx.object,
               .from = ctx.origin,
               .aux = query_id});
  }
  // Drop the stuck walker's leavings and start a fresh climb from home.
  poison_query_transfers(query_id);
  erase_parked_records(query_id);
  issue_query_walker(query_id, ctx.origin);
  arm_query_watchdog(query_id);
}

void DistributedMot::hedge_query(std::uint64_t query_id) {
  const auto it = queries_.find(query_id);
  if (it == queries_.end()) return;  // already answered
  QueryCtx& ctx = it->second;
  ctx.hedged = true;
  ++stats_.queries_hedged;
  if (obs::tracing()) {
    obs::emit({.type = obs::Ev::kQueryHedge,
               .t = sim_->now(),
               .object = ctx.object,
               .from = ctx.origin,
               .aux = query_id});
  }
  // A second walker under the same id: the first reply wins and the
  // loser's messages are dropped as stale.
  issue_query_walker(query_id, ctx.origin);
}

void DistributedMot::on_query_up(const Message& message) {
  const NodeId self = message.role.node;
  auto ctx_it = queries_.find(message.query_id);
  if (ctx_it == queries_.end()) {
    // A losing walker of a hedged / retried query: its twin already
    // answered (or the deadline aborted the query). Drop silently.
    ++stats_.stale_query_drops;
    return;
  }
  QueryCtx& ctx = ctx_it->second;

  SensorState& sensor = local(self);
  if (find_entry(sensor, message.role.level, message.object) != nullptr) {
    ctx.found_level = std::max(ctx.found_level, message.role.level);
    Message down = message;
    down.type = MsgType::kQueryDown;
    send(self, down, &ctx.cost);  // self-delivery, zero distance
    return;
  }
  if (options_.use_special_lists) {
    const auto role_it = sensor.roles.find(message.role.level);
    if (role_it != sensor.roles.end()) {
      const auto sdl_it = role_it->second.sdl.find(message.object);
      if (sdl_it != role_it->second.sdl.end() && !sdl_it->second.empty()) {
        const auto best = std::min_element(
            sdl_it->second.begin(), sdl_it->second.end(),
            [](const OverlayNode& a, const OverlayNode& b) {
              return a.level < b.level;
            });
        ctx.found_level = std::max(ctx.found_level, message.role.level);
        Message down = message;
        down.type = MsgType::kQueryDown;
        down.role = *best;
        send(self, down, &ctx.cost);
        return;
      }
    }
  }
  const auto sequence = provider_->upward_sequence(message.walk_source);
  const std::size_t next_index =
      next_reachable_index(self, sequence, message.walk_index + 1);
  MOT_CHECK(next_index < sequence.size());
  Message next = message;
  next.walk_index = static_cast<std::uint32_t>(next_index);
  next.role = sequence[next_index].node;
  send(self, next, &ctx.cost);
}

void DistributedMot::on_query_down(const Message& message) {
  const NodeId self = message.role.node;
  auto ctx_it = queries_.find(message.query_id);
  if (ctx_it == queries_.end()) {
    ++stats_.stale_query_drops;
    return;
  }
  QueryCtx& ctx = ctx_it->second;

  SensorState& sensor = local(self);
  Entry* entry = find_entry(sensor, message.role.level, message.object);
  if (entry == nullptr) {
    // The fragment was torn while we descended: climb again from here.
    ++stats_.queries_restarted;
    restart_query(message.query_id, self);
    return;
  }
  if (entry->child == message.role) {  // proxy sentinel
    if (physical_.at(message.object) == self) {
      finish_query(message.query_id, self);
      return;
    }
    // Stale proxy: the delete en route carries the new location; park.
    ++stats_.queries_parked;
    sensor.parked[message.object].push_back({message.query_id});
    return;
  }
  if (service_ != nullptr && service_->config().degrade_queries &&
      service_->overloaded(self)) {
    // Graceful degradation: past the high watermark this node answers
    // from its last-known detection entry instead of forwarding the
    // walker deeper into a saturated region. The answer is explicit
    // about its quality — degraded, with a staleness bound derived from
    // the chain geometry: the descent below a level-l entry spans
    // O(2^l), so the object is within staleness_scale * 2^l of the
    // reported position.
    ++stats_.queries_degraded;
    if (adapt_ != nullptr) ++degraded_by_node_[self];
    ctx.found_level = std::max(ctx.found_level, message.role.level);
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kQueryDegraded,
                 .t = sim_->now(),
                 .object = message.object,
                 .from = self,
                 .to = entry->child.node,
                 .level = message.role.level,
                 .aux = message.query_id});
    }
    Message reply;
    reply.type = MsgType::kQueryReply;
    reply.object = message.object;
    reply.role = {0, ctx.origin};
    reply.new_proxy = entry->child.node;
    reply.query_id = message.query_id;
    reply.degraded = true;
    reply.staleness = service_->config().staleness_scale *
                      std::ldexp(1.0, message.role.level);
    Weight reply_cost = 0.0;
    send(self, reply, &reply_cost);  // metered, not attributed to the op
    return;
  }
  const OverlayNode next_stop = entry->child;
  // Placement demand gauge: a descent whose next chain hop is running
  // hot is exactly the load a placed replica would absorb. Counted
  // whether or not a redirect is possible yet, so the controller sees
  // demand before the first placement exists.
  if (adapt_ != nullptr && service_ != nullptr &&
      service_->overloaded(next_stop.node)) {
    ++divert_attempts_[next_stop.node];
    ++stats_.divert_attempts;
  }
  if (replicating() && replica_owner_active(next_stop.node) &&
      link_unreachable(self, next_stop.node)) {
    // The next chain hop is across a partition (or crashed): read its
    // replicated detection list instead of waiting for the heal.
    const NodeId slot = replica_of(next_stop, message.object);
    if (slot != kInvalidNode && !link_unreachable(self, slot)) {
      ++stats_.query_failovers;
      if (obs::tracing()) {
        obs::emit({.type = obs::Ev::kQueryFailover,
                   .t = sim_->now(),
                   .object = message.object,
                   .from = self,
                   .to = slot,
                   .level = next_stop.level,
                   .aux = message.query_id});
      }
      Message failover = message;
      failover.type = MsgType::kQueryDownReplica;
      failover.role = {next_stop.level, slot};
      failover.link = next_stop;  // the unreachable owner role
      send(self, failover, &ctx.cost);
      return;
    }
  }
  if (service_ != nullptr && service_->config().sibling_redirect &&
      replicating() && replica_owner_active(next_stop.node) &&
      service_->overloaded(next_stop.node)) {
    // Hot next hop: divert the descent to the de Bruijn cluster sibling
    // hosting the replicated detection entry — the paper's hashed-cluster
    // load balancing used as an active overload escape hatch. The
    // sibling must itself have headroom (redirecting load onto another
    // hot node just moves the queue) and be reachable.
    const NodeId slot = replica_of(next_stop, message.object);
    if (slot != kInvalidNode && !link_unreachable(self, slot) &&
        !service_->overloaded(slot)) {
      ++stats_.sibling_redirects;
      if (obs::tracing()) {
        obs::emit({.type = obs::Ev::kSiblingRedirect,
                   .t = sim_->now(),
                   .object = message.object,
                   .from = self,
                   .to = slot,
                   .level = next_stop.level,
                   .aux = message.query_id});
      }
      Message redirect = message;
      redirect.type = MsgType::kQueryDownReplica;
      redirect.role = {next_stop.level, slot};
      redirect.link = next_stop;  // the overloaded owner role
      send(self, redirect, &ctx.cost);
      return;
    }
  }
  Message next = message;
  next.role = next_stop;
  send(self, next, &ctx.cost);
}

void DistributedMot::on_query_down_replica(const Message& message) {
  const NodeId self = message.role.node;
  auto ctx_it = queries_.find(message.query_id);
  if (ctx_it == queries_.end()) {
    ++stats_.stale_query_drops;
    return;
  }
  QueryCtx& ctx = ctx_it->second;
  const OverlayNode owner = message.link;
  // Default: relay to the unreachable owner itself. This host was chosen
  // because the sender could reach it, and it may well sit on the
  // owner's side of the cut — in which case the relay routes the walker
  // around the partition; otherwise the reliable layer waits out the
  // heal here instead of at the sender.
  OverlayNode target = owner;
  SensorState& sensor = local(self);
  const auto role_it = sensor.roles.find(message.role.level);
  if (role_it != sensor.roles.end()) {
    const auto obj_it = role_it->second.replicas.find(message.object);
    if (obj_it != role_it->second.replicas.end()) {
      const auto rec_it = obj_it->second.find(owner.node);
      if (rec_it != obj_it->second.end() && rec_it->second.present &&
          !(rec_it->second.child == owner)) {
        // Replica hit with a real child pointer: skip the unreachable
        // stop entirely and resume the normal descent below it. (A
        // sentinel replica means the owner is the proxy — the walker
        // must still reach the owner to answer, so relay.)
        target = rec_it->second.child;
      }
    }
  }
  Message next = message;
  next.type = MsgType::kQueryDown;
  next.role = target;
  next.link = OverlayNode{};
  send(self, next, &ctx.cost);
}

void DistributedMot::restart_query(std::uint64_t query_id, NodeId from) {
  auto ctx_it = queries_.find(query_id);
  MOT_CHECK(ctx_it != queries_.end());
  QueryCtx& ctx = ctx_it->second;
  ++ctx.restarts;
  MOT_CHECK(ctx.restarts < kMaxQueryRestarts);
  issue_query_walker(query_id, from);
}

void DistributedMot::redirect_parked(NodeId self, ObjectId object,
                                     NodeId new_proxy) {
  SensorState& sensor = local(self);
  const auto it = sensor.parked.find(object);
  if (it == sensor.parked.end()) return;
  std::vector<ParkedQuery> parked = std::move(it->second);
  sensor.parked.erase(it);
  const OverlayNode target =
      provider_->upward_sequence(new_proxy).front().node;
  for (const ParkedQuery& waiting : parked) {
    auto ctx_it = queries_.find(waiting.query_id);
    if (ctx_it == queries_.end()) {
      // A record a winning walker or the deadline watchdog left behind.
      ++stats_.stale_query_drops;
      continue;
    }
    ++stats_.queries_redirected;
    Message down;
    down.type = MsgType::kQueryDown;
    down.object = object;
    down.role = target;
    down.requester = ctx_it->second.origin;
    down.query_id = waiting.query_id;
    send(self, down, &ctx_it->second.cost);
  }
}

void DistributedMot::finish_query(std::uint64_t query_id, NodeId proxy) {
  auto ctx_it = queries_.find(query_id);
  if (ctx_it == queries_.end()) {
    ++stats_.stale_query_drops;  // a losing walker reached the proxy too
    return;
  }
  // The reply travels home as a real message, but the locate cost (what
  // the paper's query cost ratio measures) excludes the response trip.
  Message reply;
  reply.type = MsgType::kQueryReply;
  reply.object = ctx_it->second.object;
  reply.role = {0, ctx_it->second.origin};
  reply.new_proxy = proxy;
  reply.query_id = query_id;
  Weight reply_cost = 0.0;
  send(proxy, reply, &reply_cost);  // metered, not attributed to the op
}

void DistributedMot::on_query_reply(const Message& message) {
  auto ctx_it = queries_.find(message.query_id);
  if (ctx_it == queries_.end()) {
    ++stats_.stale_query_drops;  // the losing reply of a hedged query
    return;
  }
  QueryCtx ctx = std::move(ctx_it->second);
  queries_.erase(ctx_it);
  --inflight_;
  ++stats_.queries_completed;
  if (ctx.hedged || ctx.attempt > 0) {
    // GC the losing walker: frames still in flight and parked records
    // would otherwise linger past quiescence.
    poison_query_transfers(message.query_id);
    erase_parked_records(message.query_id);
  }
  QueryResult result;
  result.found = true;
  result.proxy = message.new_proxy;
  result.cost = ctx.cost;
  result.found_level = ctx.found_level;
  result.degraded = message.degraded;
  result.staleness_bound = message.staleness;
  if (ctx.done) ctx.done(result);
  if (cluster_ != nullptr) {
    cluster_->complete_query(message.query_id, result);
  }
}

// ---------------------------------------------------------------------------
// SDL bookkeeping
// ---------------------------------------------------------------------------

void DistributedMot::on_sdl_add(const Message& message) {
  RoleState& role = local(message.role.node).roles[message.role.level];
  // A reordered SdlRemove may have arrived first; annihilate against its
  // tombstone instead of registering a record that would instantly dangle.
  const auto tomb_it = role.sdl_tombstones.find(message.object);
  if (tomb_it != role.sdl_tombstones.end()) {
    const auto pos = std::find(tomb_it->second.begin(),
                               tomb_it->second.end(), message.link);
    if (pos != tomb_it->second.end()) {
      tomb_it->second.erase(pos);
      if (tomb_it->second.empty()) role.sdl_tombstones.erase(tomb_it);
      return;
    }
  }
  role.sdl[message.object].push_back(message.link);
  journal(durable::JournalRecord::make_sdl_add(message.role, message.object,
                                               message.link));
}

void DistributedMot::on_sdl_remove(const Message& message) {
  RoleState& role = local(message.role.node).roles[message.role.level];
  const auto sdl_it = role.sdl.find(message.object);
  if (sdl_it != role.sdl.end()) {
    const auto pos = std::find(sdl_it->second.begin(),
                               sdl_it->second.end(), message.link);
    if (pos != sdl_it->second.end()) {
      sdl_it->second.erase(pos);
      if (sdl_it->second.empty()) role.sdl.erase(sdl_it);
      journal(durable::JournalRecord::make_sdl_remove(
          message.role, message.object, message.link));
      return;
    }
  }
  // Out-of-order arrival: the matching SdlAdd is still in flight. Only
  // possible on a reordering channel; in-order delivery always finds the
  // record (the previous MOT_CHECK lives on through this assert).
  MOT_CHECK(channel_ != nullptr);
  role.sdl_tombstones[message.object].push_back(message.link);
}

// ---------------------------------------------------------------------------
// Cluster mode (src/netio/): this runtime as one shard of N processes
// ---------------------------------------------------------------------------
//
// Sharding invariant: a node's sensor state lives only on its owner
// shard, and a handler only ever runs on the owner shard of its
// destination node (send() forwards everything else). The cross-cutting
// per-operation context (MoveCtx / QueryCtx) follows the walker: it is
// embedded into the message at the shard boundary (forward_remote) and
// re-materialized on arrival (cluster_inject), so at any instant exactly
// one shard holds it. Operations execute one at a time (the coordinator
// waits for completion + mesh quiescence), which is the paper's
// one-by-one maintenance case — parking, hedging and walker races never
// arise across shards.

DistributedMot::TraceCtx* DistributedMot::trace_ctx_for(
    const Message& message) {
  if (is_query_type(message.type)) {
    const auto it = queries_.find(message.query_id);
    return it == queries_.end() ? nullptr : &it->second.trace;
  }
  // Inserts and deletes are a move's walk, a publish hop is a publish's;
  // SDL / replica updates are side-branch bookkeeping of whichever walk
  // over this object is executing here — a move if one is in flight,
  // else a publish.
  if (message.type != MsgType::kPublish) {
    const auto mv = moves_.find(message.object);
    if (mv != moves_.end()) return &mv->second.trace;
    if (message.type == MsgType::kInsert ||
        message.type == MsgType::kDelete) {
      return nullptr;
    }
  }
  const auto pb = publish_trace_.find(message.object);
  return pb == publish_trace_.end() ? nullptr : &pb->second;
}

// Trace ids must be (a) nonzero, (b) unique per walk, and (c) derived
// identically on every shard without coordination. Publishes and moves
// hash (object, per-object op ordinal); the ordinal advances everywhere
// because cluster mode broadcasts cluster_note_position to all shards
// before each one. Queries hash the coordinator-assigned query id,
// which the single-process runtime assigns in the same sequence.
namespace {

std::uint64_t mix_trace(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0x2545f4914f6cdd1dULL;
  return h;
}

}  // namespace

std::uint64_t DistributedMot::make_op_trace_id(ObjectId object,
                                               std::uint64_t seq) const {
  std::uint64_t h = mix_trace(mix_trace(mix_trace(0x6d6f74ULL, 1), object),
                              seq);
  return h == 0 ? 1 : h;
}

std::uint64_t DistributedMot::make_query_trace_id(
    std::uint64_t query_id) const {
  std::uint64_t h = mix_trace(mix_trace(0x6d6f74ULL, 2), query_id);
  return h == 0 ? 1 : h;
}

void DistributedMot::forward_remote(NodeId from, Message message) {
  // SDL / replica updates carry no walker context; spine hops take
  // theirs along and leave this shard.
  if (is_query_type(message.type)) {
    const auto it = queries_.find(message.query_id);
    MOT_CHECK(it != queries_.end());
    message.op_cost = it->second.cost;
    message.op_peak = it->second.found_level;
    queries_.erase(it);
    --inflight_;
  } else if (message.type == MsgType::kPublish) {
    // The in-flight marker travels with the climb.
    publishing_.erase(message.object);
    publish_trace_.erase(message.object);
    --inflight_;
  } else if (is_spine_hop(message.type)) {  // insert / delete
    const auto it = moves_.find(message.object);
    MOT_CHECK(it != moves_.end());
    message.op_cost = it->second.cost;
    message.op_peak = it->second.peak_level;
    // message.new_proxy already carries ctx.to (set at move() for the
    // climb, at the splice for the tear).
    moves_.erase(it);
    --inflight_;
  }
  cluster_->forward(message, from);
}

void DistributedMot::cluster_inject(const Message& message, NodeId from) {
  MOT_CHECK(cluster_ != nullptr);
  MOT_CHECK(cluster_->owns(message.role.node));
  (void)from;
  Message local = message;
  local.op_cost = 0.0;  // context lives in the maps again, not the wire
  local.op_peak = 0;
  local.trace_id = 0;
  local.span = 0;
  local.span_seq = 0;
  // The hop that crossed the boundary already holds span `message.span`
  // (emitted by the sending shard), and the walk's allocator stands at
  // `message.span_seq` — re-seed the context so the next hop here
  // continues the same span tree with no gaps or reuse.
  const TraceCtx arriving{message.trace_id, message.span_seq,
                          message.span};
  if (is_query_type(message.type)) {
    QueryCtx ctx;
    // A reply came home to the origin's shard; the context it needs
    // (final cost, found level) rides in the message.
    ctx.origin = message.type == MsgType::kQueryReply ? message.role.node
                                                      : message.requester;
    ctx.object = message.object;
    ctx.cost = message.op_cost;
    ctx.found_level = message.op_peak;
    if (message.trace_id != 0) ctx.trace = arriving;
    const bool inserted =
        queries_.emplace(message.query_id, std::move(ctx)).second;
    MOT_CHECK(inserted);
    ++inflight_;
  } else if (message.type == MsgType::kPublish) {
    publishing_.insert(message.object);
    if (message.trace_id != 0) publish_trace_[message.object] = arriving;
    ++inflight_;
  } else if (is_spine_hop(message.type)) {  // insert / delete
    MoveCtx ctx;
    ctx.to = message.new_proxy;
    ctx.cost = message.op_cost;
    ctx.peak_level = message.op_peak;
    if (message.trace_id != 0) ctx.trace = arriving;
    const bool inserted = moves_.emplace(message.object, std::move(ctx)).second;
    MOT_CHECK(inserted);
    ++inflight_;
  }
  sim_->schedule(0.0, [this, local] { handle(local); });
}

void DistributedMot::cluster_note_position(ObjectId object,
                                           NodeId position) {
  physical_[object] = position;
  // First sighting is the publish broadcast (proxy == position); moves
  // leave the committed proxy to the splice on the meet shard.
  proxies_.emplace(object, position);
  // Every shard sees this broadcast before the walker starts anywhere,
  // so advancing the op ordinal here keeps trace-id derivation in sync
  // across the whole cluster (and with a single-process reference run).
  if (obs::tracing()) ++op_trace_seq_[object];
}

void DistributedMot::cluster_publish(ObjectId object, NodeId proxy) {
  MOT_CHECK(cluster_ != nullptr && cluster_->owns(proxy));
  MOT_EXPECTS(physical_.at(object) == proxy);  // broadcast came first
  start_publish(object, proxy);
}

void DistributedMot::cluster_move(ObjectId object, NodeId new_proxy) {
  MOT_CHECK(cluster_ != nullptr && cluster_->owns(new_proxy));
  MOT_EXPECTS(physical_.at(object) == new_proxy);  // broadcast came first
  MOT_EXPECTS(moves_.count(object) == 0);
  start_move(object, new_proxy, {});
}

void DistributedMot::cluster_query(NodeId origin, ObjectId object,
                                   std::uint64_t query_id) {
  MOT_CHECK(cluster_ != nullptr && cluster_->owns(origin));
  MOT_EXPECTS(proxies_.count(object) != 0);
  start_query(query_id, origin, object, {});
}

// ---------------------------------------------------------------------------
// Crash recovery (Section 7, crash-stop failures)
// ---------------------------------------------------------------------------

void DistributedMot::recover_from_crash(NodeId victim) {
  // Recovery is the control plane: it runs between message handlers (a
  // crash is a simulator event of its own), touches state directly like
  // ChainTracker::evacuate_node does, and charges every repair hop to the
  // meter as recovery traffic.
  MOT_CHECK(active_node_ == kInvalidNode);
  MOT_CHECK(victim < sensors_.size());
  MOT_CHECK(provider_->root_stop().node != victim);  // re-rooting = rebuild
  for (const auto& [object, at] : physical_) {
    (void)object;
    MOT_CHECK(at != victim);  // objects sit on live sensors
  }
  ++stats_.crash_recoveries;
  MOT_PHASE("recovery");

  // 1. Freeze traffic that involved the dead node and classify what the
  //    lost frames were doing.
  std::vector<std::uint64_t> stalled;
  for (const auto& [seq, transfer] : pending_) {
    if (transfer.from == victim || transfer.to == victim) {
      stalled.push_back(seq);
    }
  }
  std::sort(stalled.begin(), stalled.end());
  std::vector<ObjectId> damaged;
  std::vector<std::uint64_t> queries_to_restart;
  for (const std::uint64_t seq : stalled) {
    // SDL / replica cross-references are restored by the sweep below.
    const Message& lost = pending_.at(seq).message;
    if (is_query_type(lost.type)) {
      queries_to_restart.push_back(lost.query_id);
    } else if (is_spine_hop(lost.type)) {  // publish / insert / delete
      damaged.push_back(lost.object);
    }
    poison_transfer(seq);
  }
  // An in-flight maintenance chain touching the victim must be rebuilt
  // even when no lost frame implicates it: the victim may hold the
  // chain's bottom sentinel (an old proxy dying mid-move, its walker
  // parked elsewhere — possibly across a partition), which splice_around
  // cannot bypass because there is nothing below it to splice to.
  for (const ObjectId object : objects_through(victim)) {
    damaged.push_back(object);
  }
  // Only objects whose maintenance walker is still in flight need a
  // rebuild; a lingering unacked frame of a completed operation is noise.
  std::sort(damaged.begin(), damaged.end());
  damaged.erase(std::unique(damaged.begin(), damaged.end()), damaged.end());
  std::erase_if(damaged, [this](ObjectId object) {
    return moves_.count(object) == 0 && publishing_.count(object) == 0;
  });

  // 2. Queries issued from the dead node die with their requester.
  std::vector<std::uint64_t> orphaned;
  for (const auto& [id, ctx] : queries_) {
    if (ctx.origin == victim) orphaned.push_back(id);
  }
  std::sort(orphaned.begin(), orphaned.end());
  for (const std::uint64_t id : orphaned) {
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kQueryAbort,
                 .t = sim_->now(),
                 .object = queries_.at(id).object,
                 .from = victim,
                 .aux = id});
    }
    poison_query_transfers(id);
    erase_parked_records(id);
    queries_.erase(id);
    --inflight_;
    ++stats_.queries_aborted;
  }

  // 3. Rebuild objects whose maintenance died mid-flight.
  for (const ObjectId object : damaged) {
    poison_object_transfers(object);
    rebuild_object(object, &queries_to_restart);
    if (moves_.count(object) != 0) {
      finish_move(object);
    } else {
      MOT_CHECK(publishing_.erase(object) == 1);
      --inflight_;
      ++stats_.publishes_completed;
    }
  }

  // 4. Splice the victim's surviving chain entries out of their chains.
  splice_around(victim);

  // 5. Sweep dangling references and collect queries parked at the dead
  //    sensor, then erase its state entirely.
  for (const auto& [object, parked] : sensors_[victim].parked) {
    (void)object;
    for (const ParkedQuery& waiting : parked) {
      queries_to_restart.push_back(waiting.query_id);
    }
  }
  if (!break_recovery_) {
    sensors_[victim] = SensorState{};
    journal(durable::JournalRecord::make_wipe_node(victim));
  }
  // The victim's detection-list entries are now (supposed to be) gone
  // and its chains spliced, so the ground truth is stable: cancel every
  // in-flight replica update (a late write could only clobber fresher
  // state) and re-derive the replica stores from the live lists. This
  // also re-homes replicas whose host just died.
  if (replicating()) {
    std::vector<std::uint64_t> replica_frames;
    for (const auto& [seq, transfer] : pending_) {
      const MsgType type = transfer.message.type;
      if (type == MsgType::kReplicaAdd || type == MsgType::kReplicaRemove) {
        replica_frames.push_back(seq);
      }
    }
    std::sort(replica_frames.begin(), replica_frames.end());
    for (const std::uint64_t seq : replica_frames) poison_transfer(seq);
    rebuild_replicas();
  }
  for (NodeId v = 0; v < sensors_.size(); ++v) {
    for (auto& [level, role] : sensors_[v].roles) {
      for (auto& [object, entry] : role.dl) {
        if (entry.sp && entry.sp->node == victim) {
          entry.sp.reset();
          journal(durable::JournalRecord::make_sp_clear(
              OverlayNode{level, v}, object));
        }
      }
      for (auto it = role.sdl.begin(); it != role.sdl.end();) {
        std::erase_if(it->second, [&](const OverlayNode& child) {
          if (child.node != victim) return false;
          journal(durable::JournalRecord::make_sdl_remove(
              OverlayNode{level, v}, it->first, child));
          return true;
        });
        it = it->second.empty() ? role.sdl.erase(it) : std::next(it);
      }
      // Tombstones are transient reordering state, not durable state: a
      // crash-cut tombstone entry is never journaled.
      for (auto it = role.sdl_tombstones.begin();
           it != role.sdl_tombstones.end();) {
        std::erase_if(it->second, [victim](const OverlayNode& child) {
          return child.node == victim;
        });
        it = it->second.empty() ? role.sdl_tombstones.erase(it)
                                : std::next(it);
      }
    }
  }

  // 6. Restart queries that lost their walker (or their parking spot).
  std::sort(queries_to_restart.begin(), queries_to_restart.end());
  queries_to_restart.erase(
      std::unique(queries_to_restart.begin(), queries_to_restart.end()),
      queries_to_restart.end());
  for (const std::uint64_t id : queries_to_restart) {
    const auto it = queries_.find(id);
    if (it == queries_.end()) continue;  // completed or aborted meanwhile
    poison_query_transfers(id);
    erase_parked_records(id);
    ++stats_.queries_rescued;
    if (obs::tracing()) {
      obs::emit({.type = obs::Ev::kQueryRescue,
                 .t = sim_->now(),
                 .object = it->second.object,
                 .from = it->second.origin,
                 .aux = id});
    }
    restart_query(id, it->second.origin);
  }
}

void DistributedMot::splice_around(NodeId victim) {
  // Collect the objects chained through the victim, in sorted order so
  // recovery replays deterministically.
  std::vector<ObjectId> objects = objects_through(victim);
  for (const ObjectId object : objects) {
    // The victim may appear at several (even consecutive) levels of one
    // chain; resolve each entry's child transitively to the first stop
    // hosted by a live sensor.
    const auto resolve = [&](OverlayNode at) {
      std::size_t hops = 0;
      while (at.node == victim) {
        const Entry& entry =
            sensors_[victim].roles.at(at.level).dl.at(object);
        MOT_CHECK(!(entry.child == at));  // the victim proxies nothing
        at = entry.child;
        MOT_CHECK(++hops <= sensors_.size());
      }
      return at;
    };
    std::size_t spliced = 0;
    for (NodeId v = 0; v < sensors_.size(); ++v) {
      if (v == victim) continue;
      for (auto& [level, role] : sensors_[v].roles) {
        const auto dl_it = role.dl.find(object);
        if (dl_it == role.dl.end() || dl_it->second.child.node != victim) {
          continue;
        }
        const OverlayNode target = resolve(dl_it->second.child);
        dl_it->second.child = target;
        journal(durable::JournalRecord::make_splice(OverlayNode{level, v},
                                                    object, target));
        // The repair message: parent tells the bypassed child directly.
        charge_recovery(obs::Ev::kRecoverySplice, object, v, target);
        ++spliced;
      }
    }
    // Every maximal run of victim-hosted entries hangs below one live
    // parent (the root is always live), so each was reachable above.
    MOT_CHECK(spliced >= 1);
    for (const auto& [level, role] : sensors_[victim].roles) {
      (void)level;
      stats_.chain_splices += role.dl.count(object);
    }
  }
}

void DistributedMot::charge_recovery(obs::Ev type, ObjectId object,
                                     NodeId from, OverlayNode to) {
  const Weight hop = distance(from, to.node);
  stats_.recovery_distance += hop;
  meter_.charge(hop);
  if (obs::tracing()) {
    obs::emit({.type = type,
               .t = sim_->now(),
               .object = object,
               .from = from,
               .to = to.node,
               .level = to.level,
               .dist = hop,
               .charged = hop});
  }
}

void DistributedMot::rebuild_object(
    ObjectId object, std::vector<std::uint64_t>* queries_to_restart) {
  // Invalidate queued local handoffs of the torn operation (frames are
  // poisoned by sequence number; handoffs are gated by this epoch).
  ++rebuild_epoch_[object];
  // Tear every trace of the object: its chain may be mid-splice with
  // fragments on both the old and new paths, so surgical repair is not
  // worth the case analysis — re-publishing costs O(D) like any publish.
  journal(durable::JournalRecord::make_wipe_object(object));
  for (NodeId v = 0; v < sensors_.size(); ++v) {
    for (auto& [level, role] : sensors_[v].roles) {
      (void)level;
      role.dl.erase(object);
      role.sdl.erase(object);
      role.sdl_tombstones.erase(object);
    }
    const auto parked_it = sensors_[v].parked.find(object);
    if (parked_it != sensors_[v].parked.end()) {
      for (const ParkedQuery& waiting : parked_it->second) {
        queries_to_restart->push_back(waiting.query_id);
      }
      sensors_[v].parked.erase(parked_it);
    }
  }

  // Reinstall the chain along the physical position's upward sequence
  // (dead stops skipped), charging the climb as recovery traffic.
  const NodeId at = physical_.at(object);
  MOT_CHECK(!is_node_dead(at));
  const auto sequence = provider_->upward_sequence(at);
  OverlayNode child = sequence.front().node;  // sentinel: child == self
  std::size_t index = 0;
  while (index < sequence.size()) {
    const OverlayNode stop = sequence[index].node;
    charge_recovery(obs::Ev::kRecoveryHop, object, child.node, stop);
    RoleState& role = sensors_[stop.node].roles[stop.level];
    std::optional<OverlayNode> sp;
    if (options_.use_special_lists) {
      sp = provider_->special_parent(at, index);
      if (sp && is_node_dead(sp->node)) sp.reset();
    }
    MOT_CHECK(role.dl.count(object) == 0);
    role.dl.emplace(object, Entry{child, sp});
    journal(durable::JournalRecord::make_insert(stop, object, child, sp));
    if (sp) {
      sensors_[sp->node].roles[sp->level].sdl[object].push_back(stop);
      journal(durable::JournalRecord::make_sdl_add(*sp, object, stop));
      charge_recovery(obs::Ev::kRecoveryHop, object, stop.node, *sp);
    }
    child = stop;
    index = next_alive_index(sequence, index + 1);
  }
  proxies_[object] = at;
  journal(durable::JournalRecord::make_proxy(object, at));
  ++stats_.objects_rebuilt;
  if (obs::tracing()) {
    obs::emit({.type = obs::Ev::kRecoveryRebuild,
               .t = sim_->now(),
               .object = object,
               .to = at});
  }
}

void DistributedMot::erase_parked_records(std::uint64_t query_id) {
  for (NodeId v = 0; v < sensors_.size(); ++v) {
    auto& parked = sensors_[v].parked;
    for (auto it = parked.begin(); it != parked.end();) {
      std::erase_if(it->second, [query_id](const ParkedQuery& waiting) {
        return waiting.query_id == query_id;
      });
      it = it->second.empty() ? parked.erase(it) : std::next(it);
    }
  }
}

// ---------------------------------------------------------------------------

NodeId DistributedMot::proxy_of(ObjectId object) const {
  const auto it = proxies_.find(object);
  MOT_EXPECTS(it != proxies_.end());
  return it->second;
}

NodeId DistributedMot::physical_position(ObjectId object) const {
  const auto it = physical_.find(object);
  MOT_EXPECTS(it != physical_.end());
  return it->second;
}

std::vector<std::size_t> DistributedMot::load_per_node() const {
  std::vector<std::size_t> load(sensors_.size(), 0);
  for (NodeId v = 0; v < sensors_.size(); ++v) {
    for (const auto& [level, role] : sensors_[v].roles) {
      load[v] += role.dl.size();
      for (const auto& [object, children] : role.sdl) {
        load[v] += children.size();
      }
    }
  }
  return load;
}

std::vector<ObjectId> DistributedMot::objects_through(NodeId node) const {
  MOT_EXPECTS(node < sensors_.size());
  std::vector<ObjectId> objects;
  for (const auto& [level, role] : sensors_[node].roles) {
    (void)level;
    for (const auto& [object, entry] : role.dl) {
      (void)entry;
      objects.push_back(object);
    }
  }
  std::sort(objects.begin(), objects.end());
  objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
  return objects;
}

durable::StateImage DistributedMot::export_durable_image() const {
  durable::StateImage image;
  for (NodeId v = 0; v < sensors_.size(); ++v) {
    for (const auto& [level, role_state] : sensors_[v].roles) {
      durable::RoleImage role;
      role.role = OverlayNode{level, v};
      for (const auto& [object, entry] : role_state.dl) {
        role.dl.push_back({object, entry.child, entry.sp});
      }
      for (const auto& [object, children] : role_state.sdl) {
        role.sdl.push_back({object, children});
      }
      image.roles.push_back(std::move(role));
    }
  }
  for (const auto& [object, proxy] : proxies_) {
    image.proxies.emplace_back(object, proxy);
  }
  for (const auto& [object, at] : physical_) {
    image.physical.emplace_back(object, at);
  }
  // FlatMap / hash-map iteration order above depends on insertion
  // history, which is not observable state.
  image.canonicalize();
  return image;
}

void DistributedMot::restore_durable_image(const durable::StateImage& image) {
  // Restore replaces quiescent state only: nothing in flight, nothing
  // unacknowledged, no staged batches.
  MOT_EXPECTS(inflight_ == 0);
  MOT_EXPECTS(pending_.empty());
  MOT_EXPECTS(staged_.empty());
  for (SensorState& sensor : sensors_) sensor = SensorState{};
  proxies_.clear();
  physical_.clear();
  for (const durable::RoleImage& role : image.roles) {
    MOT_CHECK(role.role.node < sensors_.size());
    RoleState& state = sensors_[role.role.node].roles[role.role.level];
    for (const auto& entry : role.dl) {
      state.dl.emplace(entry.object, Entry{entry.child, entry.sp});
    }
    for (const auto& entry : role.sdl) {
      state.sdl.emplace(entry.object, entry.children);
    }
  }
  for (const auto& [object, proxy] : image.proxies) {
    proxies_[object] = proxy;
  }
  for (const auto& [object, at] : image.physical) {
    physical_[object] = at;
  }
  // Replica stores are runtime state re-derived from the lists (the same
  // re-homing sweep crash recovery uses).
  if (replicating()) rebuild_replicas();
}

std::vector<std::string> DistributedMot::invariant_violations() const {
  std::vector<std::string> out;
  if (inflight_ != 0) {
    out.push_back("operations still in flight: " + std::to_string(inflight_));
  }
  if (!pending_.empty()) {
    out.push_back("unacknowledged transfers: " +
                  std::to_string(pending_.size()));
  }
  if (service_ != nullptr) {
    // Service-model conservation ledger: every arrival was admitted or
    // shed, every admitted message was serviced or is still queued — and
    // at quiescence nothing may still be queued.
    if (!service_->conserved()) {
      const ServiceStats& s = service_->stats();
      out.push_back("service ledger does not reconcile: arrivals " +
                    std::to_string(s.arrivals) + " != admitted " +
                    std::to_string(s.admitted) + " + shed " +
                    std::to_string(s.shed_total()) + ", or admitted != serviced " +
                    std::to_string(s.serviced) + " + queued " +
                    std::to_string(service_->total_queued()));
    }
    if (service_->total_queued() != 0) {
      out.push_back("service queues not drained: " +
                    std::to_string(service_->total_queued()) +
                    " messages still queued");
    }
    std::size_t stalled = 0;
    for (const auto& [to, credit] : credit_) {
      (void)to;
      stalled += credit.outstanding;
      for (const std::uint64_t seq : credit.stalled) {
        if (pending_.count(seq) != 0) ++stalled;
      }
    }
    if (stalled != 0) {
      out.push_back("credit windows not drained: " +
                    std::to_string(stalled) +
                    " frames outstanding or stalled");
    }
  }
  for (NodeId v = 0; v < sensors_.size(); ++v) {
    for (const auto& [level, role] : sensors_[v].roles) {
      if (!role.sdl_tombstones.empty()) {
        out.push_back("sdl tombstones at node " + std::to_string(v) +
                      " level " + std::to_string(level));
      }
    }
  }
  // Detection-list entries per object, counted in one pass.
  std::unordered_map<ObjectId, std::size_t> entries;
  for (const SensorState& sensor : sensors_) {
    for (const auto& [level, role] : sensor.roles) {
      (void)level;
      for (const auto& [object, entry] : role.dl) {
        (void)entry;
        ++entries[object];
      }
    }
  }
  for (const auto& [object, proxy] : proxies_) {
    const std::size_t total = entries[object];
    // Walk root -> proxy; every detection-list entry must sit on the
    // walked chain, otherwise entries are orphaned.
    OverlayNode current = provider_->root_stop();
    std::size_t chain = 0;
    bool walk_ok = true;
    while (true) {
      if (chain > total) {
        out.push_back("object " + std::to_string(object) +
                      ": chain longer than its entry count (cycle?)");
        walk_ok = false;
        break;
      }
      const Entry* entry = nullptr;
      const auto& roles = sensors_[current.node].roles;
      const auto role_it = roles.find(current.level);
      if (role_it != roles.end()) {
        const auto dl_it = role_it->second.dl.find(object);
        if (dl_it != role_it->second.dl.end()) entry = &dl_it->second;
      }
      if (entry == nullptr) {
        out.push_back("object " + std::to_string(object) +
                      ": chain broken at node " +
                      std::to_string(current.node) + " level " +
                      std::to_string(current.level));
        walk_ok = false;
        break;
      }
      ++chain;
      if (entry->child == current) {  // proxy sentinel
        if (current.node != proxy) {
          out.push_back("object " + std::to_string(object) +
                        ": chain ends at node " +
                        std::to_string(current.node) +
                        " but the committed proxy is " +
                        std::to_string(proxy));
        }
        break;
      }
      current = entry->child;
    }
    if (walk_ok && chain != total) {
      out.push_back("object " + std::to_string(object) + ": " +
                    std::to_string(total - chain) +
                    " orphaned detection-list entries (chain " +
                    std::to_string(chain) + " of " + std::to_string(total) +
                    ")");
    }
  }
  if (replicating()) {
    // Every live detection-list entry of an actively replicated owner
    // must be mirrored at its slot... (in placed mode only the placed
    // owners replicate, so only they are audited here)
    for (NodeId v = 0; v < sensors_.size(); ++v) {
      if (is_node_dead(v) || !replica_owner_active(v)) continue;
      for (const auto& [level, role] : sensors_[v].roles) {
        for (const auto& [object, entry] : role.dl) {
          const NodeId slot = replica_of({level, v}, object);
          if (slot == kInvalidNode) continue;
          const ReplicaRecord* record = nullptr;
          const auto slot_role_it = sensors_[slot].roles.find(level);
          if (slot_role_it != sensors_[slot].roles.end()) {
            const auto obj_it = slot_role_it->second.replicas.find(object);
            if (obj_it != slot_role_it->second.replicas.end()) {
              const auto rec_it = obj_it->second.find(v);
              if (rec_it != obj_it->second.end()) record = &rec_it->second;
            }
          }
          if (record == nullptr || !record->present ||
              !(record->child == entry.child)) {
            out.push_back("object " + std::to_string(object) +
                          ": replica at node " + std::to_string(slot) +
                          " out of sync with owner " + std::to_string(v) +
                          " level " + std::to_string(level));
          }
        }
      }
    }
    // ...and no replica may outlive its detection-list entry — or its
    // owner's placement: a retired owner's records must all be gone.
    for (NodeId host = 0; host < sensors_.size(); ++host) {
      for (const auto& [level, role] : sensors_[host].roles) {
        for (const auto& [object, owners] : role.replicas) {
          for (const auto& [owner, record] : owners) {
            if (!record.present) continue;
            bool backed = false;
            if (!is_node_dead(owner) && replica_owner_active(owner)) {
              const auto& roles = sensors_[owner].roles;
              const auto role_it = roles.find(level);
              backed = role_it != roles.end() &&
                       role_it->second.dl.count(object) != 0;
            }
            if (!backed) {
              out.push_back("object " + std::to_string(object) +
                            ": orphaned replica of owner " +
                            std::to_string(owner) + " at node " +
                            std::to_string(host) + " level " +
                            std::to_string(level));
            }
          }
        }
      }
    }
  }
  return out;
}

void DistributedMot::validate_quiescent() const {
  // A drained simulator implies a drained batch window: the flush event
  // was scheduled when the first update was staged.
  MOT_CHECK(staged_.empty());
  const std::vector<std::string> violations = invariant_violations();
  for (const std::string& violation : violations) {
    std::fprintf(stderr, "[mot] invariant violation: %s\n",
                 violation.c_str());
  }
  MOT_CHECK(violations.empty());
}

namespace {

void set_counter(obs::MetricsRegistry& registry, const std::string& name,
                 const obs::Labels& labels, std::uint64_t value) {
  obs::Counter& counter = registry.counter(name, labels);
  counter.reset();
  counter.increment(value);
}

}  // namespace

void export_protocol_stats(const ProtocolStats& stats,
                           obs::MetricsRegistry& registry,
                           const obs::Labels& labels) {
  set_counter(registry, "mot_proto_messages_sent_total", labels,
              stats.messages_sent);
  set_counter(registry, "mot_proto_physical_hops_total", labels,
              stats.physical_hops);
  set_counter(registry, "mot_proto_messages_coalesced_total", labels,
              stats.messages_coalesced);
  set_counter(registry, "mot_proto_batch_flushes_total", labels,
              stats.batch_flushes);
  set_counter(registry, "mot_proto_publishes_total", labels,
              stats.publishes_completed);
  set_counter(registry, "mot_proto_moves_total", labels,
              stats.moves_completed);
  set_counter(registry, "mot_proto_queries_total", labels,
              stats.queries_completed);
  set_counter(registry, "mot_proto_queries_parked_total", labels,
              stats.queries_parked);
  set_counter(registry, "mot_proto_queries_redirected_total", labels,
              stats.queries_redirected);
  set_counter(registry, "mot_proto_queries_restarted_total", labels,
              stats.queries_restarted);
  set_counter(registry, "mot_proto_data_sent_total", labels,
              stats.data_sent);
  set_counter(registry, "mot_proto_retransmissions_total", labels,
              stats.retransmissions);
  set_counter(registry, "mot_proto_acks_sent_total", labels,
              stats.acks_sent);
  set_counter(registry, "mot_proto_duplicates_suppressed_total", labels,
              stats.duplicates_suppressed);
  registry.gauge("mot_proto_mean_ack_rtt", labels)
      .set(stats.mean_ack_rtt());
  registry.gauge("mot_proto_transport_distance", labels)
      .set(stats.transport_distance);
  set_counter(registry, "mot_proto_crash_recoveries_total", labels,
              stats.crash_recoveries);
  set_counter(registry, "mot_proto_chain_splices_total", labels,
              stats.chain_splices);
  set_counter(registry, "mot_proto_objects_rebuilt_total", labels,
              stats.objects_rebuilt);
  set_counter(registry, "mot_proto_queries_rescued_total", labels,
              stats.queries_rescued);
  set_counter(registry, "mot_proto_queries_aborted_total", labels,
              stats.queries_aborted);
  registry.gauge("mot_proto_recovery_distance", labels)
      .set(stats.recovery_distance);
  set_counter(registry, "mot_proto_queries_retried_total", labels,
              stats.queries_retried);
  set_counter(registry, "mot_proto_queries_hedged_total", labels,
              stats.queries_hedged);
  set_counter(registry, "mot_proto_queries_deadline_aborted_total", labels,
              stats.queries_deadline_aborted);
  set_counter(registry, "mot_proto_query_failovers_total", labels,
              stats.query_failovers);
  set_counter(registry, "mot_proto_replica_updates_total", labels,
              stats.replica_updates);
  set_counter(registry, "mot_proto_stale_query_drops_total", labels,
              stats.stale_query_drops);
  set_counter(registry, "mot_proto_stale_maintenance_drops_total", labels,
              stats.stale_maintenance_drops);
  set_counter(registry, "mot_proto_retransmits_suppressed_total", labels,
              stats.retransmits_suppressed);
  set_counter(registry, "mot_proto_messages_shed_total", labels,
              stats.messages_shed);
  set_counter(registry, "mot_proto_queries_degraded_total", labels,
              stats.queries_degraded);
  set_counter(registry, "mot_proto_sibling_redirects_total", labels,
              stats.sibling_redirects);
  set_counter(registry, "mot_proto_credit_stalls_total", labels,
              stats.credit_stalls);
  set_counter(registry, "mot_proto_breaker_trips_total", labels,
              stats.breaker_trips);
  set_counter(registry, "mot_proto_breaker_probes_total", labels,
              stats.breaker_probes);
  set_counter(registry, "mot_proto_breaker_closes_total", labels,
              stats.breaker_closes);
  set_counter(registry, "mot_proto_breaker_suppressed_total", labels,
              stats.breaker_suppressed);
  set_counter(registry, "mot_proto_window_increases_total", labels,
              stats.window_increases);
  set_counter(registry, "mot_proto_window_decreases_total", labels,
              stats.window_decreases);
  set_counter(registry, "mot_proto_divert_attempts_total", labels,
              stats.divert_attempts);
  set_counter(registry, "mot_proto_tuner_steps_total", labels,
              stats.tuner_steps);
  set_counter(registry, "mot_proto_replicas_placed_total", labels,
              stats.replicas_placed);
  set_counter(registry, "mot_proto_replicas_retired_total", labels,
              stats.replicas_retired);
}

}  // namespace mot::proto
