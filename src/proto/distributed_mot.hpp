// The message-passing form of Algorithm 1 (footnote 2 of the paper).
//
// Unlike ChainTracker (a centralized walk over the structure) and
// ConcurrentEngine (centralized state, event-timed walkers), this runtime
// stores every detection-list entry at the sensor that owns it and makes
// ALL coordination travel in typed messages (proto::Message) over the
// discrete-event simulator. A handler may only touch the state of the
// node a message was delivered to — enforced at runtime by a locality
// guard — so the implementation is a constructive proof that the
// algorithm runs distributed.
//
// Routing knowledge: a node handling a climbing message computes the next
// stop of the walk from the PathProvider, which stands in for the local
// routing tables (parents, parent sets) every node keeps after the
// hierarchy construction phase.
//
// Execution model: maintenance operations execute one-by-one per object
// (the paper's Section 4.1.1 case; enforce_one_by_one asserts it).
// Queries may overlap maintenance: a query that lands on a stale proxy
// parks there and is redirected by the delete message that carries the
// new location (Section 3).
//
// Every logical hop — sent directly or in a batch flush — is counted,
// charged and traced by one routine (account_hop), so the delivery modes
// differ only in how the message then travels.
//
// Fault tolerance (src/faults/): attaching a Channel via use_channel()
// engages a reliable link layer — every inter-node message becomes a
// sequence-numbered DATA frame that is retransmitted on a capped
// exponential-backoff timer until an ACK returns, and the receiver
// suppresses duplicate sequence numbers, so delivery over a dropping /
// duplicating / reordering channel is at-least-once + dedup =
// effectively-once. Dedup keeps no receiver-side set: an unacked frame
// carries a delivered flag, and a sequence number that is neither
// pending nor poisoned was acked, hence delivered. A ServiceModel adds
// only admission before the ack and credit on its return. Crash-stop
// node failures (announced, Section 7)
// trigger recovery: chains through the dead sensor are spliced, objects
// with a maintenance walker lost in the crash are rebuilt from their
// physical position, and stranded queries are restarted from their
// origin. Without a channel the runtime behaves exactly as before —
// bit-identical costs and placement versus the centralized engine.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/router.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "overload/circuit_breaker.hpp"
#include "proto/messages.hpp"
#include "sim/channel.hpp"
#include "sim/cost_meter.hpp"
#include "sim/event_sim.hpp"
#include "sim/service_model.hpp"
#include "tracking/chain_tracker.hpp"
#include "tracking/path_provider.hpp"
#include "util/arena.hpp"
#include "util/flat_map.hpp"

namespace mot::adapt {
class AdaptiveController;
}

namespace mot::proto {

class ClusterLink;

struct ProtocolStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t physical_hops = 0;  // per-edge forwards when routed
  // Batched-maintenance counters (zero unless use_batching is on):
  // maintenance updates that rode an edge frame another update already
  // paid for, and the number of flush windows executed.
  std::uint64_t messages_coalesced = 0;
  std::uint64_t batch_flushes = 0;
  std::uint64_t publishes_completed = 0;
  std::uint64_t moves_completed = 0;
  std::uint64_t queries_completed = 0;
  std::uint64_t queries_parked = 0;
  std::uint64_t queries_redirected = 0;
  std::uint64_t queries_restarted = 0;

  // Reliable-transport counters: all zero unless a Channel is attached.
  std::uint64_t data_sent = 0;               // logical inter-node frames
  std::uint64_t retransmissions = 0;         // timeout-driven resends
  std::uint64_t acks_sent = 0;               // receiver acknowledgements
  std::uint64_t duplicates_suppressed = 0;   // dedup hits at the receiver
  double ack_rtt_sum = 0.0;                  // send -> first-ack times
  std::uint64_t ack_rtt_count = 0;
  Weight transport_distance = 0.0;           // retransmit + ack distance

  // Crash-recovery counters.
  std::uint64_t crash_recoveries = 0;   // dead sensors recovered from
  std::uint64_t chain_splices = 0;      // entries bypassed around the dead
  std::uint64_t objects_rebuilt = 0;    // chains re-published after a loss
  std::uint64_t queries_rescued = 0;    // restarted because of a crash
  std::uint64_t queries_aborted = 0;    // their requester died
  Weight recovery_distance = 0.0;       // repair/rebuild message distance

  // Query-resilience counters (deadline policy, hedging, DL replication,
  // partition carrier sense). All zero with the default configuration.
  std::uint64_t queries_retried = 0;           // deadline-driven re-issues
  std::uint64_t queries_hedged = 0;            // hedged duplicate walkers
  std::uint64_t queries_deadline_aborted = 0;  // retry budget exhausted
  std::uint64_t query_failovers = 0;           // replica-slot descents
  std::uint64_t replica_updates = 0;           // DL writes mirrored out
  std::uint64_t stale_query_drops = 0;         // losing-walker messages
  std::uint64_t stale_maintenance_drops = 0;   // handoffs gated by rebuild
  std::uint64_t retransmits_suppressed = 0;    // resends parked at a cut

  // Overload-resilience counters (all zero unless use_overload engages a
  // ServiceModel): receiver-side admission sheds, degraded answers,
  // sibling redirects, sender-side credit stalls, and the per-link
  // circuit-breaker lifecycle.
  std::uint64_t messages_shed = 0;       // refused by admission (no ack)
  std::uint64_t queries_degraded = 0;    // answered from a stale entry
  std::uint64_t sibling_redirects = 0;   // descents diverted to siblings
  std::uint64_t credit_stalls = 0;       // frames parked awaiting credit
  std::uint64_t breaker_trips = 0;       // breakers opened (or re-opened)
  std::uint64_t breaker_probes = 0;      // half-open probes elected
  std::uint64_t breaker_closes = 0;      // probes that closed a breaker
  std::uint64_t breaker_suppressed = 0;  // sends parked at an open breaker

  // Adaptive control-plane counters (all zero unless use_adaptive):
  // AIMD credit-window moves, query descents that found their next hop
  // overloaded (the placement demand gauge), applied tuner steps, and
  // the load-aware replica placement lifecycle.
  std::uint64_t window_increases = 0;
  std::uint64_t window_decreases = 0;
  std::uint64_t divert_attempts = 0;
  std::uint64_t tuner_steps = 0;
  std::uint64_t replicas_placed = 0;
  std::uint64_t replicas_retired = 0;

  double mean_ack_rtt() const {
    return ack_rtt_count == 0 ? 0.0 : ack_rtt_sum / ack_rtt_count;
  }

  bool operator==(const ProtocolStats&) const = default;
};

// Projects a stats snapshot into a metrics registry (see
// obs/metrics_registry.hpp). Idempotent: counters are reset before being
// set, so re-exporting does not double-count.
void export_protocol_stats(const ProtocolStats& stats,
                           obs::MetricsRegistry& registry,
                           const obs::Labels& labels = {});

// End-to-end query resilience knobs. All disabled by default, in which
// case the runtime behaves bit-identically to the legacy configuration.
struct QueryPolicy {
  // A query that has not answered within `deadline` simulator time is
  // re-issued from its origin; after `max_attempts` total attempts it is
  // aborted explicitly (done fires with found = false). 0 disables.
  double deadline = 0.0;
  int max_attempts = 3;
  // Each re-issue waits deadline * backoff^attempt (capped at 64x).
  double backoff = 2.0;
  // When > 0, a second walker with the same query id is issued from the
  // origin after this delay unless the query already answered; the first
  // reply wins and the loser is dropped as stale. 0 disables.
  double hedge_delay = 0.0;
};

class DistributedMot {
 public:
  using MoveCallback = std::function<void(const MoveResult&)>;
  using QueryCallback = std::function<void(const QueryResult&)>;

  // `provider` and `sim` must outlive the runtime.
  DistributedMot(const PathProvider& provider, Simulator& sim,
                 const ChainOptions& options);

  // Injects a publish message at the proxy. Runs asynchronously; drive
  // the simulator to completion before relying on the structure.
  void publish(ObjectId object, NodeId proxy);

  // Starts a maintenance operation. At most one in flight per object
  // (one-by-one case); violating that is a precondition failure.
  void move(ObjectId object, NodeId new_proxy, MoveCallback done = {});

  // Starts a query; may overlap an in-flight move of the same object.
  void query(NodeId from, ObjectId object, QueryCallback done = {});

  // The committed proxy (updated when the move's insert splices).
  NodeId proxy_of(ObjectId object) const;

  // Where the object physically is (moves take effect when issued;
  // queries are answered against this, chasing if necessary).
  NodeId physical_position(ObjectId object) const;

  const CostMeter& meter() const { return meter_; }
  const ProtocolStats& stats() const { return stats_; }
  std::size_t inflight_operations() const { return inflight_; }

  // Storage load per sensor: every DL/SDL entry lives at its owner node.
  std::vector<std::size_t> load_per_node() const;

  // Attach a physical routing layer: every overlay message is forwarded
  // hop by hop along router-provided paths and the per-edge forwards are
  // counted in stats().physical_hops. With a shortest-path router the
  // total distance is unchanged (the cost model's assumption, asserted by
  // tests). The router must outlive the runtime. Physical hops are
  // counted once per logical message (retransmissions reuse the route).
  void use_router(const Router* router) { router_ = router; }

  // Attach a delivery channel (typically faults::UnreliableChannel) and
  // engage the reliable link layer plus crash recovery. Attach before
  // injecting any traffic; the channel must outlive the runtime.
  void use_channel(Channel* channel);

  // Engage the end-to-end query deadline / retry / hedge policy.
  void set_query_policy(const QueryPolicy& policy) { policy_ = policy; }

  // Batched maintenance (opt-in): detection-list updates staged by
  // maintenance walkers (publish / insert / delete / SDL bookkeeping)
  // are coalesced per directed edge per batch window — one metered
  // message per edge carries every update staged toward that neighbor,
  // the co-riders travel free (stats().messages_coalesced) — and the
  // window flushes in one deterministic sweep of rounds, so climbs of
  // different objects that share tree-path prefixes merge their traffic.
  // Queries are never staged. Only meaningful in single-process,
  // non-channel mode; enable before injecting traffic. Costs still
  // reconcile: the sum of traced `charged` equals the meter total.
  void use_batching(bool on);
  bool batching() const { return batching_; }

  // Attach a finite-capacity service model (see sim/service_model.hpp):
  // delivered frames pass admission control and queue at the receiver
  // instead of executing instantly, a shed frame is simply never acked
  // (the sender's retransmission is the retry — backpressure, not loss),
  // acks carry the receiver's headroom as a credit grant that caps the
  // sender's outstanding window per destination, consecutive genuine
  // timeouts trip a per-link circuit breaker, overloaded nodes answer
  // queries degraded, and hot next hops are bypassed via their replica
  // sibling. Requires a channel; attach before injecting traffic. The
  // model must span provider.num_nodes() nodes and outlive the runtime.
  void use_overload(ServiceModel* service);
  const ServiceModel* service_model() const { return service_; }

  // --- Cluster mode (src/netio/): this runtime is one shard of a ------
  // multi-process deployment. The link decides node ownership; messages
  // to foreign nodes are forwarded with their walker context embedded
  // (op_cost / op_peak in proto::Message) instead of being scheduled
  // locally. Single-process behavior is bit-identical when no link is
  // attached. The link must outlive the runtime.
  void use_cluster(ClusterLink* link) {
    MOT_EXPECTS(!batching_);  // the shard transport owns delivery
    cluster_ = link;
  }

  // Object-position broadcast: every shard mirrors proxies_/physical_
  // bookkeeping before an operation is injected anywhere, so sentinel
  // checks and preconditions hold on whichever shard the walker visits.
  void cluster_note_position(ObjectId object, NodeId position);

  // Operation injection on the shard owning the proxy / origin. These
  // mirror publish()/move()/query() minus the position writes (already
  // broadcast) and with coordinator-assigned query ids (per-shard
  // counters would collide).
  void cluster_publish(ObjectId object, NodeId proxy);
  void cluster_move(ObjectId object, NodeId new_proxy);
  void cluster_query(NodeId origin, ObjectId object,
                     std::uint64_t query_id);

  // Delivery of a forwarded message from a peer shard: re-materializes
  // the walker context carried in the message and schedules the handler.
  void cluster_inject(const Message& message, NodeId from);

  // Mirror every detection-list write to a deterministically rehashed
  // replica slot so queries whose next chain hop is unreachable (crashed
  // or across a partition) can fail over to the replica. Enable before
  // injecting any traffic.
  void replicate_detection_lists(bool on);

  // Load-aware placed replication: the replica machinery (same slots,
  // same versioned updates, same failover/sibling-redirect paths) is
  // armed, but replicas exist only for owners the adaptive controller
  // has placed — apply_replica_placements() mirrors an owner's live
  // entries into its slot and retirement retracts them. Enable before
  // injecting any traffic; mutually exclusive with full replication.
  void replicate_placed();

  // Attach the adaptive control plane (src/adapt/). Requires an attached
  // ServiceModel; the controller must outlive the runtime. With a
  // controller attached the reliable link layer clamps credit grants to
  // the controller's per-link AIMD cap instead of the static max_window,
  // and adaptive_step() advances the tuner/placement state. Without this
  // call the runtime is byte-identical to the static configuration.
  void use_adaptive(adapt::AdaptiveController* controller);
  const adapt::AdaptiveController* adaptive() const { return adapt_; }

  // One control-plane step, legal only at a quiescence point (no
  // in-flight operations or unacked frames): feeds the epoch's per-node
  // load signals to the gradient tuner and applies the returned
  // operating points, plans replica placement/retirement from the
  // divert gauges, and resets the epoch accumulators.
  void adaptive_step();

  // Applies a placement plan directly (also the restart-restore path:
  // the chaos runner re-applies the controller's placed set after a
  // teardown). Place mirrors every live detection-list entry of the
  // owner into its replica slot; retire retracts the slot's records.
  void apply_replica_placements(const std::vector<NodeId>& place,
                                const std::vector<NodeId>& retire);
  std::size_t placed_replica_count() const { return placed_.size(); }

  // Per-node divert gauge for the current epoch: query descents whose
  // next chain hop was overloaded when they reached it.
  const std::vector<std::uint64_t>& divert_attempts_by_node() const {
    return divert_attempts_;
  }
  // Per-node degraded-answer gauge for the current epoch: the goodput
  // the tuner must not trade sheds against.
  const std::vector<std::uint64_t>& degraded_by_node() const {
    return degraded_by_node_;
  }

  // Controller operating point -> labeled gauges (credit_window{link},
  // red_threshold{node}, replica_count), plus the controller counters.
  void export_adaptive_state(obs::MetricsRegistry& registry) const;

  // Opt-in durability (src/durable/): every effective DL/SDL/proxy
  // mutation a handler performs is forwarded to `sink` as one semantic
  // journal record, in execution order. Off by default; a null sink
  // detaches. The hook is a single branch per mutation, so disabled
  // runs are bit-identical to pre-durability builds. `sink` must
  // outlive the runtime (or be detached first). Not supported in
  // cluster mode (each shard would need its own store).
  void use_durability(durable::Sink* sink) {
    MOT_EXPECTS(inflight_ == 0);
    MOT_EXPECTS(cluster_ == nullptr);
    durable_ = sink;
  }

  // Canonical image of the durable state: detection lists, SDLs, proxy
  // and physical maps. Replica stores, tombstones (empty at quiescence)
  // and parked queries are runtime state, not durable state — replicas
  // are re-derived on restore. Call at quiescence only.
  durable::StateImage export_durable_image() const;

  // Replaces all tracking state with `image` (restore path). Stats and
  // the meter are not durable state and are left untouched; replica
  // stores are rebuilt from the restored lists when replication is on.
  void restore_durable_image(const durable::StateImage& image);

  // Non-aborting quiescent invariant audit: returns one human-readable
  // line per violated invariant (empty = healthy). Checks what
  // validate_quiescent() asserts plus orphaned-entry and replica
  // consistency. The chaos explorer calls this at quiescence points.
  std::vector<std::string> invariant_violations() const;

  // Test-only fault: when enabled, crash recovery "forgets" to erase the
  // victim's sensor state, leaving orphaned detection-list entries for
  // invariant_violations() to catch. Exists so the chaos explorer's
  // bug-detection and schedule-shrinking paths can be exercised against
  // a real, deterministic recovery defect.
  void break_recovery_for_tests(bool on) { break_recovery_ = on; }

  // Quiescent check: per object, entries form one root -> proxy chain,
  // no unacknowledged transfers linger, and SDL bookkeeping is settled.
  void validate_quiescent() const;

  // Objects whose detection chain currently stores an entry at any of
  // `node`'s overlay roles (introspection for fault tests and benches).
  std::vector<ObjectId> objects_through(NodeId node) const;

  // Outstanding reliable-transport frames awaiting acknowledgement.
  std::size_t pending_transfers() const { return pending_.size(); }

 private:
  struct Entry {
    OverlayNode child;
    std::optional<OverlayNode> sp;
  };
  // One replicated DL record hosted on behalf of another role. Versioned
  // last-writer-wins: replica updates are unordered messages, so each
  // carries the owner's monotone per-(role, object) version and only a
  // newer version may overwrite (or retract) the record.
  struct ReplicaRecord {
    OverlayNode child;
    std::uint32_t version = 0;
    bool present = false;
  };
  struct RoleState {
    // Flat open-addressed storage (util/flat_map.hpp): the hot-path map
    // every climb hop probes.
    FlatMap<ObjectId, Entry> dl;
    std::unordered_map<ObjectId, std::vector<OverlayNode>> sdl;
    // Reordering guard: an SdlRemove that overtakes its SdlAdd leaves a
    // tombstone the late add annihilates against (empty at quiescence).
    std::unordered_map<ObjectId, std::vector<OverlayNode>> sdl_tombstones;
    // Replicas hosted here, per object per owner node (the owner's level
    // equals this role's level). Only populated when replication is on.
    std::unordered_map<ObjectId, std::unordered_map<NodeId, ReplicaRecord>>
        replicas;
    // Owner-side version counters for replica updates. Never erased on
    // delete so a delete-then-reinstall cannot reuse a version.
    std::unordered_map<ObjectId, std::uint32_t> replica_versions;
  };
  struct ParkedQuery {
    std::uint64_t query_id = 0;
  };
  struct SensorState {
    // One state slice per overlay level this sensor plays.
    std::unordered_map<int, RoleState> roles;
    // Queries parked at this sensor waiting for a delete, per object.
    std::unordered_map<ObjectId, std::vector<ParkedQuery>> parked;
  };

  // Causal trace state of one walk: the deterministic trace id plus the
  // span allocator and the cursor the next spine hop hangs off. Travels
  // with the walk's context across shard boundaries (span/span_seq wire
  // fields) so a distributed walk emits one connected span tree. All
  // zero — and never consulted — unless a trace sink is installed.
  struct TraceCtx {
    std::uint64_t trace_id = 0;
    std::uint64_t next_span = 1;  // next span id to hand out
    std::uint64_t last_span = 0;  // latest spine hop = parent of the next
  };
  struct MoveCtx {
    NodeId to = kInvalidNode;
    Weight cost = 0.0;
    int peak_level = 0;
    TraceCtx trace;
    MoveCallback done;
  };
  struct QueryCtx {
    NodeId origin = kInvalidNode;
    ObjectId object = 0;
    Weight cost = 0.0;
    int found_level = 0;
    int restarts = 0;
    // Deadline policy state: attempts burned, hedge issued, and the
    // generation of the live watchdog (stale watchdogs no-op on
    // mismatch, which stands in for timer cancellation).
    int attempt = 0;
    bool hedged = false;
    std::uint64_t watchdog_gen = 0;
    TraceCtx trace;
    QueryCallback done;
  };

  // One unacknowledged DATA frame of the reliable link layer.
  struct PendingTransfer {
    Message message;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    Weight dist = 0.0;
    double rto = 0.0;  // current retransmission timeout
    int attempts = 0;
    SimTime first_send = 0.0;
    // Overload bookkeeping: whether the frame occupies a slot of its
    // destination's credit window, and whether its pending wakeup belongs
    // to a frame the breaker parked (never on the wire that round, so the
    // wakeup must not be reported to the breaker as a link failure).
    bool counted_outstanding = false;
    bool breaker_parked = false;
    // Set when the receiver accepts the first copy (after admission,
    // with a service model); later copies are duplicates.
    bool delivered = false;
  };

  // Sender-side credit state toward one destination node. `window` is
  // the receiver's last advertised headroom (clamped to [1, max_window]);
  // frames beyond it park in `stalled` untransmitted, with no timer, and
  // are released as acks or poisoning free slots.
  struct LinkCredit {
    std::size_t window = 0;  // 0 = not yet initialized from the config
    std::size_t outstanding = 0;
    std::deque<std::uint64_t> stalled;
  };

  // Locality-guarded access to a sensor's state: only legal for the node
  // currently handling a message.
  SensorState& local(NodeId node);

  void send(NodeId from, Message message, Weight* op_cost);
  // Per-hop accounting shared by direct sends and batch flushes: counts
  // the message (or, for a batch rider, the coalescing), walks the
  // router path, charges the meter and `op_cost`, stamps the trace span
  // onto `message` and emits kMsgSend. A hop that does not `pay` rides
  // an edge another update paid for. Returns the distance charged.
  Weight account_hop(NodeId from, Message& message, Weight hop,
                     Weight* op_cost, bool opens_frame, bool pays);
  void handle(const Message& message);
  // Runs a queued local handoff or admitted frame unless its node died
  // or crash recovery rebuilt the object since `epoch` was read.
  void handle_if_current(const Message& message, std::uint64_t epoch);
  void forward_remote(NodeId from, Message message);

  // --- Batched maintenance (engaged when batching_ is on). -------------
  // One staged detection-list update: the message plus whether an
  // op-cost sink was attached at send time. The sink itself is NOT
  // stored (it may point at a caller's stack frame); it is re-resolved
  // against moves_ when the flush delivers the message.
  struct StagedUpdate {
    Message message;
    NodeId from = kInvalidNode;
    bool billable = false;
  };
  void flush_batches();

  // Trace context of the walk `message` belongs to (nullptr when the
  // walk is not traced or not resident on this shard), and the
  // deterministic trace-id derivations — identical on every shard, see
  // the definitions for how the per-object op counter stays in sync.
  TraceCtx* trace_ctx_for(const Message& message);
  std::uint64_t make_op_trace_id(ObjectId object,
                                 std::uint64_t seq) const;
  std::uint64_t make_query_trace_id(std::uint64_t query_id) const;

  void on_publish(const Message& message);
  void on_insert(const Message& message);
  void on_delete(const Message& message);
  void on_query_up(const Message& message);
  void on_query_down(const Message& message);
  void on_query_reply(const Message& message);
  void on_sdl_add(const Message& message);
  void on_sdl_remove(const Message& message);
  void on_replica_add(const Message& message);
  void on_replica_remove(const Message& message);
  void on_query_down_replica(const Message& message);

  Entry* find_entry(SensorState& sensor, int level, ObjectId object);
  void install_entry(const Message& message, NodeId self,
                     std::optional<OverlayNode> sp, Weight* op_cost);
  Weight* move_cost(ObjectId object);

  // Walker starts shared by the single-process and cluster entry points
  // (the op ordinal trace ids derive from is already advanced).
  void start_publish(ObjectId object, NodeId proxy);
  void start_move(ObjectId object, NodeId new_proxy, MoveCallback done);
  void start_query(std::uint64_t query_id, NodeId origin, ObjectId object,
                   QueryCallback done);

  void finish_move(ObjectId object);
  void finish_query(std::uint64_t query_id, NodeId proxy);
  void restart_query(std::uint64_t query_id, NodeId from);
  void redirect_parked(NodeId self, ObjectId object, NodeId new_proxy);

  // --- Query resilience (deadline policy + DL replication). ------------
  bool link_unreachable(NodeId from, NodeId to) const;
  void arm_query_watchdog(std::uint64_t query_id);
  void on_query_deadline(std::uint64_t query_id, std::uint64_t gen);
  void hedge_query(std::uint64_t query_id);
  // Sends a fresh kQueryUp climb of `query_id` from `from`.
  void issue_query_walker(std::uint64_t query_id, NodeId from);
  NodeId replica_of(OverlayNode role, ObjectId object) const;
  std::uint64_t rebuild_epoch(ObjectId object) const {
    const auto it = rebuild_epoch_.find(object);
    return it == rebuild_epoch_.end() ? 0 : it->second;
  }
  void send_replica_update(NodeId self, int level, ObjectId object,
                           OverlayNode child, bool present);
  void rebuild_replicas();
  // Mirrors every live detection-list entry of `owner` into its replica
  // slot under a fresh version.
  void mirror_replicas(NodeId owner);

  Weight distance(NodeId a, NodeId b) const;

  // Forwards one semantic op to the durability sink, if attached.
  void journal(const durable::JournalRecord& record) {
    if (durable_ != nullptr) durable_->record(record);
  }

  // --- Reliable link layer (engaged when channel_ != nullptr). ---------
  bool is_node_dead(NodeId node) const;
  std::size_t next_alive_index(std::span<const PathStop> sequence,
                               std::size_t index) const;
  std::size_t next_reachable_index(NodeId self,
                                   std::span<const PathStop> sequence,
                                   std::size_t index) const;
  void transmit_data(std::uint64_t seq);
  void deliver_data(std::uint64_t seq, const Message& message, NodeId from,
                    NodeId to, Weight dist, int attempt);
  // `grant` is the receiver's credit (used only with a service model).
  void on_ack(std::uint64_t seq, std::size_t grant);
  void on_transfer_timeout(std::uint64_t seq);

  // --- Overload resilience (engaged when service_ != nullptr). ---------
  static overload::Priority classify(MsgType type, int attempt);
  // The sender-side credit-window ceiling toward `to`: the static
  // max_window, or the AIMD controller's current per-link cap.
  std::size_t window_cap(NodeId to) const;
  LinkCredit& credit_for(NodeId to);
  overload::CircuitBreaker& breaker_for(NodeId from, NodeId to);
  void pump_stalled(NodeId to);
  void poison_transfer(std::uint64_t seq);
  void poison_query_transfers(std::uint64_t query_id);
  void poison_object_transfers(ObjectId object);

  // --- Crash recovery (Section 7, crash-stop). -------------------------
  void recover_from_crash(NodeId victim);
  void splice_around(NodeId victim);
  // Charges one repair message from `from` to role `to` as recovery
  // traffic and traces it as `type`.
  void charge_recovery(obs::Ev type, ObjectId object, NodeId from,
                       OverlayNode to);
  void rebuild_object(ObjectId object,
                      std::vector<std::uint64_t>* queries_to_restart);
  void erase_parked_records(std::uint64_t query_id);

  const PathProvider* provider_;
  Simulator* sim_;
  ChainOptions options_;
  CostMeter meter_;
  ProtocolStats stats_;

  std::vector<SensorState> sensors_;
  NodeId active_node_ = kInvalidNode;  // locality guard

  std::unordered_map<ObjectId, NodeId> proxies_;   // committed (at splice)
  std::unordered_map<ObjectId, NodeId> physical_;  // actual (at issue)
  std::unordered_map<ObjectId, MoveCtx> moves_;  // at most one per object
  std::unordered_set<ObjectId> publishing_;      // publishes in flight
  std::unordered_map<std::uint64_t, QueryCtx> queries_;
  // Trace state of in-flight publishes (publishes have no MoveCtx to
  // embed it in) and the per-object operation counter trace ids derive
  // from. The counter is bumped on every publish/move issue — in
  // cluster mode via cluster_note_position, which reaches every shard
  // before the walker starts, so all shards agree on it. Only
  // maintained while a trace sink is installed.
  std::unordered_map<ObjectId, TraceCtx> publish_trace_;
  std::unordered_map<ObjectId, std::uint64_t> op_trace_seq_;
  // Bumped when crash recovery rebuilds an object, so queued local
  // handoffs of the torn operation drop themselves (see send()).
  std::unordered_map<ObjectId, std::uint64_t> rebuild_epoch_;
  std::uint64_t next_query_id_ = 1;
  std::size_t inflight_ = 0;

  const Router* router_ = nullptr;
  Channel* channel_ = nullptr;
  ClusterLink* cluster_ = nullptr;
  ServiceModel* service_ = nullptr;
  std::unordered_map<NodeId, LinkCredit> credit_;
  std::unordered_map<std::uint64_t, overload::CircuitBreaker> breakers_;
  QueryPolicy policy_;
  durable::Sink* durable_ = nullptr;
  // Replication can mirror every owner (kAll, the PR 5 behavior) or only
  // the owners the adaptive controller placed (kPlaced).
  enum class ReplicaMode { kOff, kAll, kPlaced };
  bool replicating() const { return replica_mode_ != ReplicaMode::kOff; }
  // Whether `owner`'s detection-list writes are mirrored to its slot.
  bool replica_owner_active(NodeId owner) const {
    return replica_mode_ == ReplicaMode::kAll ||
           (replica_mode_ == ReplicaMode::kPlaced &&
            placed_.find(owner) != placed_.end());
  }
  ReplicaMode replica_mode_ = ReplicaMode::kOff;
  std::unordered_set<NodeId> placed_;
  adapt::AdaptiveController* adapt_ = nullptr;
  std::vector<std::uint64_t> divert_attempts_;
  std::vector<std::uint64_t> degraded_by_node_;
  bool break_recovery_ = false;
  // Batching state: staged maintenance updates of the open window, the
  // pending-flush latch, and the arena the flush's round copies and
  // group tables live in (reset when the window drains — quiescence).
  bool batching_ = false;
  bool flush_scheduled_ = false;
  std::vector<StagedUpdate> staged_;
  Arena batch_arena_;
  std::uint64_t next_seq_ = 1;
  std::unordered_map<std::uint64_t, PendingTransfer> pending_;
  std::unordered_set<std::uint64_t> poisoned_;  // cancelled by recovery
};

}  // namespace mot::proto
