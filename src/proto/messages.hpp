// Wire-level message vocabulary of the distributed MOT protocol
// (footnote 2 of the paper: Algorithm 1 "can be immediately converted to
// a message-passing based distributed algorithm by modifying the
// procedures from the perspective of what a node does when it receives a
// publish, maintenance, or query message").
//
// Every message is addressed to a specific *role* of a sensor (its
// level-l overlay identity); walker state that the centralized engines
// keep in C++ objects travels inside the messages instead.
//
// Handlers may assume effectively-once delivery: when the runtime rides
// an unreliable channel (src/faults/), its link layer wraps each message
// in a sequence-numbered DATA frame, retransmits until acked, and
// suppresses duplicates at the receiver, so the vocabulary here needs no
// idempotence of its own. Ordering between independent messages is NOT
// guaranteed under reordering faults — only SdlAdd/SdlRemove pairs need
// (and get) special handling via tombstones.
#pragma once

#include <cstdint>

#include "hier/hierarchy.hpp"
#include "tracking/tracker.hpp"

namespace mot::proto {

enum class MsgType : std::uint8_t {
  kPublish,     // climb and install entries up to the root
  kInsert,      // climb, install, splice at the meet (maintenance, up)
  kDelete,      // tear the detached fragment (maintenance, down)
  kQueryUp,     // climb looking for DL/SDL
  kQueryDown,   // descend chain pointers toward the proxy
  kQueryReply,  // result traveling back to the requester
  kSdlAdd,      // register a special child with its special parent
  kSdlRemove,   // deregister on delete
  // Detection-list replication (opt-in, see replicate_detection_lists):
  // each DL write is mirrored to a deterministically rehashed replica
  // slot so queries can fail over when the primary is unreachable.
  kReplicaAdd,         // upsert a replica record (walk_index = version)
  kReplicaRemove,      // retract a replica record (walk_index = version)
  kQueryDownReplica,   // descend via the replica of an unreachable stop
};

const char* msg_type_name(MsgType type);

struct Message {
  MsgType type = MsgType::kPublish;
  ObjectId object = 0;

  // Role the message is addressed to. The physical destination is
  // role.node; the handler must touch only that node's state.
  OverlayNode role;

  // Climbing state (kPublish / kInsert / kQueryUp): the bottom node whose
  // upward sequence is being walked and the index of `role` within it.
  NodeId walk_source = kInvalidNode;
  std::uint32_t walk_index = 0;

  // Chain state: the previous overlay stop (the child to record), or the
  // next victim for kDelete / next hop for kQueryDown.
  OverlayNode link;

  // kDelete carries the object's new proxy so queries parked at the old
  // proxy can be redirected (Section 3). kQueryReply carries the located
  // proxy as well.
  NodeId new_proxy = kInvalidNode;

  // Querying: who asked, so the reply can travel home.
  NodeId requester = kInvalidNode;
  std::uint64_t query_id = 0;

  // Graceful degradation (kQueryReply only): the answer came from an
  // overloaded node's last-known detection entry instead of the proxy
  // sentinel, and is stale by at most `staleness` distance.
  bool degraded = false;
  Weight staleness = 0.0;

  // Cluster mode (src/netio/): when a walker crosses a shard boundary its
  // per-operation context travels with it — accumulated communication
  // cost and the peak/found level — because no single process holds the
  // MoveCtx/QueryCtx for a walk that spans OS processes. Always zero in
  // single-process runs (the context lives in the runtime's maps).
  Weight op_cost = 0.0;
  std::int32_t op_peak = 0;

  // Causal trace context (src/obs/): the walk's deterministic trace id,
  // this hop's span id, and the walk's span-allocator cursor, so the
  // owning shard resumes the same span tree after a cross-process hop.
  // Always zero when no trace sink is installed, keeping untraced wire
  // bytes bit-identical (the fields are omitted-by-default on the wire).
  std::uint64_t trace_id = 0;
  std::uint64_t span = 0;
  std::uint64_t span_seq = 0;

  bool operator==(const Message&) const = default;
};

// Number of MsgType values (dense from kPublish), for wire fuzzing and
// tag validation.
inline constexpr std::uint8_t kNumMsgTypes =
    static_cast<std::uint8_t>(MsgType::kQueryDownReplica) + 1;

}  // namespace mot::proto
