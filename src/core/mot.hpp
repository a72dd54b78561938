// MOT — Mobile Object Tracking using Sensors (Algorithm 1 of the paper).
//
// MotPathProvider turns an overlay hierarchy into the visit structure the
// chain engine climbs:
//   * with parent sets on (default), the level-l visit group of node u is
//     the whole parentset^l(u) in ascending ID order — the global order
//     that prevents the Section 3.1 race in concurrent executions;
//   * special parents: the stop at (level i, rank j) registers its DL
//     entries with group(u, i + offset)[j mod |group|] (Definition 3; the
//     theory constant 3*rho + 6 is configurable because real hierarchies
//     clamp it to the root);
//   * load balancing (Section 5): an internal node's entries physically
//     live on a hashed member of its cluster, reached by routing over the
//     cluster's embedded de Bruijn graph.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "debruijn/debruijn.hpp"
#include "hier/hierarchy.hpp"
#include "tracking/chain_tracker.hpp"
#include "tracking/path_provider.hpp"

namespace mot {

struct MotOptions {
  // Probe whole parent sets (Section 3.1). Off = default parents only.
  bool use_parent_sets = true;
  // Maintain special detection lists (Definition 3 / Fig. 2).
  bool use_special_parents = true;
  // Levels between a stop and its special parent. The paper's theory
  // value is 3*rho + 6; practical hierarchies clamp to the root, and 2
  // already bounds fragmentation tightly on grids.
  int special_parent_offset = 2;
  // Distribute internal nodes' lists across their clusters (Section 5).
  bool load_balance = false;
  // Charge de Bruijn multi-hop routing for delegate access (Cor. 5.2's
  // O(log n) factor). Off charges the direct center->delegate distance.
  bool charge_debruijn_routing = true;
  // Charge special-parent bookkeeping messages. Off by default: the
  // paper's cost-ratio accounting explicitly excludes SP probing ("we do
  // not take into account the cost for probing special-parents ... the
  // cost ratios increase by a constant factor" — Section 4). The
  // abl_special_parents bench measures the honest all-in cost.
  bool charge_special_updates = false;
  // Salt for the cluster hash functions.
  std::uint64_t seed = 1;
};

// Chain-engine configuration implied by a MOT configuration.
ChainOptions make_mot_chain_options(const MotOptions& options);

// Display name encoding the configuration ("MOT", "MOT-LB", ...).
std::string make_mot_name(const MotOptions& options);

// Not thread-safe, although every query method is const: upward
// sequences, cluster embeddings and de Bruijn routes are memoized
// lazily into unsynchronized caches on first use. Give each thread its
// own provider (the hierarchy and oracle under it may be shared), or
// warm every cache a thread will touch before sharing one.
class MotPathProvider final : public PathProvider {
 public:
  // `hierarchy` must outlive the provider.
  MotPathProvider(const Hierarchy& hierarchy, const MotOptions& options);

  std::span<const PathStop> upward_sequence(NodeId u) const override;
  std::optional<OverlayNode> special_parent(NodeId u,
                                            std::size_t index) const override;
  DelegateAccess delegate(OverlayNode owner, ObjectId object) const override;
  OverlayNode root_stop() const override;
  const DistanceOracle& oracle() const override {
    return hierarchy_->oracle();
  }
  std::size_t num_nodes() const override {
    return hierarchy_->graph().num_nodes();
  }

  const Hierarchy& hierarchy() const { return *hierarchy_; }
  const MotOptions& options() const { return options_; }

  // The cluster embedding serving internal node (level, node); builds it
  // on first use. Exposed for the dynamism extension and tests.
  const ClusterEmbedding& embedding(OverlayNode owner) const;

 private:
  // Memoized de Bruijn route from a cluster's center to one target label:
  // the physical hop sequence (kept so cached lookups replay the same
  // kRouteHop trace events as a fresh computation) plus the summed oracle
  // cost. Routes depend only on (owner, target label), both fixed for the
  // lifetime of the embedding, so entries never invalidate.
  struct CachedRoute {
    bool filled = false;
    NodeId storage = kInvalidNode;
    Weight cost = 0.0;
    std::vector<NodeId> hops;
  };

  const Hierarchy* hierarchy_;
  MotOptions options_;

  mutable std::unordered_map<NodeId, std::vector<PathStop>> sequence_cache_;
  mutable std::unordered_map<OverlayNode, ClusterEmbedding, OverlayNodeHash>
      embedding_cache_;
  // owner -> per-target-label route cache, sized on first delegate access.
  mutable std::unordered_map<OverlayNode, std::vector<CachedRoute>,
                             OverlayNodeHash>
      route_cache_;
};

// MOT as a Tracker: owns the provider and the chain engine.
class MotTracker final : public Tracker {
 public:
  MotTracker(const Hierarchy& hierarchy, const MotOptions& options);

  std::string name() const override { return chain_.name(); }
  void publish(ObjectId object, NodeId proxy) override {
    chain_.publish(object, proxy);
  }
  MoveResult move(ObjectId object, NodeId new_proxy) override {
    return chain_.move(object, new_proxy);
  }
  QueryResult query(NodeId from, ObjectId object) override {
    return chain_.query(from, object);
  }
  NodeId proxy_of(ObjectId object) const override {
    return chain_.proxy_of(object);
  }
  std::vector<std::size_t> load_per_node() const override {
    return chain_.load_per_node();
  }
  const CostMeter& meter() const override { return chain_.meter(); }

  const MotPathProvider& provider() const { return provider_; }
  ChainTracker& chain() { return chain_; }
  const ChainTracker& chain() const { return chain_; }

 private:
  MotPathProvider provider_;
  ChainTracker chain_;
};

}  // namespace mot
