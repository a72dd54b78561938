// Single-source shortest paths (Dijkstra, with a BFS fast path for
// unit-weight graphs) and path extraction. All tracking-cost accounting
// reduces to distances computed here.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace mot {

struct ShortestPathTree {
  NodeId source = kInvalidNode;
  std::vector<Weight> distance;   // kInfiniteDistance if unreachable
  std::vector<NodeId> parent;     // kInvalidNode for source/unreachable

  // Nodes on the shortest path source -> target, inclusive of both ends.
  // Empty if target is unreachable.
  std::vector<NodeId> path_to(NodeId target) const;
};

// Full Dijkstra from `source`.
ShortestPathTree dijkstra(const Graph& graph, NodeId source);

// Reusable bounded ball search, for the builders that run one search
// per member (hierarchy levels, clusters, covers). The n-sized distance
// array persists across runs and a run resets only the nodes the last
// ball touched, so a run costs its ball and the ball's edges; only the
// constructor pays O(n + m). Unit-weight graphs search with a FIFO
// queue, others with a binary heap (chosen once, by has_unit_weights());
// in the ball, distances equal dijkstra()'s either way. One search
// object per thread.
class BallSearch {
 public:
  explicit BallSearch(const Graph& graph);

  // Settles B(sources, radius) = {v : min_s dist(s, v) <= radius} and
  // returns its nodes in settle order (unsorted). The span and the
  // distances stay valid until the next run.
  std::span<const NodeId> run(std::span<const NodeId> sources,
                              Weight radius);
  std::span<const NodeId> run(NodeId source, Weight radius) {
    return run(std::span<const NodeId>(&source, 1), radius);
  }

  // Distance from the nearest source in the last run; kInfiniteDistance
  // for nodes outside the ball.
  Weight distance(NodeId v) const { return distance_[v]; }

 private:
  const Graph* graph_;
  bool unit_weights_;
  std::vector<Weight> distance_;  // +inf outside the last ball
  std::vector<NodeId> ball_;      // settled (= touched) nodes; BFS queue
  std::vector<std::pair<Weight, NodeId>> heap_;
};

// BFS distances for graphs whose edges all weigh exactly 1 (grids, rings).
// Falls back on a contract failure if the graph is weighted.
ShortestPathTree bfs_unit(const Graph& graph, NodeId source);

// True when every edge weight equals 1 (enables the BFS fast path).
bool has_unit_weights(const Graph& graph);

// Exact eccentricity of `source` (max distance to any node).
Weight eccentricity(const Graph& graph, NodeId source);

// Exact diameter by running SSSP from every node. O(n * SSSP); fine for
// the experiment sizes (<= a few thousand nodes).
Weight exact_diameter(const Graph& graph);

// Two-sweep lower bound on the diameter (exact on trees, excellent on
// grids): eccentricity of the farthest node from an arbitrary start.
Weight approx_diameter(const Graph& graph);

}  // namespace mot
