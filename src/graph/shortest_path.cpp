#include "graph/shortest_path.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <queue>

#include "par/thread_pool.hpp"
#include "util/check.hpp"

namespace mot {

std::vector<NodeId> ShortestPathTree::path_to(NodeId target) const {
  MOT_EXPECTS(target < distance.size());
  if (distance[target] == kInfiniteDistance) return {};
  std::vector<NodeId> path;
  for (NodeId at = target; at != kInvalidNode; at = parent[at]) {
    path.push_back(at);
    if (at == source) break;
  }
  std::reverse(path.begin(), path.end());
  MOT_ENSURES(!path.empty() && path.front() == source);
  return path;
}

namespace {

struct QueueEntry {
  Weight distance;
  NodeId node;
  bool operator>(const QueueEntry& other) const {
    return distance > other.distance;
  }
};

}  // namespace

ShortestPathTree dijkstra(const Graph& graph, NodeId source) {
  MOT_EXPECTS(source < graph.num_nodes());
  ShortestPathTree tree;
  tree.source = source;
  tree.distance.assign(graph.num_nodes(), kInfiniteDistance);
  tree.parent.assign(graph.num_nodes(), kInvalidNode);
  tree.distance[source] = 0.0;

  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  queue.push({0.0, source});
  while (!queue.empty()) {
    const auto [dist, node] = queue.top();
    queue.pop();
    if (dist > tree.distance[node]) continue;  // stale entry
    for (const Edge& e : graph.neighbors(node)) {
      const Weight candidate = dist + e.weight;
      if (candidate < tree.distance[e.to]) {
        tree.distance[e.to] = candidate;
        tree.parent[e.to] = node;
        queue.push({candidate, e.to});
      }
    }
  }
  return tree;
}

BallSearch::BallSearch(const Graph& graph)
    : graph_(&graph),
      unit_weights_(has_unit_weights(graph)),
      distance_(graph.num_nodes(), kInfiniteDistance) {}

std::span<const NodeId> BallSearch::run(std::span<const NodeId> sources,
                                        Weight radius) {
  MOT_EXPECTS(radius >= 0.0);
  for (const NodeId v : ball_) distance_[v] = kInfiniteDistance;
  ball_.clear();
  for (const NodeId s : sources) {
    MOT_EXPECTS(s < graph_->num_nodes());
    if (distance_[s] == 0.0) continue;  // repeated source
    distance_[s] = 0.0;
    ball_.push_back(s);
  }

  if (unit_weights_) {
    // FIFO: the ball list doubles as the queue, in settle order.
    for (std::size_t head = 0; head < ball_.size(); ++head) {
      const NodeId node = ball_[head];
      const Weight candidate = distance_[node] + 1.0;
      if (candidate > radius) break;  // the queue is distance-ordered
      for (const Edge& e : graph_->neighbors(node)) {
        if (distance_[e.to] == kInfiniteDistance) {
          distance_[e.to] = candidate;
          ball_.push_back(e.to);
        }
      }
    }
    return ball_;
  }

  // Binary heap, seeded with the sources; the ball list is refilled in
  // settle order. Every touched node lies within radius and is popped
  // once at its final distance, so the settled list is also the touched
  // list the next run resets.
  const auto later = std::greater<std::pair<Weight, NodeId>>();
  heap_.clear();
  for (const NodeId s : ball_) heap_.emplace_back(0.0, s);
  ball_.clear();
  std::make_heap(heap_.begin(), heap_.end(), later);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [dist, node] = heap_.back();
    heap_.pop_back();
    if (dist > distance_[node]) continue;  // stale entry
    ball_.push_back(node);
    for (const Edge& e : graph_->neighbors(node)) {
      const Weight candidate = dist + e.weight;
      if (candidate > radius) continue;
      if (candidate < distance_[e.to]) {
        distance_[e.to] = candidate;
        heap_.emplace_back(candidate, e.to);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  return ball_;
}

ShortestPathTree bfs_unit(const Graph& graph, NodeId source) {
  MOT_EXPECTS(source < graph.num_nodes());
  ShortestPathTree tree;
  tree.source = source;
  tree.distance.assign(graph.num_nodes(), kInfiniteDistance);
  tree.parent.assign(graph.num_nodes(), kInvalidNode);
  tree.distance[source] = 0.0;
  std::deque<NodeId> queue{source};
  while (!queue.empty()) {
    const NodeId node = queue.front();
    queue.pop_front();
    for (const Edge& e : graph.neighbors(node)) {
      MOT_EXPECTS(e.weight == 1.0);
      if (tree.distance[e.to] == kInfiniteDistance) {
        tree.distance[e.to] = tree.distance[node] + 1.0;
        tree.parent[e.to] = node;
        queue.push_back(e.to);
      }
    }
  }
  return tree;
}

bool has_unit_weights(const Graph& graph) {
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (const Edge& e : graph.neighbors(u)) {
      if (e.weight != 1.0) return false;
    }
  }
  return true;
}

namespace {

Weight eccentricity_of_tree(const ShortestPathTree& tree) {
  Weight ecc = 0.0;
  for (const Weight d : tree.distance) {
    MOT_CHECK(d != kInfiniteDistance);  // callers require connectivity
    ecc = std::max(ecc, d);
  }
  return ecc;
}

}  // namespace

Weight eccentricity(const Graph& graph, NodeId source) {
  return eccentricity_of_tree(dijkstra(graph, source));
}

Weight exact_diameter(const Graph& graph) {
  const std::size_t n = graph.num_nodes();
  if (n == 0) return 0.0;
  // One SSSP per node: independent, so fan the sources across the pool.
  // Unit-weight graphs (grids, rings — the common experiment topologies)
  // take the BFS fast path instead of paying Dijkstra's heap.
  const bool unit = has_unit_weights(graph);
  std::vector<Weight> ecc(n, 0.0);
  par::parallel_for_each(n, [&](std::size_t u) {
    const auto source = static_cast<NodeId>(u);
    ecc[u] = eccentricity_of_tree(unit ? bfs_unit(graph, source)
                                       : dijkstra(graph, source));
  });
  return *std::max_element(ecc.begin(), ecc.end());
}

Weight approx_diameter(const Graph& graph) {
  if (graph.num_nodes() <= 1) return 0.0;
  const ShortestPathTree first = dijkstra(graph, 0);
  NodeId farthest = 0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    MOT_CHECK(first.distance[u] != kInfiniteDistance);
    if (first.distance[u] > first.distance[farthest]) farthest = u;
  }
  return eccentricity(graph, farthest);
}

}  // namespace mot
