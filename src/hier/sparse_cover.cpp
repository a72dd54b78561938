#include "hier/sparse_cover.hpp"

#include <algorithm>
#include <cmath>

#include "graph/shortest_path.hpp"
#include "util/check.hpp"

namespace mot {

double SparseCover::average_overlap() const {
  if (clusters_of.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& list : clusters_of) total += list.size();
  return static_cast<double>(total) /
         static_cast<double>(clusters_of.size());
}

std::size_t SparseCover::max_overlap() const {
  std::size_t worst = 0;
  for (const auto& list : clusters_of) worst = std::max(worst, list.size());
  return worst;
}

SparseCover build_sparse_cover(const Graph& graph, Weight radius,
                               double growth_threshold) {
  MOT_EXPECTS(graph.num_nodes() >= 1);
  MOT_EXPECTS(radius >= 0.0);
  MOT_EXPECTS(growth_threshold > 1.0);

  const std::size_t n = graph.num_nodes();
  SparseCover cover;
  cover.cover_radius = radius;
  cover.clusters_of.resize(n);

  // Nodes whose r-ball still needs a covering cluster, processed in ID
  // order for determinism.
  std::vector<bool> uncovered(n, true);
  std::size_t remaining = n;
  BallSearch search(graph);

  for (NodeId seed = 0; remaining > 0; ++seed) {
    MOT_CHECK(seed < n);
    if (!uncovered[seed]) continue;

    // Grow: core starts as {seed}; expand to the r-ball of the core while
    // the ball is more than growth_threshold times the core.
    std::vector<NodeId> core{seed};
    std::vector<NodeId> ball_members;
    int expansions = 0;
    while (true) {
      const auto ball = search.run(core, radius);
      ball_members.assign(ball.begin(), ball.end());
      std::sort(ball_members.begin(), ball_members.end());
      if (static_cast<double>(ball_members.size()) >
          growth_threshold * static_cast<double>(core.size())) {
        core = ball_members;
        ++expansions;
      } else {
        break;
      }
    }

    Cluster cluster;
    cluster.leader = seed;
    cluster.members = ball_members;  // sorted (built in ID order)
    // Each expansion reaches at most r further from the seed, so every
    // member lies within (expansions + 1)·r of it; one bounded search
    // reads their distances. The relative slack absorbs rounding in
    // sums of non-integer edge weights.
    const Weight reach =
        radius * static_cast<double>(expansions + 1) * (1.0 + 1e-9);
    search.run(seed, reach);
    for (const NodeId v : cluster.members) {
      const Weight d = search.distance(v);
      MOT_CHECK(d <= reach);  // settled by the leader's search
      cluster.radius = std::max(cluster.radius, d);
    }

    const auto label = static_cast<std::uint32_t>(cover.clusters.size());
    for (const NodeId v : cluster.members) {
      cover.clusters_of[v].push_back(label);
    }
    // Every core node's r-ball lies inside the cluster (the cluster is
    // exactly the r-ball of the final core), so the cores are now covered.
    for (const NodeId v : core) {
      if (uncovered[v]) {
        uncovered[v] = false;
        --remaining;
      }
    }
    cover.clusters.push_back(std::move(cluster));
  }

  return cover;
}

bool covers_all_balls(const Graph& graph, const SparseCover& cover) {
  BallSearch search(graph);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto ball = search.run(v, cover.cover_radius);
    const auto contains_ball = [&](std::uint32_t label) {
      const auto& members = cover.clusters[label].members;
      return std::all_of(ball.begin(), ball.end(), [&](NodeId w) {
        return std::binary_search(members.begin(), members.end(), w);
      });
    };
    if (std::none_of(cover.clusters_of[v].begin(), cover.clusters_of[v].end(),
                     contains_ball)) {
      return false;
    }
  }
  return true;
}

}  // namespace mot
