#include "hier/doubling_hierarchy.hpp"

#include <algorithm>
#include <cmath>

#include "graph/shortest_path.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace mot {

namespace {

// Safety bound on hierarchy height: 2^64 exceeds any representable
// diameter, so the level loop must terminate long before this.
constexpr int kMaxLevels = 60;

}  // namespace

std::unique_ptr<DoublingHierarchy> DoublingHierarchy::build(
    const Graph& graph, const DistanceOracle& oracle, const Params& params) {
  MOT_EXPECTS(graph.num_nodes() >= 1);
  MOT_EXPECTS(params.parent_radius_factor >= 1.0);

  auto hierarchy = std::unique_ptr<DoublingHierarchy>(new DoublingHierarchy());
  hierarchy->graph_ = &graph;
  hierarchy->oracle_ = &oracle;

  Rng rng(params.seed);
  const std::size_t n = graph.num_nodes();

  auto index_members = [n](Level& level) {
    level.membership.assign(n, false);
    level.slot.assign(n, kNoSlot);
    for (std::uint32_t i = 0; i < level.member_list.size(); ++i) {
      const NodeId v = level.member_list[i];
      level.membership[v] = true;
      level.slot[v] = i;
    }
  };

  // Level 0: every sensor.
  Level bottom;
  bottom.member_list.resize(n);
  for (NodeId v = 0; v < n; ++v) bottom.member_list[v] = v;
  index_members(bottom);
  hierarchy->levels_.push_back(std::move(bottom));

  // Every pass below walks only bounded balls, mapping ball nodes to
  // level members through the dense slot index, so a level costs
  // sum(|ball|) rather than |level| * n.
  BallSearch search(graph);

  // Refine: V_{l+1} = MIS of (V_l, {(u,v) : dist_G(u,v) < 2^{l+1}}).
  for (int level = 0; hierarchy->levels_[level].member_list.size() > 1;
       ++level) {
    MOT_CHECK(level < kMaxLevels);
    const Level& current = hierarchy->levels_[level];
    const Weight radius = std::ldexp(1.0, level + 1);  // 2^{l+1}

    MisInstance instance;
    instance.vertices = current.member_list;
    instance.neighbors.resize(current.member_list.size());
    // Neighbour lists come out in ball order; luby_mis treats each as a
    // set, so the MIS does not depend on it.
    for (std::uint32_t i = 0; i < current.member_list.size(); ++i) {
      for (const NodeId v : search.run(current.member_list[i], radius)) {
        const std::uint32_t j = current.slot[v];
        if (j != kNoSlot && j != i && search.distance(v) < radius) {
          instance.neighbors[i].push_back(j);
        }
      }
    }

    MisResult mis = luby_mis(instance, rng);
    hierarchy->total_mis_rounds_ += mis.rounds;

    Level next;
    next.member_list = std::move(mis.members);
    index_members(next);
    hierarchy->levels_.push_back(std::move(next));
  }

  // Parent structure: for target level t, scan a bounded ball around each
  // V_t member and register it in the parent set of every V_{t-1} member
  // found (radius factor * 2^t, the paper's 4 * 2^{l+1}). Accumulated
  // per-child, then flattened into the CSR arrays the climb loop reads.
  for (int target = 1; target <= hierarchy->height(); ++target) {
    Level& upper = hierarchy->levels_[target];
    const Level& lower = hierarchy->levels_[target - 1];
    const std::size_t lower_count = lower.member_list.size();
    const Weight radius =
        params.parent_radius_factor * std::ldexp(1.0, target);

    // Parent lists and best (distance, parent), per lower member slot.
    std::vector<std::vector<NodeId>> sets(lower_count);
    std::vector<std::pair<Weight, NodeId>> best(
        lower_count, {kInfiniteDistance, kInvalidNode});
    for (const NodeId parent : upper.member_list) {
      for (const NodeId v : search.run(parent, radius)) {
        const std::uint32_t s = lower.slot[v];
        if (s == kNoSlot) continue;
        const Weight d = search.distance(v);
        if (d > radius) continue;
        sets[s].push_back(parent);
        if (d < best[s].first ||
            (d == best[s].first && parent < best[s].second)) {
          best[s] = {d, parent};
        }
      }
    }

    upper.parent_offsets.assign(lower_count + 1, 0);
    std::size_t total = 0;
    for (std::uint32_t s = 0; s < lower_count; ++s) {
      upper.parent_offsets[s] = total;
      total += sets[s].size();
    }
    upper.parent_offsets[lower_count] = total;
    upper.parent_data.reserve(total);
    upper.default_parents.resize(lower_count);
    for (std::uint32_t s = 0; s < lower_count; ++s) {
      std::sort(sets[s].begin(), sets[s].end());
      upper.parent_data.insert(upper.parent_data.end(), sets[s].begin(),
                               sets[s].end());
      // Maximality of the MIS guarantees a parent within 2^t < radius.
      MOT_CHECK(best[s].second != kInvalidNode);
      upper.default_parents[s] = best[s].second;
    }
  }

  hierarchy->cluster_slots_ = std::vector<
      std::atomic<const std::vector<NodeId>*>>(
      static_cast<std::size_t>(hierarchy->height() + 1) * n);
  for (auto& slot : hierarchy->cluster_slots_) {
    slot.store(nullptr, std::memory_order_relaxed);
  }

  MOT_ENSURES(hierarchy->levels_.back().member_list.size() == 1);
  MOT_LOG_DEBUG("DoublingHierarchy: n=%zu height=%d root=%u mis_rounds=%zu",
                n, hierarchy->height(),
                hierarchy->levels_.back().member_list[0],
                hierarchy->total_mis_rounds_);
  return hierarchy;
}

DoublingHierarchy::State DoublingHierarchy::export_state() const {
  State state;
  state.num_nodes = graph_->num_nodes();
  state.total_mis_rounds = total_mis_rounds_;
  state.levels.reserve(levels_.size());
  for (const Level& level : levels_) {
    LevelState out;
    out.member_list = level.member_list;
    out.parent_offsets = level.parent_offsets;
    out.parent_data = level.parent_data;
    out.default_parents = level.default_parents;
    state.levels.push_back(std::move(out));
  }
  return state;
}

NodeId DoublingHierarchy::root() const {
  MOT_CHECK(levels_.back().member_list.size() == 1);
  return levels_.back().member_list[0];
}

bool DoublingHierarchy::is_member(int level, NodeId node) const {
  MOT_EXPECTS(level >= 0 && level <= height());
  MOT_EXPECTS(node < graph_->num_nodes());
  return levels_[level].membership[node];
}

NodeId DoublingHierarchy::default_parent(int level, NodeId member) const {
  MOT_EXPECTS(level >= 0 && level < height());
  const std::uint32_t slot = levels_[level].slot[member];
  MOT_EXPECTS(slot != kNoSlot);
  return levels_[level + 1].default_parents[slot];
}

NodeId DoublingHierarchy::home(NodeId u, int level) const {
  MOT_EXPECTS(level >= 0 && level <= height());
  NodeId at = u;
  for (int l = 1; l <= level; ++l) {
    at = default_parent(l - 1, at);
  }
  return at;
}

std::span<const NodeId> DoublingHierarchy::group(NodeId u, int level) const {
  MOT_EXPECTS(level >= 0 && level <= height());
  MOT_EXPECTS(u < graph_->num_nodes());
  if (level == 0) {
    // The level-0 group is the node itself; alias into the bottom member
    // list, where member_list[u] == u.
    return {levels_[0].member_list.data() + u, 1};
  }
  const NodeId anchor = home(u, level - 1);
  const Level& lower = levels_[level - 1];
  const Level& upper = levels_[level];
  const std::uint32_t slot = lower.slot[anchor];
  MOT_CHECK(slot != kNoSlot);
  const std::size_t begin = upper.parent_offsets[slot];
  const std::size_t end = upper.parent_offsets[slot + 1];
  return {upper.parent_data.data() + begin, end - begin};
}

std::span<const NodeId> DoublingHierarchy::members(int level) const {
  MOT_EXPECTS(level >= 0 && level <= height());
  return levels_[level].member_list;
}

std::span<const NodeId> DoublingHierarchy::cluster(int level,
                                                   NodeId center) const {
  MOT_EXPECTS(level >= 0 && level <= height());
  MOT_EXPECTS(center < graph_->num_nodes());
  auto& slot =
      cluster_slots_[static_cast<std::size_t>(level) * graph_->num_nodes() +
                     center];
  const std::vector<NodeId>* cached = slot.load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;

  std::lock_guard<std::mutex> lock(cluster_mutex_);
  cached = slot.load(std::memory_order_relaxed);  // lost the race?
  if (cached == nullptr) {
    const Weight radius = std::ldexp(1.0, level);  // 2^level
    if (cluster_search_ == nullptr) {
      cluster_search_ = std::make_unique<BallSearch>(*graph_);
    }
    const auto ball = cluster_search_->run(center, radius);
    std::vector<NodeId> members(ball.begin(), ball.end());
    std::sort(members.begin(), members.end());
    cluster_owned_.push_back(
        std::make_unique<const std::vector<NodeId>>(std::move(members)));
    cached = cluster_owned_.back().get();
    slot.store(cached, std::memory_order_release);
  }
  return *cached;
}

}  // namespace mot
