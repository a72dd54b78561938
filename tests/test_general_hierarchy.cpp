#include "hier/general_hierarchy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "graph/generators.hpp"

namespace mot {
namespace {

struct Built {
  Graph graph;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<GeneralHierarchy> hierarchy;
};

Built build(Graph graph) {
  Built built;
  built.graph = std::move(graph);
  built.oracle = make_distance_oracle(built.graph);
  built.hierarchy = GeneralHierarchy::build(built.graph, *built.oracle, {});
  return built;
}

TEST(GeneralHierarchy, TopLevelSingleRoot) {
  const Built b = build(make_grid(6, 6));
  const int h = b.hierarchy->height();
  EXPECT_GE(h, 2);
  EXPECT_EQ(b.hierarchy->members(h).size(), 1u);
  EXPECT_EQ(b.hierarchy->members(h)[0], b.hierarchy->root());
}

TEST(GeneralHierarchy, GroupsNonEmptyEverywhere) {
  const Built b = build(make_ring(24));
  for (NodeId u = 0; u < b.graph.num_nodes(); ++u) {
    for (int level = 0; level <= b.hierarchy->height(); ++level) {
      EXPECT_FALSE(b.hierarchy->group(u, level).empty());
    }
  }
}

TEST(GeneralHierarchy, Level0IsSelf) {
  const Built b = build(make_grid(4, 4));
  for (NodeId u = 0; u < b.graph.num_nodes(); ++u) {
    const auto group = b.hierarchy->group(u, 0);
    ASSERT_EQ(group.size(), 1u);
    EXPECT_EQ(group[0], u);
  }
}

// Lemma 6.1 analogue: groups of u and v intersect at the covering level.
TEST(GeneralHierarchy, GroupsMeetAtLogDistance) {
  const Built b = build(make_grid(8, 8));
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const auto u = static_cast<NodeId>(rng.below(b.graph.num_nodes()));
    const auto v = static_cast<NodeId>(rng.below(b.graph.num_nodes()));
    if (u == v) continue;
    const Weight dist = b.oracle->distance(u, v);
    const int meet_level =
        std::min(b.hierarchy->height(),
                 std::max(1, static_cast<int>(std::ceil(std::log2(dist)))));
    bool met = false;
    for (int level = 1; level <= meet_level && !met; ++level) {
      const auto gu = b.hierarchy->group(u, level);
      const auto gv = b.hierarchy->group(v, level);
      for (const NodeId x : gu) {
        if (std::find(gv.begin(), gv.end(), x) != gv.end()) {
          met = true;
          break;
        }
      }
    }
    EXPECT_TRUE(met) << "u=" << u << " v=" << v << " dist=" << dist;
  }
}

TEST(GeneralHierarchy, PrimaryIsFirstGroupMember) {
  const Built b = build(make_grid(5, 5));
  for (NodeId u = 0; u < b.graph.num_nodes(); u += 3) {
    for (int level = 1; level <= b.hierarchy->height(); ++level) {
      EXPECT_EQ(b.hierarchy->primary(u, level),
                b.hierarchy->group(u, level).front());
    }
  }
}

TEST(GeneralHierarchy, ClusterLookupByLeader) {
  const Built b = build(make_grid(6, 6));
  for (int level = 1; level <= b.hierarchy->height(); ++level) {
    for (const NodeId leader : b.hierarchy->members(level)) {
      const auto cluster = b.hierarchy->cluster(level, leader);
      EXPECT_TRUE(
          std::binary_search(cluster.begin(), cluster.end(), leader));
    }
  }
}

TEST(GeneralHierarchy, WorksOnStarAndLollipop) {
  const Built star = build(make_star(40));
  EXPECT_EQ(star.hierarchy->members(star.hierarchy->height()).size(), 1u);

  const Built lollipop = build(make_lollipop(8, 24));
  EXPECT_EQ(
      lollipop.hierarchy->members(lollipop.hierarchy->height()).size(),
      1u);
}

TEST(GeneralHierarchy, AverageOverlapLogarithmic) {
  const Built b = build(make_grid(8, 8));
  for (int level = 1; level <= b.hierarchy->height(); ++level) {
    EXPECT_LE(b.hierarchy->average_overlap(level), 14.0)
        << "level " << level;
  }
}

// FNV-1a over every cover (radius, clusters with leader, radius and
// members, per-node cluster labels), level members and per-node groups:
// pins the general overlay byte for byte.
std::uint64_t hierarchy_digest(const GeneralHierarchy& hierarchy,
                               std::size_t num_nodes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto add = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  add(static_cast<std::uint64_t>(hierarchy.height()));
  for (int level = 1; level <= hierarchy.height(); ++level) {
    const SparseCover& cover = hierarchy.cover(level);
    add(std::bit_cast<std::uint64_t>(cover.cover_radius));
    add(cover.clusters.size());
    for (const Cluster& cluster : cover.clusters) {
      add(cluster.leader);
      add(std::bit_cast<std::uint64_t>(cluster.radius));
      add(cluster.members.size());
      for (const NodeId v : cluster.members) add(v);
    }
    for (const auto& labels : cover.clusters_of) {
      add(labels.size());
      for (const std::uint32_t label : labels) add(label);
    }
    const auto members = hierarchy.members(level);
    add(members.size());
    for (const NodeId v : members) add(v);
    for (NodeId u = 0; u < num_nodes; ++u) {
      const auto group = hierarchy.group(u, level);
      add(group.size());
      for (const NodeId v : group) add(v);
    }
  }
  return hash;
}

TEST(GeneralHierarchy, GoldenDigests) {
  const std::vector<std::pair<Graph, std::uint64_t>> cases = [] {
    std::vector<std::pair<Graph, std::uint64_t>> out;
    out.emplace_back(make_grid(24, 24), 0x09be2c58a9219169ull);
    out.emplace_back(make_lollipop(8, 24), 0xfbc048143add3d7aull);
    Rng rng(83);
    out.emplace_back(make_random_geometric(200, 14.0, 2.0, rng, 64, 0.5),
                     0xef3807f6de4ff8b4ull);
    return out;
  }();
  for (const auto& [graph, expected] : cases) {
    const auto oracle = make_distance_oracle(graph);
    const auto hierarchy = GeneralHierarchy::build(graph, *oracle, {});
    const std::uint64_t digest =
        hierarchy_digest(*hierarchy, graph.num_nodes());
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, expected) << graph.num_nodes() << " nodes, " << hex;
  }
}

}  // namespace
}  // namespace mot
