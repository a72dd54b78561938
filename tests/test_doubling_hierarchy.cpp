#include "hier/doubling_hierarchy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <set>

#include "graph/generators.hpp"
#include "graph/shortest_path.hpp"

namespace mot {
namespace {

struct Built {
  Graph graph;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<DoublingHierarchy> hierarchy;
};

Built build(Graph graph, std::uint64_t seed = 1,
            double parent_radius_factor = 4.0) {
  Built built;
  built.graph = std::move(graph);
  built.oracle = make_distance_oracle(built.graph);
  DoublingHierarchy::Params params;
  params.seed = seed;
  params.parent_radius_factor = parent_radius_factor;
  built.hierarchy =
      DoublingHierarchy::build(built.graph, *built.oracle, params);
  return built;
}

TEST(DoublingHierarchy, SingleNodeGraph) {
  GraphBuilder builder(1);
  const Built b = build(std::move(builder).build());
  EXPECT_EQ(b.hierarchy->height(), 0);
  EXPECT_EQ(b.hierarchy->root(), 0u);
  const auto group = b.hierarchy->group(0, 0);
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0], 0u);
}

TEST(DoublingHierarchy, BottomLevelIsAllNodes) {
  const Built b = build(make_grid(6, 6));
  EXPECT_EQ(b.hierarchy->members(0).size(), 36u);
  for (NodeId v = 0; v < 36; ++v) {
    EXPECT_TRUE(b.hierarchy->is_member(0, v));
  }
}

TEST(DoublingHierarchy, LevelsShrinkToSingleRoot) {
  const Built b = build(make_grid(8, 8));
  const int h = b.hierarchy->height();
  EXPECT_GE(h, 2);
  for (int level = 1; level <= h; ++level) {
    EXPECT_LE(b.hierarchy->members(level).size(),
              b.hierarchy->members(level - 1).size());
  }
  EXPECT_EQ(b.hierarchy->members(h).size(), 1u);
}

TEST(DoublingHierarchy, HeightIsLogDiameter) {
  const Built b = build(make_grid(8, 8));
  // D = 14 => h <= ceil(log2 14) + 2 with slack for the MIS chain.
  EXPECT_LE(b.hierarchy->height(), 7);
}

TEST(DoublingHierarchy, MembersAreNested) {
  const Built b = build(make_grid(7, 7), 3);
  for (int level = 1; level <= b.hierarchy->height(); ++level) {
    for (const NodeId v : b.hierarchy->members(level)) {
      EXPECT_TRUE(b.hierarchy->is_member(level - 1, v))
          << "level " << level << " member " << v;
    }
  }
}

TEST(DoublingHierarchy, MembersAtLevelLAreFarApart) {
  const Built b = build(make_grid(10, 10), 7);
  for (int level = 1; level <= b.hierarchy->height(); ++level) {
    const auto members = b.hierarchy->members(level);
    const Weight min_separation = std::ldexp(1.0, level);  // 2^level
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        EXPECT_GE(b.oracle->distance(members[i], members[j]),
                  min_separation)
            << "level " << level;
      }
    }
  }
}

TEST(DoublingHierarchy, DefaultParentWithinRadius) {
  const Built b = build(make_grid(9, 9), 11);
  for (int level = 0; level < b.hierarchy->height(); ++level) {
    const Weight radius = std::ldexp(1.0, level + 1);  // 2^{l+1}
    for (const NodeId v : b.hierarchy->members(level)) {
      const NodeId parent = b.hierarchy->default_parent(level, v);
      EXPECT_TRUE(b.hierarchy->is_member(level + 1, parent));
      EXPECT_LE(b.oracle->distance(v, parent), radius);
    }
  }
}

TEST(DoublingHierarchy, SelfParentWhenStillMember) {
  const Built b = build(make_grid(9, 9), 11);
  for (int level = 0; level < b.hierarchy->height(); ++level) {
    for (const NodeId v : b.hierarchy->members(level + 1)) {
      // A node surviving to the next level is its own nearest parent.
      EXPECT_EQ(b.hierarchy->default_parent(level, v), v);
    }
  }
}

TEST(DoublingHierarchy, GroupsSortedAndContainPrimary) {
  const Built b = build(make_grid(8, 8), 5);
  for (NodeId u = 0; u < b.graph.num_nodes(); u += 5) {
    for (int level = 1; level <= b.hierarchy->height(); ++level) {
      const auto group = b.hierarchy->group(u, level);
      ASSERT_FALSE(group.empty());
      for (std::size_t i = 1; i < group.size(); ++i) {
        EXPECT_LT(group[i - 1], group[i]);  // strict ID order
      }
      const NodeId primary = b.hierarchy->primary(u, level);
      EXPECT_TRUE(std::binary_search(group.begin(), group.end(), primary));
    }
  }
}

TEST(DoublingHierarchy, GroupMembersWithinParentSetRadius) {
  const Built b = build(make_grid(8, 8), 5);
  for (NodeId u = 0; u < b.graph.num_nodes(); u += 7) {
    for (int level = 1; level <= b.hierarchy->height(); ++level) {
      const NodeId anchor = b.hierarchy->home(u, level - 1);
      const Weight radius = 4.0 * std::ldexp(1.0, level);
      for (const NodeId p : b.hierarchy->group(u, level)) {
        EXPECT_LE(b.oracle->distance(anchor, p), radius);
        EXPECT_TRUE(b.hierarchy->is_member(level, p));
      }
    }
  }
}

TEST(DoublingHierarchy, ParentSetSizeBounded) {
  // Observation 1: constant-size parent sets in constant-doubling graphs
  // (2^{3 rho}; for 2D grids rho ~ 2, so 64 is a very generous cap).
  const Built b = build(make_grid(12, 12), 9);
  for (NodeId u = 0; u < b.graph.num_nodes(); u += 11) {
    for (int level = 1; level <= b.hierarchy->height(); ++level) {
      EXPECT_LE(b.hierarchy->group(u, level).size(), 64u);
    }
  }
}

// Lemma 2.1: detection paths of u and v share a level-l stop for
// l = ceil(log2 dist(u, v)) + 1.
TEST(DoublingHierarchy, DetectionPathsMeetAtLemmaLevel) {
  const Built b = build(make_grid(10, 10), 13);
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    const auto u = static_cast<NodeId>(rng.below(b.graph.num_nodes()));
    const auto v = static_cast<NodeId>(rng.below(b.graph.num_nodes()));
    if (u == v) continue;
    const Weight dist = b.oracle->distance(u, v);
    const int meet_level = std::min(
        b.hierarchy->height(),
        static_cast<int>(std::ceil(std::log2(dist))) + 1);
    bool met = false;
    for (int level = 1; level <= meet_level && !met; ++level) {
      const auto gu = b.hierarchy->group(u, level);
      const auto gv = b.hierarchy->group(v, level);
      for (const NodeId x : gu) {
        if (std::binary_search(gv.begin(), gv.end(), x)) {
          met = true;
          break;
        }
      }
    }
    EXPECT_TRUE(met) << "u=" << u << " v=" << v << " dist=" << dist;
  }
}

// Lemma 2.2 analogue: detection path length up to level j is geometric
// in 2^j (constant depends on the doubling constant; assert the trend).
TEST(DoublingHierarchy, DetectionPathLengthGeometric) {
  const Built b = build(make_grid(12, 12), 17);
  for (const NodeId u : {0u, 77u, 143u}) {
    Weight previous = 0.0;
    for (int level = 1; level <= b.hierarchy->height(); ++level) {
      const Weight length = b.hierarchy->detection_path_length(u, level);
      // Lemma 2.2's per-level fragment bound is ~2^{3 rho} * 2^{l+1};
      // with rho ~ 2 on grids that is 256 * 2^l.
      EXPECT_GE(length, previous);  // monotone in level
      EXPECT_LE(length, 256.0 * std::ldexp(1.0, level))
          << "level " << level;
      previous = length;
    }
  }
}

TEST(DoublingHierarchy, RootGroupIsRoot) {
  const Built b = build(make_grid(6, 6), 19);
  const int h = b.hierarchy->height();
  for (NodeId u = 0; u < b.graph.num_nodes(); u += 5) {
    const auto group = b.hierarchy->group(u, h);
    ASSERT_EQ(group.size(), 1u);
    EXPECT_EQ(group[0], b.hierarchy->root());
  }
}

TEST(DoublingHierarchy, ClusterContainsCenterAndRespectsRadius) {
  const Built b = build(make_grid(8, 8), 21);
  for (int level = 1; level <= b.hierarchy->height(); ++level) {
    for (const NodeId center : b.hierarchy->members(level)) {
      const auto cluster = b.hierarchy->cluster(level, center);
      EXPECT_TRUE(
          std::binary_search(cluster.begin(), cluster.end(), center));
      const Weight radius = std::ldexp(1.0, level);
      for (const NodeId v : cluster) {
        EXPECT_LE(b.oracle->distance(center, v), radius);
      }
    }
  }
}

TEST(DoublingHierarchy, TopClusterCoversWholeGridEventually) {
  const Built b = build(make_grid(6, 6), 23);
  const int h = b.hierarchy->height();
  // The root's cluster at the top level has radius 2^h >= D.
  if (std::ldexp(1.0, h) >= exact_diameter(b.graph)) {
    EXPECT_EQ(b.hierarchy->cluster(h, b.hierarchy->root()).size(),
              b.graph.num_nodes());
  }
}

TEST(DoublingHierarchy, DeterministicForSeed) {
  const Built a = build(make_grid(7, 7), 31);
  const Built b = build(make_grid(7, 7), 31);
  EXPECT_EQ(a.hierarchy->height(), b.hierarchy->height());
  for (int level = 0; level <= a.hierarchy->height(); ++level) {
    const auto ma = a.hierarchy->members(level);
    const auto mb = b.hierarchy->members(level);
    EXPECT_TRUE(std::equal(ma.begin(), ma.end(), mb.begin(), mb.end()));
  }
}

TEST(DoublingHierarchy, WorksOnRingAndGeometric) {
  const Built ring = build(make_ring(32), 37);
  EXPECT_EQ(ring.hierarchy->members(ring.hierarchy->height()).size(), 1u);

  Rng rng(41);
  const Built geo =
      build(make_random_geometric(50, 10.0, 2.6, rng), 37);
  EXPECT_EQ(geo.hierarchy->members(geo.hierarchy->height()).size(), 1u);
}

TEST(DoublingHierarchy, DetectionPathCoversAllLevels) {
  const Built b = build(make_grid(8, 8), 43);
  const auto path = b.hierarchy->detection_path(5);
  std::set<int> levels;
  for (const auto& stop : path) levels.insert(stop.level);
  EXPECT_EQ(static_cast<int>(levels.size()), b.hierarchy->height());
  EXPECT_EQ(path.back().node, b.hierarchy->root());
}

// FNV-1a over 64-bit words, byte by byte (little-endian order).
struct Fnv {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(values.size());
    for (const T v : values) add(static_cast<std::uint64_t>(v));
  }
};

std::uint64_t state_digest(const DoublingHierarchy& hierarchy) {
  const DoublingHierarchy::State state = hierarchy.export_state();
  Fnv fnv;
  fnv.add(state.num_nodes);
  fnv.add(state.total_mis_rounds);
  fnv.add(state.levels.size());
  for (const auto& level : state.levels) {
    fnv.add_all(level.member_list);
    fnv.add_all(level.parent_offsets);
    fnv.add_all(level.parent_data);
    fnv.add_all(level.default_parents);
  }
  return fnv.hash;
}

// Golden digests of export_state() across a zoo of topologies. The
// values pin the built overlay byte for byte (members, MIS rounds,
// parent CSR, default parents): a construction change that alters any
// of them, on any graph here, fails this test.
TEST(DoublingHierarchy, GoldenStateDigests) {
  struct Case {
    const char* name;
    std::function<Graph()> make;
    std::uint64_t seed;
    double parent_radius_factor;
    std::uint64_t digest;
  };
  const std::vector<Case> cases = {
      {"grid32", [] { return make_grid(32, 32); }, 1, 4.0,
       0x7e71c23115eac8f1ull},
      {"grid64", [] { return make_grid(64, 64); }, 2, 4.0,
       0x49d44c155bf6170cull},
      {"grid128", [] { return make_grid(128, 128); }, 3, 4.0,
       0xe073c3122e841224ull},
      {"grid64_factor2", [] { return make_grid(64, 64); }, 4, 2.0,
       0x466c30e340a3b733ull},
      {"torus48", [] { return make_torus(48, 48); }, 5, 4.0,
       0xc5a672db511a91c7ull},
      {"grid8_40", [] { return make_grid8(40, 40); }, 6, 4.0,
       0x94324ddd2dc0ec18ull},
      {"geometric800",
       [] {
         Rng rng(71);
         return make_random_geometric(800, 28.0, 2.0, rng, 64, 0.5);
       },
       7, 4.0, 0xfb8e2d369d7df10aull},
      {"connected_random600",
       [] {
         Rng rng(73);
         return make_connected_random(600, 4.0, 6.0, rng);
       },
       8, 4.0, 0x1c517d62a839afdcull},
      {"random_tree500",
       [] {
         Rng rng(79);
         return make_random_tree(500, rng);
       },
       9, 4.0, 0x665a383d0b3c9b11ull},
      {"ring200", [] { return make_ring(200); }, 10, 4.0,
       0x096b764d770dfc72ull},
      {"star100", [] { return make_star(100); }, 11, 4.0,
       0xead20913f3f2211aull},
      {"single", [] { return GraphBuilder(1).build(); }, 12, 4.0,
       0x5573febbdc252544ull},
  };
  for (const Case& c : cases) {
    const Built b = build(c.make(), c.seed, c.parent_radius_factor);
    const std::uint64_t digest = state_digest(*b.hierarchy);
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, c.digest) << c.name << " digest " << hex;
  }
}

// cluster() balls, folded in (level, center) order over every member of
// every level: pins the member lists, which must stay sorted by ID.
TEST(DoublingHierarchy, GoldenClusterDigests) {
  struct Case {
    const char* name;
    std::function<Graph()> make;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const std::vector<Case> cases = {
      {"grid32", [] { return make_grid(32, 32); }, 1, 0xa4be6017ec243837ull},
      {"geometric800",
       [] {
         Rng rng(71);
         return make_random_geometric(800, 28.0, 2.0, rng, 64, 0.5);
       },
       7, 0x20616c12fe181196ull},
  };
  for (const Case& c : cases) {
    const Built b = build(c.make(), c.seed);
    Fnv fnv;
    for (int level = 0; level <= b.hierarchy->height(); ++level) {
      for (const NodeId center : b.hierarchy->members(level)) {
        const auto cluster = b.hierarchy->cluster(level, center);
        fnv.add(cluster.size());
        for (const NodeId v : cluster) fnv.add(v);
      }
    }
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(fnv.hash));
    EXPECT_EQ(fnv.hash, c.digest) << c.name << " digest " << hex;
  }
}

}  // namespace
}  // namespace mot
