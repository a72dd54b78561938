// The distributed (message-passing) runtime must behave exactly like the
// verified centralized engine under one-by-one execution: identical
// proxies, identical per-operation communication costs, identical
// detection-list placement — while provably touching only local state.
#include "proto/distributed_mot.hpp"

#include <gtest/gtest.h>

#include "baselines/tree_tracker.hpp"
#include "net/router.hpp"
#include "core/mot.hpp"
#include "expt/experiment.hpp"
#include "graph/generators.hpp"
#include "hier/doubling_hierarchy.hpp"
#include "obs/trace.hpp"
#include "workload/mobility.hpp"

namespace mot {
namespace {

using proto::DistributedMot;

struct Fixture {
  explicit Fixture(std::size_t side = 8, bool special_parents = true)
      : graph(make_grid(side, side)), oracle(make_distance_oracle(graph)) {
    DoublingHierarchy::Params hp;
    hp.seed = 7;
    hierarchy = DoublingHierarchy::build(graph, *oracle, hp);
    MotOptions options;
    options.use_parent_sets = false;
    options.use_special_parents = special_parents;
    provider = std::make_unique<MotPathProvider>(*hierarchy, options);
    chain_options = make_mot_chain_options(options);
  }

  Graph graph;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<DoublingHierarchy> hierarchy;
  std::unique_ptr<MotPathProvider> provider;
  ChainOptions chain_options;
};

TEST(DistributedMot, PublishPlacesEntriesLikeCentralized) {
  const Fixture fx;
  ChainTracker central("seq", *fx.provider, fx.chain_options);
  central.publish(0, 13);

  Simulator sim;
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.publish(0, 13);
  sim.run();
  dist.validate_quiescent();

  // Identical storage placement per sensor.
  EXPECT_EQ(dist.load_per_node(), central.load_per_node());
}

TEST(DistributedMot, MoveCostParityWithCentralizedEngine) {
  const Fixture fx;
  ChainTracker central("seq", *fx.provider, fx.chain_options);
  Simulator sim;
  DistributedMot dist(*fx.provider, sim, fx.chain_options);

  central.publish(0, 0);
  dist.publish(0, 0);
  sim.run();

  Rng rng(3);
  NodeId at = 0;
  for (int i = 0; i < 120; ++i) {
    const auto neighbors = fx.graph.neighbors(at);
    at = neighbors[rng.below(neighbors.size())].to;
    const MoveResult expected = central.move(0, at);
    MoveResult actual;
    dist.move(0, at, [&](const MoveResult& r) { actual = r; });
    sim.run();
    ASSERT_DOUBLE_EQ(actual.cost, expected.cost) << "step " << i;
    ASSERT_EQ(actual.peak_level, expected.peak_level) << "step " << i;
  }
  dist.validate_quiescent();
  EXPECT_EQ(dist.proxy_of(0), central.proxy_of(0));
  EXPECT_EQ(dist.load_per_node(), central.load_per_node());
}

TEST(DistributedMot, QueryCostParityWithCentralizedEngine) {
  const Fixture fx;
  ChainTracker central("seq", *fx.provider, fx.chain_options);
  Simulator sim;
  DistributedMot dist(*fx.provider, sim, fx.chain_options);

  central.publish(0, 5);
  dist.publish(0, 5);
  sim.run();
  Rng rng(9);
  NodeId at = 5;
  for (int i = 0; i < 40; ++i) {
    const auto neighbors = fx.graph.neighbors(at);
    at = neighbors[rng.below(neighbors.size())].to;
    central.move(0, at);
    dist.move(0, at, {});
    sim.run();
  }

  for (NodeId from = 0; from < fx.graph.num_nodes(); from += 3) {
    const QueryResult expected = central.query(from, 0);
    QueryResult actual;
    dist.query(from, 0, [&](const QueryResult& r) { actual = r; });
    sim.run();
    ASSERT_TRUE(actual.found);
    ASSERT_EQ(actual.proxy, expected.proxy) << "from " << from;
    ASSERT_DOUBLE_EQ(actual.cost, expected.cost) << "from " << from;
    ASSERT_EQ(actual.found_level, expected.found_level) << "from " << from;
  }
}

TEST(DistributedMot, ParityWithoutSpecialParents) {
  const Fixture fx(8, /*special_parents=*/false);
  ChainTracker central("seq", *fx.provider, fx.chain_options);
  Simulator sim;
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  central.publish(0, 10);
  dist.publish(0, 10);
  sim.run();
  Rng rng(21);
  NodeId at = 10;
  for (int i = 0; i < 60; ++i) {
    const auto neighbors = fx.graph.neighbors(at);
    at = neighbors[rng.below(neighbors.size())].to;
    const MoveResult expected = central.move(0, at);
    MoveResult actual;
    dist.move(0, at, [&](const MoveResult& r) { actual = r; });
    sim.run();
    ASSERT_DOUBLE_EQ(actual.cost, expected.cost);
  }
  EXPECT_EQ(dist.load_per_node(), central.load_per_node());
}

TEST(DistributedMot, MoveToCurrentProxyIsFree) {
  const Fixture fx;
  Simulator sim;
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.publish(0, 4);
  sim.run();
  MoveResult result{.cost = -1.0, .peak_level = -1};
  dist.move(0, 4, [&](const MoveResult& r) { result = r; });
  sim.run();
  EXPECT_DOUBLE_EQ(result.cost, 0.0);
}

TEST(DistributedMot, QueryOverlappingMoveGetsRedirected) {
  const Fixture fx;
  Simulator sim;
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.publish(0, 0);
  sim.run();
  // Start a move across the grid and a query aimed at the old proxy
  // before the delete reaches it.
  dist.move(0, 63, {});
  QueryResult result;
  dist.query(1, 0, [&](const QueryResult& r) { result = r; });
  sim.run();
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.proxy, 63u);
  dist.validate_quiescent();
  const auto& stats = dist.stats();
  EXPECT_EQ(stats.moves_completed, 1u);
  EXPECT_EQ(stats.queries_completed, 1u);
}

TEST(DistributedMot, MessageCountsAreReasonable) {
  const Fixture fx;
  Simulator sim;
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.publish(0, 0);
  sim.run();
  const std::uint64_t after_publish = dist.stats().messages_sent;
  // Publish: one message per chain entry plus SDL registrations.
  EXPECT_GE(after_publish,
            static_cast<std::uint64_t>(fx.hierarchy->height()));
  EXPECT_LE(after_publish,
            4u * static_cast<std::uint64_t>(fx.hierarchy->height()) + 4u);

  dist.move(0, 1, {});
  sim.run();
  EXPECT_GT(dist.stats().messages_sent, after_publish);
  dist.validate_quiescent();
}

TEST(DistributedMot, DeliveryTraceRecordsWire) {
  const Fixture fx;
  obs::RingBufferSink ring(1 << 12);
  obs::TraceSink* previous = obs::install_trace_sink(&ring);
  Simulator sim;
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.publish(0, 9);
  sim.run();
  obs::install_trace_sink(previous);
  std::vector<obs::TraceEvent> sends = ring.events();
  std::erase_if(sends, [](const obs::TraceEvent& e) {
    return e.type != obs::Ev::kMsgSend;
  });
  ASSERT_FALSE(sends.empty());
  // First send is the publish injected at the proxy itself.
  EXPECT_STREQ(sends.front().label,
               proto::msg_type_name(proto::MsgType::kPublish));
  EXPECT_EQ(sends.front().to, 9u);
  // Distances on the wire match the oracle.
  for (const obs::TraceEvent& d : sends) {
    EXPECT_DOUBLE_EQ(d.dist, d.from == d.to
                                 ? 0.0
                                 : fx.oracle->distance(d.from, d.to));
  }
}

TEST(DistributedMot, WorksOverTreeProviders) {
  const Graph graph = make_grid(6, 6);
  const CachedDistanceOracle oracle(graph);
  const NodeId sink = choose_sink(graph);
  EdgeRates rates;
  SpanningTree tree = build_dat(graph, rates, sink);
  SpanningTree tree_copy = tree;
  TreePathProvider provider(oracle, std::move(tree));
  TreePathProvider provider_copy(oracle, std::move(tree_copy));
  ChainOptions options;

  ChainTracker central("seq", provider_copy, options);
  Simulator sim;
  DistributedMot dist(provider, sim, options);
  central.publish(0, 0);
  dist.publish(0, 0);
  sim.run();
  Rng rng(31);
  NodeId at = 0;
  for (int i = 0; i < 50; ++i) {
    const auto neighbors = graph.neighbors(at);
    at = neighbors[rng.below(neighbors.size())].to;
    const MoveResult expected = central.move(0, at);
    MoveResult actual;
    dist.move(0, at, [&](const MoveResult& r) { actual = r; });
    sim.run();
    ASSERT_DOUBLE_EQ(actual.cost, expected.cost) << "step " << i;
  }
  dist.validate_quiescent();
  EXPECT_EQ(dist.proxy_of(0), central.proxy_of(0));
}

TEST(DistributedMot, MultipleObjectsIndependent) {
  const Fixture fx;
  Simulator sim;
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  for (ObjectId o = 0; o < 10; ++o) {
    dist.publish(o, static_cast<NodeId>(o * 6));
  }
  sim.run();
  // Concurrent moves of DIFFERENT objects are fine (the one-by-one rule
  // is per object).
  for (ObjectId o = 0; o < 10; ++o) {
    dist.move(o, static_cast<NodeId>(o * 6 + 1), {});
  }
  sim.run();
  dist.validate_quiescent();
  for (ObjectId o = 0; o < 10; ++o) {
    EXPECT_EQ(dist.proxy_of(o), static_cast<NodeId>(o * 6 + 1));
  }
}

TEST(DistributedMot, PhysicalRoutingPreservesCostAndCountsHops) {
  // Special parents off: every message is charged, so on a unit grid the
  // metered distance equals the number of forwarded edges exactly.
  const Fixture fx(8, /*special_parents=*/false);
  const ShortestPathRouter router(fx.graph);

  Simulator sim_a;
  DistributedMot plain(*fx.provider, sim_a, fx.chain_options);
  Simulator sim_b;
  DistributedMot routed(*fx.provider, sim_b, fx.chain_options);
  routed.use_router(&router);

  plain.publish(0, 0);
  routed.publish(0, 0);
  sim_a.run();
  sim_b.run();
  // The publish climb is already forwarded edge by edge.
  EXPECT_GT(routed.stats().physical_hops, 0u);
  Rng rng(41);
  NodeId at = 0;
  for (int i = 0; i < 40; ++i) {
    const auto neighbors = fx.graph.neighbors(at);
    at = neighbors[rng.below(neighbors.size())].to;
    MoveResult a;
    MoveResult b;
    plain.move(0, at, [&](const MoveResult& r) { a = r; });
    routed.move(0, at, [&](const MoveResult& r) { b = r; });
    sim_a.run();
    sim_b.run();
    // Hop-by-hop forwarding changes nothing about the charged cost.
    ASSERT_DOUBLE_EQ(a.cost, b.cost);
  }
  // On a unit grid, total forwarded edges == total distance traveled, so
  // physical hops must be at least the message count minus self-sends and
  // exactly the metered distance.
  EXPECT_DOUBLE_EQ(static_cast<double>(routed.stats().physical_hops),
                   routed.meter().total_distance());
}

TEST(DistributedMot, MsgTypeNamesAreStable) {
  EXPECT_STREQ(proto::msg_type_name(proto::MsgType::kInsert), "insert");
  EXPECT_STREQ(proto::msg_type_name(proto::MsgType::kQueryReply),
               "query-reply");
  EXPECT_STREQ(proto::msg_type_name(proto::MsgType::kSdlRemove),
               "sdl-remove");
}

}  // namespace
}  // namespace mot
