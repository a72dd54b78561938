// The fault-injection subsystem and the protocol's answer to it: the
// reliable link layer must make a dropping / duplicating / reordering
// channel look like a lossless one (same op costs, same placement), the
// whole stack must replay bit-identically from a (plan, seed) pair, and
// crash-stop failures must leave a structure that still answers every
// query correctly.
#include "faults/fault_plan.hpp"
#include "faults/unreliable_channel.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/mot.hpp"
#include "graph/generators.hpp"
#include "hier/doubling_hierarchy.hpp"
#include "overload/overload.hpp"
#include "proto/distributed_mot.hpp"
#include "sim/service_model.hpp"
#include "tracking/chain_tracker.hpp"

namespace mot {
namespace {

using faults::ChannelStats;
using faults::FaultPlan;
using faults::LinkFaults;
using faults::UnreliableChannel;
using proto::DistributedMot;
using proto::ProtocolStats;

LinkFaults lossy(double drop, double duplicate, double delay = 0.0,
                 double max_extra_delay = 0.0) {
  LinkFaults faults;
  faults.drop = drop;
  faults.duplicate = duplicate;
  faults.delay = delay;
  faults.max_extra_delay = max_extra_delay;
  return faults;
}

struct Fixture {
  explicit Fixture(std::size_t side = 8)
      : graph(make_grid(side, side)), oracle(make_distance_oracle(graph)) {
    DoublingHierarchy::Params hp;
    hp.seed = 7;
    hierarchy = DoublingHierarchy::build(graph, *oracle, hp);
    MotOptions options;
    options.use_parent_sets = false;
    provider = std::make_unique<MotPathProvider>(*hierarchy, options);
    chain_options = make_mot_chain_options(options);
  }

  Graph graph;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<DoublingHierarchy> hierarchy;
  std::unique_ptr<MotPathProvider> provider;
  ChainOptions chain_options;
};

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlan, DefaultsAndOverridesResolvePerDirectedLink) {
  FaultPlan plan;
  plan.set_default_faults(lossy(0.1, 0.0));
  plan.set_link_faults(3, 5, lossy(0.5, 0.2));

  EXPECT_DOUBLE_EQ(plan.faults_for(3, 5).drop, 0.5);
  EXPECT_DOUBLE_EQ(plan.faults_for(5, 3).drop, 0.1);  // directed override
  EXPECT_DOUBLE_EQ(plan.faults_for(0, 1).drop, 0.1);
  EXPECT_TRUE(plan.has_link_faults());
}

TEST(FaultPlan, CrashesSortByTimeAndRejectRepeats) {
  FaultPlan plan;
  plan.add_crash(5.0, 2).add_crash(1.0, 7).add_crash(5.0, 1);
  ASSERT_EQ(plan.crashes().size(), 3u);
  EXPECT_EQ(plan.crashes()[0].node, 7u);
  EXPECT_EQ(plan.crashes()[1].node, 1u);  // time tie broken by node id
  EXPECT_EQ(plan.crashes()[2].node, 2u);
}

// ---------------------------------------------------------------------------
// UnreliableChannel
// ---------------------------------------------------------------------------

TEST(UnreliableChannel, SameSeedReplaysIdentically) {
  FaultPlan plan;
  plan.set_default_faults(lossy(0.3, 0.2, 0.5, 4.0));

  const auto run = [&plan](std::uint64_t seed) {
    Simulator sim;
    UnreliableChannel channel(plan, seed);
    std::vector<SimTime> arrivals;
    for (int i = 0; i < 200; ++i) {
      channel.transmit(sim, 0, 1, 1.0,
                       [&arrivals, &sim] { arrivals.push_back(sim.now()); });
    }
    sim.run();
    return arrivals;
  };

  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));  // and the seed actually matters
}

TEST(UnreliableChannel, DeadNodesBlockAndSwallowTraffic) {
  FaultPlan plan;
  Simulator sim;
  UnreliableChannel channel(plan, 1);
  NodeId crashed = kInvalidNode;
  channel.subscribe_crashes([&crashed](NodeId node) { crashed = node; });

  int delivered = 0;
  channel.transmit(sim, 0, 1, 5.0, [&delivered] { ++delivered; });
  channel.crash_now(1);  // dies while the message is in flight
  EXPECT_EQ(crashed, 1u);
  channel.transmit(sim, 0, 1, 5.0, [&delivered] { ++delivered; });
  sim.run();

  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(channel.stats().blocked_dead, 1u);
  EXPECT_EQ(channel.stats().dead_on_arrival, 1u);
  channel.crash_now(1);  // idempotent
  EXPECT_EQ(channel.stats().crashes, 1u);
}

TEST(UnreliableChannel, ArmSchedulesPlannedCrashes) {
  FaultPlan plan;
  plan.add_crash(10.0, 3);
  Simulator sim;
  UnreliableChannel channel(plan, 1);
  channel.arm(sim);
  EXPECT_FALSE(channel.is_dead(3));
  sim.run();
  EXPECT_TRUE(channel.is_dead(3));
}

// ---------------------------------------------------------------------------
// Reliable delivery: the protocol over a faulty channel
// ---------------------------------------------------------------------------

TEST(FaultTolerance, MoveCostParityWithCentralizedUnderLinkFaults) {
  // The reliable layer makes every logical message arrive effectively
  // once, and op costs are charged at first send — so per-operation costs
  // must equal the centralized engine's even while the wire is lossy.
  const Fixture fx;
  ChainTracker central("seq", *fx.provider, fx.chain_options);
  Simulator sim;
  FaultPlan plan;
  plan.set_default_faults(lossy(0.15, 0.10, 0.3, 6.0));
  UnreliableChannel channel(plan, 99);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);

  central.publish(0, 0);
  dist.publish(0, 0);
  sim.run();

  Rng rng(3);
  NodeId at = 0;
  for (int i = 0; i < 60; ++i) {
    const auto neighbors = fx.graph.neighbors(at);
    at = neighbors[rng.below(neighbors.size())].to;
    const MoveResult expected = central.move(0, at);
    MoveResult actual;
    dist.move(0, at, [&](const MoveResult& r) { actual = r; });
    sim.run();
    ASSERT_DOUBLE_EQ(actual.cost, expected.cost) << "step " << i;
  }
  dist.validate_quiescent();
  EXPECT_EQ(dist.proxy_of(0), central.proxy_of(0));
  EXPECT_EQ(dist.load_per_node(), central.load_per_node());
  EXPECT_GT(dist.stats().retransmissions, 0u);
  EXPECT_GT(dist.stats().duplicates_suppressed, 0u);
  EXPECT_GT(dist.stats().transport_distance, 0.0);
}

TEST(FaultTolerance, HeavyFaultsOnLargeGridEveryQueryCorrect) {
  // The issue's acceptance scenario: 16x16 grid, 100 objects, 10% drop +
  // 5% duplication + reordering delays. Everything completes, the
  // structure is intact, and every query finds the true position.
  const Fixture fx(16);
  Simulator sim;
  FaultPlan plan;
  plan.set_default_faults(lossy(0.10, 0.05, 0.25, 8.0));
  UnreliableChannel channel(plan, 4242);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);

  const std::size_t num_objects = 100;
  Rng rng(17);
  for (ObjectId o = 0; o < num_objects; ++o) {
    dist.publish(o, rng.below(fx.graph.num_nodes()));
  }
  sim.run();

  std::size_t queries_answered = 0;
  for (int round = 0; round < 3; ++round) {
    for (ObjectId o = 0; o < num_objects; ++o) {
      dist.move(o, rng.below(fx.graph.num_nodes()));
    }
    for (ObjectId o = 0; o < num_objects; ++o) {
      const NodeId from = rng.below(fx.graph.num_nodes());
      dist.query(from, o, [&, o](const QueryResult& r) {
        ++queries_answered;
        EXPECT_TRUE(r.found);
        EXPECT_EQ(r.proxy, dist.physical_position(o));
      });
    }
    sim.run();
  }
  dist.validate_quiescent();
  EXPECT_EQ(queries_answered, 3 * num_objects);
  EXPECT_EQ(dist.inflight_operations(), 0u);
  EXPECT_EQ(dist.pending_transfers(), 0u);
  EXPECT_GT(channel.stats().dropped, 0u);
  EXPECT_GT(channel.stats().duplicated, 0u);
  EXPECT_GT(channel.stats().delayed, 0u);
}

TEST(FaultTolerance, DeterministicReplayProducesIdenticalStats) {
  // A (plan, seed) pair fully determines the run: protocol stats, meter
  // distance, and final placement all replay bit-identically.
  const auto run = [](bool faulty) {
    const Fixture fx;
    Simulator sim;
    FaultPlan plan;
    if (faulty) plan.set_default_faults(lossy(0.2, 0.1, 0.3, 5.0));
    UnreliableChannel channel(plan, 31337);
    DistributedMot dist(*fx.provider, sim, fx.chain_options);
    dist.use_channel(&channel);

    Rng rng(5);
    const std::size_t num_objects = 20;
    for (ObjectId o = 0; o < num_objects; ++o) {
      dist.publish(o, rng.below(fx.graph.num_nodes()));
    }
    sim.run();
    for (int round = 0; round < 2; ++round) {
      for (ObjectId o = 0; o < num_objects; ++o) {
        dist.move(o, rng.below(fx.graph.num_nodes()));
        dist.query(rng.below(fx.graph.num_nodes()), o);
      }
      sim.run();
    }
    dist.validate_quiescent();
    return std::tuple{dist.stats(), dist.meter().total_distance(),
                      dist.load_per_node()};
  };

  EXPECT_EQ(run(false), run(false));
  EXPECT_EQ(run(true), run(true));
  EXPECT_NE(std::get<0>(run(true)), std::get<0>(run(false)));
}

// ---------------------------------------------------------------------------
// Crash-stop recovery
// ---------------------------------------------------------------------------

// A non-root sensor whose roles store chain entries but which hosts no
// object physically — a safe, interesting crash victim.
NodeId pick_victim(const DistributedMot& dist, const MotPathProvider& provider,
                   std::size_t num_nodes, std::size_t num_objects) {
  for (NodeId v = 0; v < num_nodes; ++v) {
    if (provider.root_stop().node == v) continue;
    bool hosts_object = false;
    for (ObjectId o = 0; o < num_objects; ++o) {
      if (dist.physical_position(o) == v) hosts_object = true;
    }
    if (hosts_object) continue;
    if (!dist.objects_through(v).empty()) return v;
  }
  ADD_FAILURE() << "no eligible crash victim";
  return kInvalidNode;
}

TEST(CrashRecovery, QuiescentCrashSplicesChainsAndQueriesStillResolve) {
  const Fixture fx;
  Simulator sim;
  FaultPlan plan;
  UnreliableChannel channel(plan, 8);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);

  const std::size_t num_objects = 12;
  Rng rng(23);
  for (ObjectId o = 0; o < num_objects; ++o) {
    dist.publish(o, rng.below(fx.graph.num_nodes()));
  }
  sim.run();

  const NodeId victim =
      pick_victim(dist, *fx.provider, fx.graph.num_nodes(), num_objects);
  const std::size_t chained = dist.objects_through(victim).size();
  ASSERT_GT(chained, 0u);
  channel.crash_now(victim);

  EXPECT_EQ(dist.stats().crash_recoveries, 1u);
  EXPECT_GE(dist.stats().chain_splices, chained);
  EXPECT_TRUE(dist.objects_through(victim).empty());
  dist.validate_quiescent();

  // The structure keeps working: moves and queries all over the grid.
  std::size_t answered = 0;
  for (ObjectId o = 0; o < num_objects; ++o) {
    NodeId to = rng.below(fx.graph.num_nodes());
    while (to == victim) to = rng.below(fx.graph.num_nodes());
    dist.move(o, to);
    NodeId from = rng.below(fx.graph.num_nodes());
    while (from == victim) from = rng.below(fx.graph.num_nodes());
    dist.query(from, o, [&, o](const QueryResult& r) {
      ++answered;
      EXPECT_EQ(r.proxy, dist.physical_position(o));
    });
  }
  sim.run();
  dist.validate_quiescent();
  EXPECT_EQ(answered, num_objects);
}

TEST(CrashRecovery, MidFlightCrashRebuildsDamagedObjects) {
  // Crash a chain sensor while maintenance, queries, and a publish are in
  // flight over a lossy channel — the hardest case: in-flight walkers die
  // with the victim and must be rebuilt or restarted.
  const Fixture fx;
  Simulator sim;
  FaultPlan plan;
  plan.set_default_faults(lossy(0.1, 0.05, 0.2, 4.0));
  UnreliableChannel channel(plan, 77);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);

  const std::size_t num_objects = 10;
  Rng rng(29);
  for (ObjectId o = 0; o < num_objects; ++o) {
    dist.publish(o, rng.below(fx.graph.num_nodes()));
  }
  sim.run();
  const NodeId victim =
      pick_victim(dist, *fx.provider, fx.graph.num_nodes(), num_objects);

  std::size_t moves_done = 0;
  std::size_t answered = 0;
  for (ObjectId o = 0; o < num_objects; ++o) {
    NodeId to = rng.below(fx.graph.num_nodes());
    while (to == victim) to = rng.below(fx.graph.num_nodes());
    dist.move(o, to, [&moves_done](const MoveResult&) { ++moves_done; });
    NodeId from = rng.below(fx.graph.num_nodes());
    while (from == victim) from = rng.below(fx.graph.num_nodes());
    dist.query(from, o, [&, o](const QueryResult& r) {
      ++answered;
      EXPECT_EQ(r.proxy, dist.physical_position(o));
    });
  }
  // A fresh publish that will climb straight through the crash.
  dist.publish(num_objects, victim == 0 ? 1 : 0);
  sim.schedule(2.0, [&channel, victim] { channel.crash_now(victim); });
  sim.run();

  EXPECT_EQ(dist.stats().crash_recoveries, 1u);
  EXPECT_EQ(moves_done, num_objects);
  EXPECT_EQ(answered, num_objects);
  EXPECT_EQ(dist.inflight_operations(), 0u);
  dist.validate_quiescent();

  // Every object is findable afterwards, including the fresh publish.
  std::size_t post = 0;
  for (ObjectId o = 0; o <= num_objects; ++o) {
    NodeId from = rng.below(fx.graph.num_nodes());
    while (from == victim) from = rng.below(fx.graph.num_nodes());
    dist.query(from, o, [&, o](const QueryResult& r) {
      ++post;
      EXPECT_EQ(r.proxy, dist.physical_position(o));
    });
  }
  sim.run();
  dist.validate_quiescent();
  EXPECT_EQ(post, num_objects + 1);
}

TEST(CrashRecovery, QueriesFromTheDeadNodeAreAborted) {
  const Fixture fx;
  Simulator sim;
  FaultPlan plan;
  plan.set_default_faults(lossy(0.0, 0.0, 1.0, 20.0));  // slow everything
  UnreliableChannel channel(plan, 13);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);

  dist.publish(0, 0);
  sim.run();
  NodeId origin = 42;  // any live non-root sensor away from the object
  while (origin == fx.provider->root_stop().node) ++origin;
  bool completed = false;
  dist.query(origin, 0, [&completed](const QueryResult&) { completed = true; });
  sim.schedule(1.0, [&channel, origin] { channel.crash_now(origin); });
  sim.run();

  EXPECT_FALSE(completed);  // the requester died; no one to answer
  EXPECT_EQ(dist.stats().queries_aborted, 1u);
  EXPECT_EQ(dist.inflight_operations(), 0u);
  dist.validate_quiescent();
}

// ---------------------------------------------------------------------------
// Partitions
// ---------------------------------------------------------------------------

TEST(Partition, PlannedWindowCutsBothDirectionsAndHeals) {
  FaultPlan plan;
  plan.add_partition(10.0, 20.0, {0}, {1});
  Simulator sim;
  UnreliableChannel channel(plan, 1);
  channel.arm(sim);

  EXPECT_FALSE(channel.link_blocked(0.0, 0, 1));
  int delivered = 0;
  sim.schedule(15.0, [&] {
    EXPECT_TRUE(channel.link_blocked(sim.now(), 0, 1));
    EXPECT_TRUE(channel.link_blocked(sim.now(), 1, 0));
    channel.transmit(sim, 0, 1, 1.0, [&delivered] { ++delivered; });
  });
  sim.run();
  EXPECT_FALSE(channel.link_blocked(sim.now(), 0, 1));  // healed at 20
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(channel.stats().partition_blocked, 1u);
  EXPECT_EQ(channel.stats().partitions_cut, 1u);
  EXPECT_EQ(channel.stats().partitions_healed, 1u);
}

TEST(Partition, CutSeversInFlightCopiesAndTheLedgerStillBalances) {
  FaultPlan plan;
  Simulator sim;
  UnreliableChannel channel(plan, 3);
  int delivered = 0;
  channel.transmit(sim, 0, 1, 8.0, [&delivered] { ++delivered; });
  const std::uint64_t cut = channel.cut_now({0}, {1});
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(channel.stats().severed_in_flight, 1u);
  EXPECT_TRUE(channel.stats().conserved());

  channel.heal_now(cut);
  channel.transmit(sim, 0, 1, 8.0, [&delivered] { ++delivered; });
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(channel.stats().conserved());
}

TEST(ChannelStats, ConservationHoldsUnderHeavyDuplicationAndLoss) {
  FaultPlan plan;
  plan.set_default_faults(lossy(0.9, 1.0, 0.5, 4.0));
  Simulator sim;
  UnreliableChannel channel(plan, 17);
  std::uint64_t delivered = 0;
  for (int i = 0; i < 300; ++i) {
    channel.transmit(sim, 0, 1, 1.0, [&delivered] { ++delivered; });
  }
  const ChannelStats& cs = channel.stats();
  EXPECT_TRUE(cs.conserved());  // the identity holds mid-flight too
  sim.run();
  EXPECT_TRUE(cs.conserved());
  EXPECT_EQ(cs.in_flight, 0u);
  EXPECT_EQ(cs.transmissions, 300u);
  EXPECT_GT(cs.duplicated, 0u);
  EXPECT_GT(cs.dropped, 0u);
  EXPECT_EQ(cs.delivered, delivered);
}

// Regression for retransmission behaviour across a long-lived cut: the
// carrier-sense check parks resends instead of letting timeouts hammer a
// severed link, and the parked backlog drains to completion once the
// partition heals — thousands of ticks later.
TEST(Partition, LongPartitionSuppressesResendsAndDrainsAfterHeal) {
  const Fixture fx;
  Simulator sim;
  FaultPlan plan;
  UnreliableChannel channel(plan, 5);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);

  dist.publish(0, 0);
  sim.run();

  std::vector<NodeId> west;
  std::vector<NodeId> east;
  for (NodeId v = 0; v < 64; ++v) (v < 32 ? west : east).push_back(v);
  const std::uint64_t cut = channel.cut_now(west, east);

  bool moved = false;
  dist.move(0, 63, [&moved](const MoveResult&) { moved = true; });
  sim.run_until(sim.now() + 5000.0);
  EXPECT_FALSE(moved);  // the destination is across the cut
  EXPECT_GT(dist.stats().retransmits_suppressed, 0u);
  // Suppressed resends never hit the wire: actual retransmissions stay
  // bounded no matter how long the partition lasts.
  EXPECT_LT(dist.stats().retransmissions, 100u);

  channel.heal_now(cut);
  sim.run();
  EXPECT_TRUE(moved);
  EXPECT_EQ(dist.physical_position(0), 63u);
  dist.validate_quiescent();

  bool answered = false;
  dist.query(5, 0, [&answered](const QueryResult& r) {
    answered = true;
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.proxy, 63u);
  });
  sim.run();
  EXPECT_TRUE(answered);
  EXPECT_TRUE(channel.stats().conserved());
}

// ---------------------------------------------------------------------------
// Query resilience: crashes and partitions racing live queries
// ---------------------------------------------------------------------------

TEST(QueryResilience, CrashOnTheChainDuringAQueryStillTerminates) {
  const Fixture fx;
  Simulator sim;
  FaultPlan plan;
  plan.set_default_faults(lossy(0.0, 0.0, 1.0, 16.0));  // slow every hop
  UnreliableChannel channel(plan, 23);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);

  dist.publish(0, 0);
  sim.run();

  const NodeId root = fx.provider->root_stop().node;
  NodeId victim = kInvalidNode;
  for (NodeId v = 1; v < 64 && victim == kInvalidNode; ++v) {
    if (v == root || v == 63) continue;
    if (!dist.objects_through(v).empty()) victim = v;
  }
  ASSERT_NE(victim, kInvalidNode);

  bool answered = false;
  QueryResult result;
  dist.query(63, 0, [&](const QueryResult& r) {
    answered = true;
    result = r;
  });
  sim.schedule(2.0, [&channel, victim] { channel.crash_now(victim); });
  sim.run();

  EXPECT_TRUE(answered);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.proxy, 0u);
  EXPECT_EQ(dist.inflight_operations(), 0u);
  dist.validate_quiescent();
}

// A query is issued, the network splits between its origin and the
// object, and the proxy migrates while the cut is open. The query must
// terminate after the heal with the object's settled position.
TEST(QueryResilience, PartitionHealRaceWithSequentialIssue) {
  const Fixture fx;
  Simulator sim;
  FaultPlan plan;
  UnreliableChannel channel(plan, 29);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);

  dist.publish(0, 4);  // west half
  sim.run();

  bool answered = false;
  QueryResult result;
  dist.query(60, 0, [&](const QueryResult& r) {  // east origin
    answered = true;
    result = r;
  });
  sim.run_until(sim.now() + 3.0);  // walker mid-flight when the cut lands

  std::vector<NodeId> west;
  std::vector<NodeId> east;
  for (NodeId v = 0; v < 64; ++v) (v < 32 ? west : east).push_back(v);
  const std::uint64_t cut = channel.cut_now(west, east);

  bool moved = false;
  dist.move(0, 9, [&moved](const MoveResult&) { moved = true; });
  sim.run_until(sim.now() + 600.0);
  channel.heal_now(cut);
  sim.run();

  EXPECT_TRUE(moved);
  EXPECT_TRUE(answered);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.proxy, dist.physical_position(0));
  dist.validate_quiescent();
}

TEST(QueryResilience, PartitionHealRaceWithOverlappedIssue) {
  const Fixture fx;
  Simulator sim;
  FaultPlan plan;
  UnreliableChannel channel(plan, 37);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);

  dist.publish(0, 4);
  sim.run();

  // Query and move issued back-to-back — the concurrent shape — and the
  // cut lands while both are in flight.
  bool answered = false;
  QueryResult result;
  dist.query(60, 0, [&](const QueryResult& r) {
    answered = true;
    result = r;
  });
  bool moved = false;
  dist.move(0, 9, [&moved](const MoveResult&) { moved = true; });
  sim.run_until(sim.now() + 2.0);

  std::vector<NodeId> west;
  std::vector<NodeId> east;
  for (NodeId v = 0; v < 64; ++v) (v < 32 ? west : east).push_back(v);
  const std::uint64_t cut = channel.cut_now(west, east);
  sim.run_until(sim.now() + 600.0);
  channel.heal_now(cut);
  sim.run();

  EXPECT_TRUE(moved);
  EXPECT_TRUE(answered);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.proxy, dist.physical_position(0));
  dist.validate_quiescent();
}

// ---------------------------------------------------------------------------
// Query policy: deadlines, retries, hedging, replica failover
// ---------------------------------------------------------------------------

TEST(QueryPolicy, DeadlineRetriesThenAbortsAcrossAnIsolation) {
  const Fixture fx;
  Simulator sim;
  FaultPlan plan;
  UnreliableChannel channel(plan, 31);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);
  proto::QueryPolicy policy;
  policy.deadline = 50.0;
  policy.max_attempts = 3;
  policy.backoff = 2.0;
  dist.set_query_policy(policy);

  dist.publish(0, 0);
  sim.run();

  const NodeId origin = 63;
  std::vector<NodeId> rest;
  for (NodeId v = 0; v < 64; ++v) {
    if (v != origin) rest.push_back(v);
  }
  const std::uint64_t cut = channel.cut_now({origin}, rest);

  bool answered = false;
  QueryResult result;
  dist.query(origin, 0, [&](const QueryResult& r) {
    answered = true;
    result = r;
  });
  // Attempt deadlines 50 + 100 + 200 with slack: the budget exhausts
  // while the origin is still cut off.
  sim.run_until(sim.now() + 1000.0);
  EXPECT_TRUE(answered);
  EXPECT_FALSE(result.found);  // aborted explicitly, not hung
  EXPECT_EQ(dist.stats().queries_retried, 2u);
  EXPECT_EQ(dist.stats().queries_deadline_aborted, 1u);
  EXPECT_GT(dist.stats().retransmits_suppressed, 0u);

  channel.heal_now(cut);
  sim.run();
  dist.validate_quiescent();
  EXPECT_TRUE(channel.stats().conserved());
}

TEST(QueryPolicy, HedgedDuplicateWalkerAnswersExactlyOnce) {
  const Fixture fx;
  Simulator sim;
  FaultPlan plan;
  plan.set_default_faults(lossy(0.0, 0.0, 1.0, 8.0));  // slow enough to hedge
  UnreliableChannel channel(plan, 43);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);
  proto::QueryPolicy policy;
  policy.hedge_delay = 2.0;
  dist.set_query_policy(policy);

  dist.publish(0, 0);
  sim.run();

  int answers = 0;
  QueryResult result;
  dist.query(63, 0, [&](const QueryResult& r) {
    ++answers;
    result = r;
  });
  sim.run();

  // First reply wins; the loser's frames are garbage-collected at win
  // time (or dropped as stale if one already landed) — either way the
  // callback fires exactly once and nothing lingers.
  EXPECT_EQ(answers, 1);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.proxy, 0u);
  EXPECT_EQ(dist.stats().queries_hedged, 1u);
  EXPECT_EQ(dist.inflight_operations(), 0u);
  dist.validate_quiescent();
}

TEST(QueryPolicy, ReplicaFailoverAnswersAcrossAnIsolatedChainNode) {
  const Fixture fx;
  Simulator sim;
  FaultPlan plan;
  UnreliableChannel channel(plan, 41);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);
  dist.replicate_detection_lists(true);

  dist.publish(0, 0);
  sim.run();

  const NodeId root = fx.provider->root_stop().node;
  NodeId victim = kInvalidNode;
  for (NodeId v = 1; v < 64 && victim == kInvalidNode; ++v) {
    if (v == root || v == 63) continue;
    if (!dist.objects_through(v).empty()) victim = v;
  }
  ASSERT_NE(victim, kInvalidNode);

  std::vector<NodeId> rest;
  for (NodeId v = 0; v < 64; ++v) {
    if (v != victim) rest.push_back(v);
  }
  const std::uint64_t cut = channel.cut_now({victim}, rest);

  bool answered = false;
  QueryResult result;
  dist.query(63, 0, [&](const QueryResult& r) {
    answered = true;
    result = r;
  });
  sim.run_until(sim.now() + 2000.0);

  // The walker reads the isolated hop's replicated detection list and
  // answers without waiting for the heal.
  EXPECT_TRUE(answered);
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.proxy, 0u);
  EXPECT_GT(dist.stats().query_failovers, 0u);

  channel.heal_now(cut);
  sim.run();
  dist.validate_quiescent();
}

// ---------------------------------------------------------------------------
// Retransmission backoff edges
// ---------------------------------------------------------------------------

TEST(Retransmission, BackoffCapHoldsThroughALossyPartitionWindow) {
  // A lossy wire drives per-frame backoff toward its cap before the cut
  // lands; the cut then parks resends via carrier sense. Neither side of
  // the combination may wedge the sender: the parked frames keep their
  // capped (finite) timers and the move completes promptly after heal.
  const Fixture fx;
  Simulator sim;
  FaultPlan plan;
  plan.set_default_faults(lossy(0.6, 0.0));
  UnreliableChannel channel(plan, 21);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);

  dist.publish(0, 0);
  sim.run();
  const std::uint64_t warmup = dist.stats().retransmissions;
  EXPECT_GT(warmup, 0u);  // the loss rate is biting

  std::vector<NodeId> west;
  std::vector<NodeId> east;
  for (NodeId v = 0; v < 64; ++v) (v < 32 ? west : east).push_back(v);
  const std::uint64_t cut = channel.cut_now(west, east);

  bool moved = false;
  dist.move(0, 63, [&moved](const MoveResult&) { moved = true; });
  sim.run_until(sim.now() + 20000.0);
  EXPECT_FALSE(moved);
  EXPECT_GT(dist.stats().retransmits_suppressed, 0u);
  // Suppressed wakeups burn no attempts: even a 20000-tick cut on a
  // lossy wire stays far from the attempts cap (which MOT_CHECKs), and
  // on-wire retransmissions stay bounded by the pre-cut traffic.
  EXPECT_LT(dist.stats().retransmissions, warmup + 200u);

  channel.heal_now(cut);
  sim.run();
  EXPECT_TRUE(moved);
  EXPECT_EQ(dist.physical_position(0), 63u);
  dist.validate_quiescent();
  EXPECT_TRUE(channel.stats().conserved());
}

TEST(Retransmission, OpenBreakerParksFutileRetriesUntilItsProbeCloses) {
  // With the service model attached, consecutive genuine timeouts trip
  // the per-link breaker; while it is open, further resends toward that
  // link are parked (breaker_suppressed) instead of hammering a wire
  // that just demonstrated it is black-holing frames. Half-open probes
  // eventually close the breaker and everything still completes.
  const Fixture fx;
  Simulator sim;
  FaultPlan plan;
  plan.set_default_faults(lossy(0.45, 0.0));
  UnreliableChannel channel(plan, 11);
  DistributedMot dist(*fx.provider, sim, fx.chain_options);
  dist.use_channel(&channel);
  overload::OverloadConfig cfg;
  cfg.service_rate = 8.0;
  cfg.queue_capacity = 64;
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = 8.0;
  cfg.seed = 5;
  ServiceModel service(sim, fx.graph.num_nodes(), cfg);
  dist.use_overload(&service);

  Rng rng(23);
  for (ObjectId o = 0; o < 4; ++o) {
    dist.publish(o, rng.below(fx.graph.num_nodes()));
  }
  sim.run();
  std::size_t answered = 0;
  for (int i = 0; i < 24; ++i) {
    dist.query(rng.below(fx.graph.num_nodes()),
               static_cast<ObjectId>(i % 4),
               [&answered](const QueryResult& r) {
                 ++answered;
                 EXPECT_TRUE(r.found);
               });
  }
  sim.run();
  EXPECT_EQ(answered, 24u);
  const ProtocolStats& stats = dist.stats();
  EXPECT_GT(stats.breaker_trips, 0u);
  EXPECT_GT(stats.breaker_suppressed, 0u);  // futile retries parked
  EXPECT_GT(stats.breaker_closes, 0u);      // and the links came back
  EXPECT_TRUE(dist.invariant_violations().empty());
}

TEST(Retransmission, RetransmitRacingItsOwnAckIsDeduplicated) {
  // Every copy (data and ack alike) is delayed by up to 10 ticks while
  // single-hop RTOs are ~3: frames routinely time out and resend while
  // their original — or its ack — is still in flight. The receiver-side
  // dedup must make the race harmless: effects apply exactly once and
  // costs match the centralized engine step for step — also when a
  // service model queues admitted frames before their handlers run.
  const Fixture fx;
  for (const bool with_service : {false, true}) {
    SCOPED_TRACE(with_service ? "service model" : "direct delivery");
    ChainTracker central("seq", *fx.provider, fx.chain_options);
    Simulator sim;
    FaultPlan plan;
    plan.set_default_faults(lossy(0.0, 0.0, /*delay=*/1.0,
                                  /*max_extra_delay=*/10.0));
    UnreliableChannel channel(plan, 31);
    DistributedMot dist(*fx.provider, sim, fx.chain_options);
    dist.use_channel(&channel);
    std::unique_ptr<ServiceModel> service;
    if (with_service) {
      overload::OverloadConfig cfg;  // ample capacity: queueing, no sheds
      cfg.seed = 5;
      service = std::make_unique<ServiceModel>(sim, fx.graph.num_nodes(),
                                               cfg);
      dist.use_overload(service.get());
    }

    central.publish(0, 0);
    dist.publish(0, 0);
    sim.run();

    Rng rng(9);
    NodeId at = 0;
    for (int i = 0; i < 40; ++i) {
      const auto neighbors = fx.graph.neighbors(at);
      at = neighbors[rng.below(neighbors.size())].to;
      const MoveResult expected = central.move(0, at);
      MoveResult actual;
      dist.move(0, at, [&actual](const MoveResult& r) { actual = r; });
      sim.run();
      ASSERT_DOUBLE_EQ(actual.cost, expected.cost) << "step " << i;
    }
    EXPECT_GT(dist.stats().retransmissions, 0u);       // the race happened
    EXPECT_GT(dist.stats().duplicates_suppressed, 0u); // and was absorbed
    EXPECT_EQ(dist.proxy_of(0), central.proxy_of(0));
    EXPECT_EQ(dist.load_per_node(), central.load_per_node());
    dist.validate_quiescent();
  }
}

}  // namespace
}  // namespace mot
