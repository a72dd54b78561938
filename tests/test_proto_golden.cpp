// Golden digests of the distributed runtime: one FNV-1a digest per
// delivery configuration over everything the runtime reports — every
// ProtocolStats field, the cost-meter totals, every MoveResult and
// QueryResult in completion order, and the link-layer event stream
// (kMsgSend / kAck / kRetransmit / kDuplicate / kShed) from a ring sink.
// A refactor of the send, link-layer or walker-start paths must leave
// every digest unchanged: the values pin what the runtime sends, charges
// and traces, hop by hop.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <thread>
#include <tuple>
#include <vector>

#include "adapt/adaptive.hpp"
#include "core/mot.hpp"
#include "faults/fault_plan.hpp"
#include "faults/unreliable_channel.hpp"
#include "graph/generators.hpp"
#include "hier/doubling_hierarchy.hpp"
#include "net/router.hpp"
#include "netio/cluster.hpp"
#include "obs/trace.hpp"
#include "proto/distributed_mot.hpp"
#include "sim/service_model.hpp"
#include "util/rng.hpp"

namespace mot {
namespace {

using proto::DistributedMot;
using proto::ProtocolStats;

struct Fixture {
  explicit Fixture(std::size_t side = 8)
      : graph(make_grid(side, side)), oracle(make_distance_oracle(graph)) {
    DoublingHierarchy::Params hp;
    hp.seed = 7;
    hierarchy = DoublingHierarchy::build(graph, *oracle, hp);
    MotOptions options;
    options.use_parent_sets = false;
    options.use_special_parents = true;
    provider = std::make_unique<MotPathProvider>(*hierarchy, options);
    chain_options = make_mot_chain_options(options);
  }

  Graph graph;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<DoublingHierarchy> hierarchy;
  std::unique_ptr<MotPathProvider> provider;
  ChainOptions chain_options;
};

// FNV-1a over 64-bit words, byte by byte (little-endian order).
struct Fnv {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  void add_double(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add_str(const char* text) {
    if (text == nullptr) {
      add(~std::uint64_t{0});
      return;
    }
    add(std::strlen(text));
    for (const char* c = text; *c != '\0'; ++c) {
      add(static_cast<unsigned char>(*c));
    }
  }
};

void add_stats(Fnv& fnv, const ProtocolStats& s) {
  for (const std::uint64_t v :
       {s.messages_sent, s.physical_hops, s.messages_coalesced,
        s.batch_flushes, s.publishes_completed, s.moves_completed,
        s.queries_completed, s.queries_parked, s.queries_redirected,
        s.queries_restarted, s.data_sent, s.retransmissions, s.acks_sent,
        s.duplicates_suppressed, s.ack_rtt_count, s.crash_recoveries,
        s.chain_splices, s.objects_rebuilt, s.queries_rescued,
        s.queries_aborted, s.queries_retried, s.queries_hedged,
        s.queries_deadline_aborted, s.query_failovers, s.replica_updates,
        s.stale_query_drops, s.stale_maintenance_drops,
        s.retransmits_suppressed, s.messages_shed, s.queries_degraded,
        s.sibling_redirects, s.credit_stalls, s.breaker_trips,
        s.breaker_probes, s.breaker_closes, s.breaker_suppressed,
        s.window_increases, s.window_decreases, s.divert_attempts,
        s.tuner_steps, s.replicas_placed, s.replicas_retired}) {
    fnv.add(v);
  }
  fnv.add_double(s.ack_rtt_sum);
  fnv.add_double(s.transport_distance);
  fnv.add_double(s.recovery_distance);
}

void add_meter(Fnv& fnv, const CostMeter& meter) {
  fnv.add_double(meter.total_distance());
  fnv.add(meter.total_messages());
}

void add_move(Fnv& fnv, const MoveResult& r) {
  fnv.add(0x6d6f7665u);  // "move"
  fnv.add_double(r.cost);
  fnv.add(static_cast<std::uint64_t>(r.peak_level));
}

void add_query(Fnv& fnv, const QueryResult& r) {
  fnv.add(0x71757279u);  // "qury"
  fnv.add(r.found ? 1 : 0);
  fnv.add(r.proxy);
  fnv.add_double(r.cost);
  fnv.add(static_cast<std::uint64_t>(r.found_level));
  fnv.add(r.degraded ? 1 : 0);
  fnv.add_double(r.staleness_bound);
}

bool is_link_event(obs::Ev type) {
  return type == obs::Ev::kMsgSend || type == obs::Ev::kAck ||
         type == obs::Ev::kRetransmit || type == obs::Ev::kDuplicate ||
         type == obs::Ev::kShed;
}

void add_event(Fnv& fnv, const obs::TraceEvent& e, bool with_time) {
  fnv.add(static_cast<std::uint64_t>(e.type));
  if (with_time) fnv.add_double(e.t);
  fnv.add(e.object);
  fnv.add(e.from);
  fnv.add(e.to);
  fnv.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.level)));
  fnv.add_double(e.dist);
  fnv.add_double(e.charged);
  fnv.add(e.aux);
  fnv.add(e.trace);
  fnv.add(e.span);
  fnv.add(e.parent);
  fnv.add_str(e.label);
}

// Hashes the link-layer events of a single-threaded run in emission
// order and returns how many there were.
std::size_t add_events(Fnv& fnv, const obs::RingBufferSink& sink) {
  std::size_t count = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    if (!is_link_event(e.type)) continue;
    add_event(fnv, e, /*with_time=*/true);
    ++count;
  }
  fnv.add(count);
  return count;
}

// Installs a ring sink for one run and restores the previous one.
struct ScopedRing {
  ScopedRing() : previous(obs::install_trace_sink(&ring)) {}
  ~ScopedRing() { obs::install_trace_sink(previous); }
  obs::RingBufferSink ring{1 << 20};
  obs::TraceSink* previous;
};

std::string hex(std::uint64_t digest) {
  char text[32];
  std::snprintf(text, sizeof text, "0x%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

// Shared driver: publish `objects`, then `rounds` rounds in which every
// object takes one random grid step and `queries` locates follow from
// random origins. Results fold into `fnv` in completion order.
void drive(const Fixture& fx, DistributedMot& mot, Simulator& sim, Fnv& fnv,
           int objects, int rounds, int queries, std::uint64_t seed,
           bool overlap) {
  Rng rng(seed);
  const std::size_t n = fx.graph.num_nodes();
  std::vector<NodeId> at(objects);
  for (int o = 0; o < objects; ++o) {
    at[o] = static_cast<NodeId>(rng.below(n));
    mot.publish(static_cast<ObjectId>(o), at[o]);
  }
  sim.run();
  for (int r = 0; r < rounds; ++r) {
    for (int o = 0; o < objects; ++o) {
      const auto neighbors = fx.graph.neighbors(at[o]);
      at[o] = neighbors[rng.below(neighbors.size())].to;
      mot.move(static_cast<ObjectId>(o), at[o],
               [&fnv](const MoveResult& m) { add_move(fnv, m); });
    }
    if (!overlap) sim.run();
    for (int q = 0; q < queries; ++q) {
      mot.query(static_cast<NodeId>(rng.below(n)),
                static_cast<ObjectId>(rng.below(objects)),
                [&fnv](const QueryResult& res) { add_query(fnv, res); });
    }
    sim.run();
  }
}

std::uint64_t finish(Fnv& fnv, const DistributedMot& mot) {
  add_stats(fnv, mot.stats());
  add_meter(fnv, mot.meter());
  return fnv.hash;
}

TEST(DistributedMotGolden, Plain) {
  const Fixture fx;
  Fnv fnv;
  ScopedRing scope;
  Simulator sim;
  DistributedMot mot(*fx.provider, sim, fx.chain_options);
  drive(fx, mot, sim, fnv, /*objects=*/6, /*rounds=*/8, /*queries=*/4, 11,
        /*overlap=*/true);
  mot.validate_quiescent();
  EXPECT_GT(add_events(fnv, scope.ring), 0u);
  EXPECT_GT(mot.stats().queries_parked, 0u);
  const std::uint64_t digest = finish(fnv, mot);
  EXPECT_EQ(digest, 0x25f64ae248978a93ull) << hex(digest);
}

TEST(DistributedMotGolden, BatchedFleet) {
  const Fixture fx(12);
  Fnv fnv;
  ScopedRing scope;
  Simulator sim;
  DistributedMot mot(*fx.provider, sim, fx.chain_options);
  mot.use_batching(true);
  // A co-located fleet: every object starts on one node and steps
  // together, so climbs share edges and ride each other's frames.
  Rng rng(5);
  constexpr int kObjects = 12;
  NodeId at = 30;
  for (ObjectId o = 0; o < kObjects; ++o) mot.publish(o, at);
  sim.run();
  for (int r = 0; r < 10; ++r) {
    const auto neighbors = fx.graph.neighbors(at);
    at = neighbors[rng.below(neighbors.size())].to;
    for (ObjectId o = 0; o < kObjects; ++o) {
      mot.move(o, at, [&fnv](const MoveResult& m) { add_move(fnv, m); });
    }
    sim.run();
    for (int q = 0; q < 3; ++q) {
      mot.query(static_cast<NodeId>(rng.below(fx.graph.num_nodes())),
                static_cast<ObjectId>(rng.below(kObjects)),
                [&fnv](const QueryResult& res) { add_query(fnv, res); });
    }
    sim.run();
  }
  mot.validate_quiescent();
  EXPECT_GT(mot.stats().messages_coalesced, 0u);
  EXPECT_GT(add_events(fnv, scope.ring), 0u);
  const std::uint64_t digest = finish(fnv, mot);
  EXPECT_EQ(digest, 0x39af248728d129f0ull) << hex(digest);
}

TEST(DistributedMotGolden, Routed) {
  const Fixture fx;
  const ShortestPathRouter router(fx.graph);
  Fnv fnv;
  ScopedRing scope;
  Simulator sim;
  DistributedMot mot(*fx.provider, sim, fx.chain_options);
  mot.use_router(&router);
  drive(fx, mot, sim, fnv, 4, 8, 3, 17, /*overlap=*/false);
  mot.validate_quiescent();
  EXPECT_GT(mot.stats().physical_hops, 0u);
  EXPECT_GT(add_events(fnv, scope.ring), 0u);
  const std::uint64_t digest = finish(fnv, mot);
  EXPECT_EQ(digest, 0x3ffab9df40278c29ull) << hex(digest);
}

TEST(DistributedMotGolden, LossyHedgedReplicatedCrash) {
  const Fixture fx;
  Fnv fnv;
  ScopedRing scope;
  Simulator sim;
  faults::FaultPlan plan;
  faults::LinkFaults link;
  link.drop = 0.1;
  link.duplicate = 0.05;
  link.delay = 0.2;
  link.max_extra_delay = 4.0;
  plan.set_default_faults(link);
  faults::UnreliableChannel channel(plan, 77);
  DistributedMot mot(*fx.provider, sim, fx.chain_options);
  mot.use_channel(&channel);
  mot.replicate_detection_lists(true);
  proto::QueryPolicy policy;
  policy.deadline = 40.0;
  policy.max_attempts = 3;
  policy.hedge_delay = 3.0;
  mot.set_query_policy(policy);

  Rng rng(29);
  const std::size_t n = fx.graph.num_nodes();
  constexpr ObjectId kObjects = 8;
  for (ObjectId o = 0; o < kObjects; ++o) mot.publish(o, rng.below(n));
  sim.run();
  // A live, non-root sensor that hosts chain entries and no object.
  NodeId victim = kInvalidNode;
  for (NodeId v = static_cast<NodeId>(n); v-- > 0;) {
    if (v == fx.provider->root_stop().node) continue;
    bool occupied = false;
    for (ObjectId o = 0; o < kObjects; ++o) {
      occupied = occupied || mot.physical_position(o) == v;
    }
    if (!occupied && !mot.objects_through(v).empty()) {
      victim = v;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  const auto pick = [&] {
    NodeId v = static_cast<NodeId>(rng.below(n));
    while (v == victim) v = static_cast<NodeId>(rng.below(n));
    return v;
  };
  for (ObjectId o = 0; o < kObjects; ++o) {
    mot.move(o, pick(), [&fnv](const MoveResult& m) { add_move(fnv, m); });
    mot.query(pick(), o,
              [&fnv](const QueryResult& res) { add_query(fnv, res); });
  }
  mot.publish(kObjects, pick());
  sim.schedule(2.0, [&channel, victim] { channel.crash_now(victim); });
  sim.run();
  for (ObjectId o = 0; o <= kObjects; ++o) {
    mot.query(pick(), o,
              [&fnv](const QueryResult& res) { add_query(fnv, res); });
  }
  sim.run();
  mot.validate_quiescent();
  const ProtocolStats& s = mot.stats();
  EXPECT_EQ(s.crash_recoveries, 1u);
  EXPECT_GT(s.retransmissions, 0u);
  EXPECT_GT(s.duplicates_suppressed, 0u);
  EXPECT_GT(s.queries_hedged, 0u);
  EXPECT_GT(s.replica_updates, 0u);
  EXPECT_GT(add_events(fnv, scope.ring), 0u);
  const std::uint64_t digest = finish(fnv, mot);
  EXPECT_EQ(digest, 0xe2bd5ea7dc1736b6ull) << hex(digest);
}

TEST(DistributedMotGolden, OverloadAdaptivePlacedAtFourTimesLoad) {
  const Fixture fx;
  Fnv fnv;
  ScopedRing scope;
  Simulator sim;
  faults::FaultPlan plan;
  faults::LinkFaults link;
  link.drop = 0.05;
  link.duplicate = 0.05;
  plan.set_default_faults(link);
  faults::UnreliableChannel channel(plan, 41);
  overload::OverloadConfig config;
  config.service_rate = 0.5;
  config.queue_capacity = 8;
  config.degrade_fraction = 0.25;
  config.seed = 5;
  adapt::AdaptiveController controller(adapt::AdaptiveConfig{});
  DistributedMot mot(*fx.provider, sim, fx.chain_options);
  mot.use_channel(&channel);
  mot.replicate_placed();
  ServiceModel service(sim, fx.graph.num_nodes(), config);
  mot.use_overload(&service);
  mot.use_adaptive(&controller);

  Rng rng(13);
  const std::size_t n = fx.graph.num_nodes();
  constexpr ObjectId kObjects = 4;
  std::vector<NodeId> at(kObjects);
  for (ObjectId o = 0; o < kObjects; ++o) {
    at[o] = static_cast<NodeId>(rng.below(n));
    mot.publish(o, at[o]);
  }
  sim.run();
  // Base load is 8 locates per epoch on the hot object; this runs 4x.
  constexpr int kBaseFlood = 8;
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (ObjectId o = 0; o < kObjects; ++o) {
      const auto neighbors = fx.graph.neighbors(at[o]);
      at[o] = neighbors[rng.below(neighbors.size())].to;
      mot.move(o, at[o], [&fnv](const MoveResult& m) { add_move(fnv, m); });
    }
    for (int q = 0; q < 4 * kBaseFlood; ++q) {
      mot.query(static_cast<NodeId>(rng.below(n)), /*object=*/0,
                [&fnv](const QueryResult& res) { add_query(fnv, res); });
    }
    sim.run();
    mot.adaptive_step();
  }
  EXPECT_TRUE(mot.invariant_violations().empty());
  const ProtocolStats& s = mot.stats();
  EXPECT_GT(s.messages_shed, 0u);
  EXPECT_GT(s.duplicates_suppressed, 0u);
  EXPECT_GT(s.retransmissions, 0u);
  EXPECT_GT(s.credit_stalls, 0u);
  EXPECT_GT(add_events(fnv, scope.ring), 0u);
  const std::uint64_t digest = finish(fnv, mot);
  EXPECT_EQ(digest, 0x1cfe3c035ec7d89bull) << hex(digest);
}

TEST(DistributedMotGolden, ThreadedTwoShardCluster) {
  constexpr std::uint32_t kShards = 2;
  constexpr ObjectId kObject = 0;
  constexpr NodeId kStart = 12;
  Fnv fnv;
  std::vector<std::tuple<ProtocolStats, Weight, std::uint64_t>> shards(
      kShards);
  std::vector<obs::TraceEvent> events;
  {
    ScopedRing scope;
    netio::ClusterCoordinator coordinator(kShards);
    ASSERT_TRUE(coordinator.open());
    const std::uint16_t port = coordinator.port();
    std::vector<std::thread> threads;
    std::vector<int> rcs(kShards, -1);
    for (std::uint32_t shard = 0; shard < kShards; ++shard) {
      threads.emplace_back([shard, port, &rcs, &shards] {
        const Fixture fx;
        Simulator sim;
        DistributedMot mot(*fx.provider, sim, fx.chain_options);
        netio::WorkerConfig config;
        config.shard = shard;
        config.num_shards = kShards;
        config.coordinator_port = port;
        netio::ShardWorker worker(config, *fx.provider, sim, mot);
        rcs[shard] = worker.run();
        shards[shard] = {mot.stats(), mot.meter().total_distance(),
                         mot.meter().total_messages()};
      });
    }
    ASSERT_TRUE(coordinator.bootstrap());
    ASSERT_TRUE(coordinator.publish(kObject, kStart));
    const Fixture fx;
    Rng rng(0xc1u);
    NodeId at = kStart;
    for (int i = 0; i < 20; ++i) {
      const auto neighbors = fx.graph.neighbors(at);
      at = neighbors[rng.below(neighbors.size())].to;
      const auto moved = coordinator.move(kObject, at);
      ASSERT_TRUE(moved.has_value());
      add_move(fnv, {moved->cost, moved->peak_level});
      const auto answered = coordinator.query(
          static_cast<NodeId>(rng.below(fx.graph.num_nodes())), kObject);
      ASSERT_TRUE(answered.has_value());
      add_query(fnv, {answered->found, answered->proxy, answered->cost,
                      answered->found_level, answered->degraded,
                      answered->staleness});
    }
    coordinator.shutdown();
    for (auto& thread : threads) thread.join();
    for (std::uint32_t shard = 0; shard < kShards; ++shard) {
      ASSERT_EQ(rcs[shard], 0) << "shard " << shard;
    }
    ASSERT_EQ(scope.ring.dropped(), 0u);
    events = scope.ring.events();
  }
  for (const auto& [stats, distance, messages] : shards) {
    add_stats(fnv, stats);
    fnv.add_double(distance);
    fnv.add(messages);
  }
  // Shard threads interleave into the shared ring, and each shard's
  // simulator clock depends on frame arrival batching: hash the events
  // in a canonical order and without their timestamps.
  std::erase_if(events, [](const obs::TraceEvent& e) {
    return !is_link_event(e.type);
  });
  const auto key = [](const obs::TraceEvent& e) {
    return std::make_tuple(e.trace, e.span, e.parent, e.from, e.to,
                           static_cast<int>(e.type), e.level, e.object,
                           std::string(e.label == nullptr ? "" : e.label));
  };
  std::sort(events.begin(), events.end(),
            [&key](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return key(a) < key(b);
            });
  ASSERT_FALSE(events.empty());
  for (const obs::TraceEvent& e : events) add_event(fnv, e, false);
  fnv.add(events.size());
  EXPECT_EQ(fnv.hash, 0x7a7817d52c9318a8ull) << hex(fnv.hash);
}

}  // namespace
}  // namespace mot
