// Shared threaded loopback-cluster harness for the micro benches
// (micro_obs, micro_throughput): one deterministic grid world and a
// timed cluster run of coordinator + one ShardWorker thread per shard
// over real TCP sockets.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/mot.hpp"
#include "graph/generators.hpp"
#include "hier/doubling_hierarchy.hpp"
#include "netio/cluster.hpp"
#include "proto/distributed_mot.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mot::bench {

// A side x side grid with its doubling hierarchy and the MOT options
// (special parents on, parent sets off), built from `hierarchy_seed`.
// Every engine builds its own MotPathProvider from these: a provider
// fills its caches lazily without locking, so threads must not share
// one (the hierarchy and the oracle underneath are safe to share).
struct World {
  explicit World(std::size_t side, std::uint64_t hierarchy_seed)
      : graph(make_grid(side, side)), oracle(make_distance_oracle(graph)) {
    DoublingHierarchy::Params hp;
    hp.seed = hierarchy_seed;
    hierarchy = DoublingHierarchy::build(graph, *oracle, hp);
    options.use_parent_sets = false;
    options.use_special_parents = true;
    chain_options = make_mot_chain_options(options);
  }

  Graph graph;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<DoublingHierarchy> hierarchy;
  MotOptions options;
  ChainOptions chain_options;
};

// One threaded cluster run (the test harness shape: worker threads +
// in-thread coordinator over real loopback sockets): publish + steps x
// (move + query), returns wall seconds. The walk and the query origins
// come from `stream` of SeedTree(seed), so each caller keeps its own
// workload. Whatever trace sink the caller installed is shared by every
// worker thread.
inline double run_cluster(const World& world, std::uint32_t num_shards,
                          int steps, std::uint64_t seed,
                          const char* stream) {
  netio::ClusterCoordinator coordinator(num_shards);
  MOT_CHECK(coordinator.open());
  const std::uint16_t port = coordinator.port();
  std::vector<std::thread> threads;
  std::vector<int> rcs(num_shards, -1);
  for (std::uint32_t shard = 0; shard < num_shards; ++shard) {
    threads.emplace_back([shard, num_shards, port, &world, &rcs] {
      const MotPathProvider provider(*world.hierarchy, world.options);
      Simulator sim;
      proto::DistributedMot mot(provider, sim, world.chain_options);
      netio::WorkerConfig config;
      config.shard = shard;
      config.num_shards = num_shards;
      config.coordinator_port = port;
      netio::ShardWorker worker(config, provider, sim, mot);
      rcs[shard] = worker.run();
    });
  }
  MOT_CHECK(coordinator.bootstrap());

  Rng rng = SeedTree(seed).stream(stream);
  constexpr ObjectId kObject = 0;
  NodeId at = 12;
  const auto start = std::chrono::steady_clock::now();
  MOT_CHECK(coordinator.publish(kObject, at));
  for (int i = 0; i < steps; ++i) {
    const auto neighbors = world.graph.neighbors(at);
    at = neighbors[rng.below(neighbors.size())].to;
    MOT_CHECK(coordinator.move(kObject, at).has_value());
    MOT_CHECK(coordinator
                  .query(static_cast<NodeId>(
                             rng.below(world.graph.num_nodes())),
                         kObject)
                  .has_value());
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  coordinator.shutdown();
  for (auto& thread : threads) thread.join();
  for (const int rc : rcs) MOT_CHECK(rc == 0);
  return wall.count();
}

}  // namespace mot::bench
