// micro_throughput: the sustained-throughput figure.
//
// Three sections back the BENCH_throughput.json trajectory number:
//   - single-process engine throughput, batched vs unbatched: the same
//     sustained fleet workload (correlated moves sharing tree-path
//     prefixes + a locate sweep per round) driven through two
//     DistributedMot instances, interleaved and order-rotated through
//     the shared trimmed-mean estimator. `use_batching` must win on
//     wall clock, not just on metered messages;
//   - sharded engine scaling across worker counts: independent batched
//     shards driven through the par pool at 1/2/4 workers. Wall clock
//     scales; the per-shard figure table (answers digest, metered
//     distance, message counts) must be byte-identical at every worker
//     count — the PR 3 determinism contract extended to the batched
//     fast path;
//   - loopback-cluster ops/s: the threaded multi-process harness
//     (coordinator + one ShardWorker thread per shard over real TCP)
//     with the frame-batched mesh, recorded alongside the
//     single-process figure.
//
//   micro_throughput --emit-json BENCH_throughput.json
//   micro_throughput --assert-speedup 1.0   # CI gate: batched >= unbatched
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/mot.hpp"
#include "micro_cluster.hpp"
#include "micro_common.hpp"
#include "par/thread_pool.hpp"
#include "proto/distributed_mot.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using mot::NodeId;
using mot::ObjectId;
using mot::bench::World;

struct EngineOutcome {
  double wall = 0.0;          // seconds over the sustained rounds
  std::uint64_t ops = 0;      // moves + locates timed
  std::uint64_t queries = 0;  // locates alone, for the queries/s figure
  std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a over answers
  double meter = 0.0;
  std::uint64_t messages = 0;
};

// The sustained fleet mix: `objects` mobiles published in co-located
// fleets at a few depots, then `rounds` of every fleet stepping to the
// same neighbor inside one batch window (maximally shared tree-path
// prefixes) followed by a locate sweep. Only the rounds are timed; the
// publish burst is setup.
EngineOutcome run_engine(const World& world, bool batched, int objects,
                         int rounds, std::uint64_t seed) {
  const mot::MotPathProvider provider(*world.hierarchy, world.options);
  mot::Simulator sim;
  mot::proto::DistributedMot mot(provider, sim, world.chain_options);
  if (batched) mot.use_batching(true);

  constexpr int kDepots = 4;
  std::vector<NodeId> depot_at(kDepots);
  for (int d = 0; d < kDepots; ++d) {
    depot_at[d] = static_cast<NodeId>(
        (d * world.graph.num_nodes()) / kDepots);
  }
  for (ObjectId o = 0; o < static_cast<ObjectId>(objects); ++o) {
    mot.publish(o, depot_at[o % kDepots]);
  }
  sim.run();

  EngineOutcome out;
  mot::SeedTree seeds(seed);
  mot::Rng rng = seeds.stream("micro-throughput");
  // A sustained tracking mix is maintenance-heavy: objects step more
  // often than they are located. Two move windows per locate sweep.
  constexpr int kMoveWindows = 2;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (int w = 0; w < kMoveWindows; ++w) {
      for (int d = 0; d < kDepots; ++d) {
        const auto neighbors = world.graph.neighbors(depot_at[d]);
        depot_at[d] = neighbors[rng.below(neighbors.size())].to;
      }
      for (ObjectId o = 0; o < static_cast<ObjectId>(objects); ++o) {
        mot.move(o, depot_at[o % kDepots]);
      }
      sim.run();
    }
    for (ObjectId o = 0; o < static_cast<ObjectId>(objects); ++o) {
      mot.query(
          static_cast<NodeId>((o * 31 + static_cast<ObjectId>(r) * 7) %
                              world.graph.num_nodes()),
          o, [&out](const mot::QueryResult& result) {
            MOT_CHECK(result.found);
            out.digest =
                (out.digest ^ static_cast<std::uint64_t>(result.proxy)) *
                1099511628211ULL;
          });
    }
    sim.run();
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  mot.validate_quiescent();
  out.wall = wall.count();
  out.queries = static_cast<std::uint64_t>(objects) *
                static_cast<std::uint64_t>(rounds);
  out.ops = (1 + kMoveWindows) * out.queries;  // moves + locates
  out.meter = mot.meter().total_distance();
  out.messages = mot.stats().messages_sent;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --assert-speedup before the common parser sees it (same
  // pattern as the micro_gbench log-level shim): when set, the process
  // fails unless batched/unbatched wall speedup reaches the floor.
  double assert_speedup = 0.0;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--assert-speedup=", 0) == 0) {
      assert_speedup =
          std::stod(arg.substr(std::string("--assert-speedup=").size()));
    } else if (arg == "--assert-speedup" && i + 1 < argc) {
      assert_speedup = std::stod(argv[++i]);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  const mot::bench::CommonFlags common = mot::bench::parse_common(
      argc, argv,
      "sustained locate+move throughput: batched vs unbatched engine, "
      "sharded scaling across worker counts, loopback-cluster ops/s");
  const std::size_t side = common.full ? 12 : 8;
  const int objects = common.objects != 0
                          ? static_cast<int>(common.objects)
                          : (common.full ? 128 : 48);
  // Long sustained runs: the batching win is a steady-state property,
  // and short bursts leave the figure at the mercy of scheduler noise.
  const int rounds = common.moves != 0 ? static_cast<int>(common.moves)
                                       : (common.full ? 250 : 100);
  const int reps = common.seeds != 0 ? static_cast<int>(common.seeds)
                                     : (common.full ? 11 : 9);
  const World world(side, common.base_seed + 7);

  // -- Section 1: batched vs unbatched, interleaved + order-rotated --
  std::vector<EngineOutcome> last(2);
  const std::vector<mot::bench::VariantStats> stats =
      mot::bench::measure_interleaved(2, reps, [&](std::size_t v, int r) {
        const EngineOutcome out =
            run_engine(world, /*batched=*/v == 1, objects, rounds,
                       common.base_seed + static_cast<std::uint64_t>(r));
        last[v] = out;
        return out.wall;
      });
  // Parity: batching must never change what the structure computes.
  MOT_CHECK(last[0].digest == last[1].digest);
  MOT_CHECK(last[0].messages > last[1].messages);

  const double ops = static_cast<double>(last[0].ops);
  const double speedup = stats[0].seconds / stats[1].seconds;
  mot::Table engine({"variant", "objects", "rounds", "trimmed s", "ops/s",
                     "queries/s", "speedup"});
  const char* names[] = {"unbatched", "batched"};
  for (std::size_t v = 0; v < 2; ++v) {
    engine.begin_row()
        .cell(std::string(names[v]))
        .cell(static_cast<std::uint64_t>(objects))
        .cell(static_cast<std::uint64_t>(rounds))
        .cell(stats[v].seconds, 4)
        .cell(ops / stats[v].seconds, 0)
        .cell(static_cast<double>(last[v].queries) / stats[v].seconds, 0)
        .cell(v == 0 ? 1.0 : speedup, 2);
  }
  mot::bench::emit("engine throughput, batched vs unbatched", engine,
                   common);

  // -- Section 2: sharded batched engines across worker counts --
  const std::size_t saved_workers = mot::par::default_workers();
  constexpr std::size_t kShards = 4;
  const int shard_objects = std::max(objects / static_cast<int>(kShards), 8);
  mot::Table scaling({"threads", "shards", "trimmed s", "agg ops/s",
                      "identical"});
  std::string reference_table;
  bool all_identical = true;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    mot::par::set_default_workers(threads);
    std::vector<EngineOutcome> shard_out;
    const double seconds = mot::bench::repeat_trimmed(3, [&](int) {
      const auto start = std::chrono::steady_clock::now();
      shard_out = mot::par::parallel_map(kShards, [&](std::size_t shard) {
        return run_engine(world, /*batched=*/true, shard_objects, rounds,
                          common.base_seed + 101 * (shard + 1));
      });
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - start;
      return wall.count();
    });
    // The figure table per shard holds only deterministic quantities —
    // it must render byte-identically at every worker count.
    mot::Table figure({"shard", "digest", "meter", "messages"});
    std::uint64_t agg_ops = 0;
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      figure.begin_row()
          .cell(static_cast<std::uint64_t>(shard))
          .cell(shard_out[shard].digest)
          .cell(shard_out[shard].meter, 6)
          .cell(shard_out[shard].messages);
      agg_ops += shard_out[shard].ops;
    }
    const std::string rendered = figure.to_string();
    if (reference_table.empty()) {
      reference_table = rendered;
      mot::bench::emit("per-shard figure table (worker-count invariant)",
                       figure, common);
    }
    const bool identical = rendered == reference_table;
    all_identical = all_identical && identical;
    scaling.begin_row()
        .cell(static_cast<std::uint64_t>(threads))
        .cell(static_cast<std::uint64_t>(kShards))
        .cell(seconds, 4)
        .cell(static_cast<double>(agg_ops) / seconds, 0)
        .cell(std::string(identical ? "yes" : "NO"));
  }
  mot::par::set_default_workers(saved_workers);
  mot::bench::emit("sharded batched engines vs worker count", scaling,
                   common);
  if (!all_identical) {
    std::fprintf(stderr,
                 "determinism violation: batched shard table differs "
                 "across worker counts\n");
    return 1;
  }

  // -- Section 3: loopback cluster with the frame-batched mesh --
  const int steps = common.full ? 1200 : 400;
  const int cluster_reps = common.full ? 7 : 5;
  mot::Table cluster({"shards", "steps", "trimmed s", "ops/s"});
  for (const std::uint32_t shards : {2u, 4u}) {
    const double seconds =
        mot::bench::repeat_trimmed(cluster_reps, [&](int r) {
          return mot::bench::run_cluster(
              world, shards, steps,
              common.base_seed + static_cast<std::uint64_t>(r),
              "micro-throughput-cluster");
        });
    const double cluster_ops = 2.0 * steps + 1.0;
    cluster.begin_row()
        .cell(static_cast<std::uint64_t>(shards))
        .cell(static_cast<std::uint64_t>(steps))
        .cell(seconds, 4)
        .cell(cluster_ops / seconds, 1);
  }
  mot::bench::emit("cluster ops/s (loopback TCP, frame-batched mesh)",
                   cluster, common);

  if (assert_speedup > 0.0 && speedup < assert_speedup) {
    std::fprintf(stderr,
                 "throughput regression: batched speedup %.2fx below the "
                 "%.2fx floor\n",
                 speedup, assert_speedup);
    return 1;
  }
  return 0;
}
