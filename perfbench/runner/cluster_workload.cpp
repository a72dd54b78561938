// cluster2: the threaded loopback cluster. A ClusterCoordinator on the
// main thread drives two ShardWorker threads over TCP, one operation at
// a time (closed loop). After the timed loop the same operations are
// replayed on a single-process DistributedMot, which must agree on every
// answer and cost: cluster mode is bit-identical by design.
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "netio/cluster.hpp"
#include "proto/distributed_mot.hpp"
#include "sim/event_sim.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mot::NodeId;
using mot::ObjectId;
using mot::obs::Ev;

constexpr std::size_t kSide = 32;
constexpr std::uint32_t kShards = 2;
constexpr std::size_t kObjects = 64;
constexpr int kStepsPerRound = 32;  // one step = a move and a locate
constexpr int kWindowRounds = 64;
constexpr int kSetupReps = 9;

// A running cluster over one world. The destructor shuts the shards
// down and joins their threads, so no exit path leaves one running.
class Cluster {
 public:
  Cluster(RunContext& run, const std::vector<NodeId>& start,
          SetupLayers* layers, double* bootstrap_s) {
    Scope scope(run.spans, "setup");
    world = build_world(kSide, run.spans, layers);
    const mot::MotOptions options = paper_options();
    provider = std::make_unique<mot::MotPathProvider>(*world->hierarchy, options);
    chain_options = mot::make_mot_chain_options(options);
    // Shard threads share the provider; warming fills its caches first,
    // so they only read it.
    warm_provider(*provider, run.spans, layers);

    {
      Scope boot(run.spans, "netio.bootstrap");
      const Clock::time_point boot_start = Clock::now();
      coordinator = std::make_unique<mot::netio::ClusterCoordinator>(kShards);
      run.checker.that(coordinator->open(), "coordinator could not listen");
      if (!run.checker.ok()) return;
      wire.resize(kShards);
      rcs.assign(kShards, -1);
      for (std::uint32_t shard = 0; shard < kShards; ++shard) {
        threads.emplace_back([this, shard, port = coordinator->port()] {
          mot::Simulator sim;
          mot::proto::DistributedMot mot(*provider, sim, chain_options);
          mot::netio::WorkerConfig config;
          config.shard = shard;
          config.num_shards = kShards;
          config.coordinator_port = port;
          mot::netio::ShardWorker worker(config, *provider, sim, mot);
          rcs[shard] = worker.run();
          wire[shard] = worker.wire_stats();
        });
      }
      run.checker.that(coordinator->bootstrap(), "cluster bootstrap failed");
      *bootstrap_s = seconds_between(boot_start, Clock::now());
    }
    if (!run.checker.ok()) return;
    Scope publish(run.spans, "netio.publish_burst");
    for (ObjectId o = 0; o < start.size() && run.checker.ok(); ++o) {
      run.checker.that(coordinator->publish(o, start[o]), "publish failed");
    }
    coordinator->collect_loads(&meter_after_publish);
  }

  ~Cluster() { stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void stop() {
    if (threads.empty()) return;
    coordinator->shutdown();
    for (std::thread& thread : threads) thread.join();
    threads.clear();
  }

  // Summed CPU time of the shard threads so far.
  double shard_cpu_s() {
    double total = 0.0;
    for (std::thread& thread : threads) {
      clockid_t clock{};
      timespec ts{};
      if (pthread_getcpuclockid(thread.native_handle(), &clock) == 0 &&
          clock_gettime(clock, &ts) == 0) {
        total += static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
      }
    }
    return total;
  }

  std::unique_ptr<World> world;
  std::unique_ptr<mot::MotPathProvider> provider;
  mot::ChainOptions chain_options;
  std::unique_ptr<mot::netio::ClusterCoordinator> coordinator;
  std::vector<mot::netio::WireStats> wire;  // written by each shard on exit
  std::vector<int> rcs;
  double meter_after_publish = 0.0;
  std::vector<std::thread> threads;  // last: joined before the rest goes
};

struct Op {
  bool move = false;
  ObjectId object = 0;
  NodeId node = 0;  // move target or locate origin
  double cost = 0.0;
  int level = 0;  // peak level of a move, found level of a locate
  NodeId answer = mot::kInvalidNode;
};

}  // namespace

// 32x32 grid, 64 objects published at random cells; each step moves a
// random object to a random neighbor cell and locates a random object
// from a random origin. A round is 32 steps.
void run_cluster2(RunContext& run) {
  // Keep the coordinator and both shards on the CPU this thread runs on
  // (threads inherit the mask). Every operation is a chain of hand-offs
  // over loopback TCP; across the CPUs of a virtual machine each hand-off
  // pays a cross-CPU wake-up whose cost swings ops/s by 2-3x from run to
  // run, while on one CPU the figure measures the socket, probe-wave and
  // codec work itself.
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  }
  InputRng rng(run.options.seed, 3);
  const std::size_t n = kSide * kSide;
  std::vector<NodeId> position(kObjects);
  for (NodeId& at : position) at = static_cast<NodeId>(rng.below(n));
  const std::vector<NodeId> start = position;

  std::vector<SetupLayers> reps(kSetupReps);
  std::vector<double> bootstrap_s(kSetupReps, 0.0);
  std::unique_ptr<Cluster> cluster;
  for (int r = 0; r < kSetupReps && run.checker.ok(); ++r) {
    cluster.reset();
    const Clock::time_point t0 = Clock::now();
    cluster = std::make_unique<Cluster>(run, start, &reps[r], &bootstrap_s[r]);
    run.e2e.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  if (!run.checker.ok()) return;

  mot::netio::ClusterCoordinator& coordinator = *cluster->coordinator;
  const mot::Graph& graph = cluster->world->graph;
  std::vector<Op> ops;
  double summed_cost = 0.0;
  const std::uint64_t encodes_before = run.counts.count(Ev::kWireEncode);
  const double shard_cpu_before = cluster->shard_cpu_s();
  const double coordinator_cpu_before = thread_cpu_s();
  run.e2e.start_loop(run.options.seconds, kWindowRounds);
  while (run.checker.ok() && run.e2e.more_rounds()) {
    for (int step = 0; step < kStepsPerRound && run.checker.ok(); ++step) {
      const auto object = static_cast<ObjectId>(rng.below(kObjects));
      const auto neighbors = graph.neighbors(position[object]);
      const NodeId to = neighbors[rng.below(neighbors.size())].to;
      const NodeId from = position[object];
      position[object] = to;
      std::optional<mot::netio::ClusterMoveOutcome> moved;
      {
        Scope scope(run.spans, "netio.move");
        const Clock::time_point t0 = Clock::now();
        moved = coordinator.move(object, to);
        run.e2e.moves().add(Clock::now() - t0);
      }
      run.checker.that(moved.has_value(), "cluster move failed");
      if (!moved) break;
      run.checker.cost_at_least(moved->cost, manhattan(from, to, kSide), "move");
      summed_cost += moved->cost;
      ops.push_back({true, object, to, moved->cost, moved->peak_level});

      const auto target = static_cast<ObjectId>(rng.below(kObjects));
      const auto origin = static_cast<NodeId>(rng.below(n));
      std::optional<mot::netio::ClusterQueryOutcome> answered;
      {
        Scope scope(run.spans, "netio.query");
        const Clock::time_point t0 = Clock::now();
        answered = coordinator.query(origin, target);
        run.e2e.locates().add(Clock::now() - t0);
      }
      run.checker.that(answered && answered->found && !answered->degraded,
                       "cluster locate failed");
      if (!answered) break;
      run.checker.answer(answered->proxy, position[target], position[target], "locate");
      run.checker.cost_at_least(answered->cost, manhattan(origin, answered->proxy, kSide),
                                "locate");
      // The reply's trip back to the origin is metered outside the
      // locate's own cost.
      summed_cost += answered->cost + manhattan(origin, answered->proxy, kSide);
      ops.push_back({false, target, origin, answered->cost, answered->found_level,
                     answered->proxy});
    }
    run.e2e.end_round(ops.size());
  }
  run.e2e.stop_loop(ops.size());
  const double coordinator_cpu = thread_cpu_s() - coordinator_cpu_before;
  const double shard_cpu = cluster->shard_cpu_s() - shard_cpu_before;
  const std::uint64_t encodes = run.counts.count(Ev::kWireEncode) - encodes_before;

  double meter_end = 0.0;
  const std::vector<std::uint64_t> loads = coordinator.collect_loads(&meter_end);
  run.checker.sums_match(summed_cost, meter_end - cluster->meter_after_publish, "meter");
  cluster->stop();
  for (const int rc : cluster->rcs) run.checker.that(rc == 0, "a shard exited with an error");

  // Single-process replay of the same operations on the same world.
  mot::Simulator sim;
  mot::proto::DistributedMot replay(*cluster->provider, sim, cluster->chain_options);
  for (ObjectId o = 0; o < kObjects; ++o) {
    replay.publish(o, start[o]);
    sim.run();
  }
  const double replay_meter_start = replay.meter().total_distance();
  const std::uint64_t replay_messages_start = replay.meter().total_messages();
  const std::size_t window_ops = run.e2e.window_ops;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (op.move) {
      mot::MoveResult expected;
      replay.move(op.object, op.node, [&](const mot::MoveResult& r) { expected = r; });
      sim.run();
      run.checker.that(expected.cost == op.cost && expected.peak_level == op.level,
                       "cluster move " + std::to_string(i) + " differs from the replay");
      if (i < window_ops) {
        run.e2e.move_cost += op.cost;
        run.e2e.move_optimal += 1.0;  // every move is one grid step
      }
    } else {
      mot::QueryResult expected;
      replay.query(op.node, op.object, [&](const mot::QueryResult& r) { expected = r; });
      sim.run();
      run.checker.that(expected.found && expected.proxy == op.answer &&
                           expected.cost == op.cost && expected.found_level == op.level,
                       "cluster locate " + std::to_string(i) + " differs from the replay");
      if (i < window_ops) {
        run.e2e.query_cost += op.cost;
        run.e2e.query_optimal += std::max(manhattan(op.node, op.answer, kSide), 1.0);
      }
    }
    if (i + 1 == window_ops) {
      run.e2e.window_messages = replay.meter().total_messages() - replay_messages_start;
      const std::vector<std::size_t> load = replay.load_per_node();
      run.e2e.max_node_load = *std::max_element(load.begin(), load.end());
    }
  }
  const std::vector<std::size_t> expected_loads = replay.load_per_node();
  run.checker.that(std::equal(loads.begin(), loads.end(), expected_loads.begin(),
                              expected_loads.end()),
                   "cluster storage load differs from the replay");
  run.checker.sums_match(meter_end - cluster->meter_after_publish,
                         replay.meter().total_distance() - replay_meter_start,
                         "replay meter");

  if (!run.options.trace) return;
  LayerMetrics& layers = run.layers;
  layers.add_setup(reps, *cluster->world->hierarchy);
  const double op_count = static_cast<double>(ops.size());
  std::uint64_t bytes = 0, frames = 0, flushes = 0;
  for (const mot::netio::WireStats& stats : cluster->wire) {
    bytes += stats.bytes_sent;
    frames += stats.frames_sent;
    flushes += stats.frame_flushes;
  }
  layers.set("netio.bootstrap_s", median(bootstrap_s));
  layers.set("netio.shard_cpu_s", shard_cpu);
  layers.set("netio.coordinator_cpu_s", coordinator_cpu);
  layers.set("netio.shard_busy", shard_cpu / (kShards * run.e2e.loop_s));
  layers.set("wire.bytes_per_op", static_cast<double>(bytes) / op_count);
  layers.set("wire.frames_per_flush",
             static_cast<double>(frames) / static_cast<double>(std::max<std::uint64_t>(flushes, 1)));
  layers.set("wire.encodes_per_op", static_cast<double>(encodes) / op_count);
}

}  // namespace perfbench
