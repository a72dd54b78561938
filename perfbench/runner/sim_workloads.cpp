// fleet16k and lossy4k: the single-process DistributedMot runtime driven
// through the discrete-event simulator. Operations are injected in
// windows; a window ends when Simulator::run() has drained it, and every
// completion callback is timed from its operation's injection.
#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "faults/unreliable_channel.hpp"
#include "proto/distributed_mot.hpp"
#include "sim/event_sim.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mot::NodeId;
using mot::ObjectId;
using mot::obs::Ev;

struct SimSpec {
  std::size_t side = 0;
  int setup_reps = 0;
  std::size_t objects = 0;
  bool batching = false;
  bool lossy = false;
  int window_rounds = 0;  // rounds in the count window
};

// One engine and everything it references. Members are declared so that
// the runtime is destroyed before the channel, simulator and provider.
struct SimEngine {
  std::unique_ptr<World> world;
  std::unique_ptr<mot::MotPathProvider> provider;
  mot::Simulator sim;
  mot::faults::FaultPlan plan;
  std::unique_ptr<mot::faults::UnreliableChannel> channel;
  std::unique_ptr<mot::proto::DistributedMot> mot;
};

std::unique_ptr<SimEngine> set_up(const SimSpec& spec,
                                  const std::vector<NodeId>& start,
                                  std::uint64_t seed, SpanLog& spans,
                                  SetupLayers* layers) {
  Scope scope(spans, "setup");
  auto engine = std::make_unique<SimEngine>();
  engine->world = build_world(spec.side, spans, layers);
  const mot::MotOptions options = paper_options();
  engine->provider =
      std::make_unique<mot::MotPathProvider>(*engine->world->hierarchy, options);
  warm_provider(*engine->provider, spans, layers);
  engine->mot = std::make_unique<mot::proto::DistributedMot>(
      *engine->provider, engine->sim, mot::make_mot_chain_options(options));
  if (spec.batching) engine->mot->use_batching(true);
  if (spec.lossy) {
    mot::faults::LinkFaults faults;
    faults.drop = 0.03;
    faults.duplicate = 0.02;
    faults.delay = 0.10;
    faults.max_extra_delay = 4.0;
    engine->plan.set_default_faults(faults);
    engine->channel =
        std::make_unique<mot::faults::UnreliableChannel>(engine->plan, seed);
    engine->channel->arm(engine->sim);
    engine->mot->use_channel(engine->channel.get());
  }
  Scope publish(spans, "proto.publish_burst");
  for (ObjectId o = 0; o < start.size(); ++o) engine->mot->publish(o, start[o]);
  engine->sim.run();
  return engine;
}

// The benchmark's own record of every object and operation in flight,
// against which each completion is checked.
class Book {
 public:
  Book(RunContext& run, std::size_t side, const std::vector<NodeId>& start)
      : run_(run), side_(side), position_(start), window_start_(start),
        move_from_(start.size()), move_t0_(start.size()) {}

  NodeId position(ObjectId o) const { return position_[o]; }
  std::size_t objects() const { return position_.size(); }
  bool counting = true;  // inside the count window

  void begin_window() {
    window_start_ = position_;
    queries_.clear();
  }

  mot::proto::DistributedMot::MoveCallback move(ObjectId o, NodeId to) {
    move_from_[o] = position_[o];
    position_[o] = to;
    ++injected_;
    move_t0_[o] = Clock::now();
    return [this, o](const mot::MoveResult& result) { on_move(o, result); };
  }

  mot::proto::DistributedMot::QueryCallback query(NodeId origin, ObjectId o) {
    const std::size_t index = queries_.size();
    queries_.push_back({o, origin, Clock::now()});
    ++injected_;
    return [this, index](const mot::QueryResult& result) {
      on_query(index, result);
    };
  }

  // Per-operation lower bound for unbatched moves; batched moves are
  // bounded per group of co-located objects instead (see fleet16k).
  bool bound_each_move = true;
  double summed_cost = 0.0;
  std::uint64_t injected() const { return injected_; }
  std::uint64_t completed() const { return completed_; }
  std::vector<double> move_cost;  // last window's cost per object

 private:
  struct PendingQuery {
    ObjectId object;
    NodeId origin;
    Clock::time_point t0;
  };

  void on_move(ObjectId o, const mot::MoveResult& result) {
    run_.e2e.moves().add(Clock::now() - move_t0_[o]);
    ++completed_;
    summed_cost += result.cost;
    const double distance = manhattan(move_from_[o], position_[o], side_);
    if (bound_each_move) {
      run_.checker.cost_at_least(result.cost, distance, "move");
      if (counting) run_.e2e.move_optimal += distance;
    }
    if (counting) run_.e2e.move_cost += result.cost;
    if (!move_cost.empty()) move_cost[o] = result.cost;
  }

  void on_query(std::size_t index, const mot::QueryResult& result) {
    const PendingQuery& query = queries_[index];
    run_.e2e.locates().add(Clock::now() - query.t0);
    ++completed_;
    run_.checker.that(result.found && !result.degraded,
                      "locate of object " + std::to_string(query.object) +
                          " was not answered in full");
    run_.checker.answer(result.proxy, window_start_[query.object],
                        position_[query.object], "locate");
    const double distance = manhattan(query.origin, result.proxy, side_);
    run_.checker.cost_at_least(result.cost, distance, "locate");
    // The reply travels back to the origin on the meter, outside the
    // locate's own cost.
    summed_cost += result.cost + distance;
    if (counting) {
      run_.e2e.query_cost += result.cost;
      run_.e2e.query_optimal += std::max(distance, 1.0);
    }
  }

  RunContext& run_;
  std::size_t side_;
  std::vector<NodeId> position_;
  std::vector<NodeId> window_start_;
  std::vector<NodeId> move_from_;
  std::vector<Clock::time_point> move_t0_;
  std::vector<PendingQuery> queries_;
  std::uint64_t injected_ = 0;
  std::uint64_t completed_ = 0;
};

NodeId random_neighbor(const mot::Graph& graph, NodeId at, InputRng& rng) {
  const auto neighbors = graph.neighbors(at);
  return neighbors[rng.below(neighbors.size())].to;
}

// Counters read at the start and at the end of the count window.
struct Snapshot {
  mot::proto::ProtocolStats stats;
  mot::faults::ChannelStats channel;
  std::uint64_t messages = 0;
  double meter = 0.0;
  std::uint64_t events = 0;
  std::uint64_t route_hops = 0;
  std::uint64_t climb_hops = 0;
  std::uint64_t descend_hops = 0;
};

Snapshot snapshot(const SimEngine& engine, const RunContext& run,
                  std::uint64_t events) {
  Snapshot snap;
  snap.stats = engine.mot->stats();
  if (engine.channel) snap.channel = engine.channel->stats();
  snap.messages = engine.mot->meter().total_messages();
  snap.meter = engine.mot->meter().total_distance();
  snap.events = events;
  snap.route_hops = run.counts.count(Ev::kRouteHop);
  snap.climb_hops = run.counts.count(Ev::kClimbHop);
  snap.descend_hops = run.counts.count(Ev::kDescendHop);
  return snap;
}

// A window is one inject phase followed by one drain of the simulator.
template <typename Inject>
void run_window(SimEngine& engine, RunContext& run, Book& book,
                std::uint64_t* events, double* sim_s, Inject&& inject) {
  book.begin_window();
  {
    Scope scope(run.spans, "proto.inject");
    inject();
  }
  Scope scope(run.spans, "sim.run");
  const Clock::time_point start = Clock::now();
  *events += engine.sim.run();
  *sim_s += seconds_between(start, Clock::now());
}

// Runs the workload-specific `round` until the count window is complete
// and the run length is reached, then checks the end state and fills the
// records.
template <typename Round>
void drive(const SimSpec& spec, SimEngine& engine, RunContext& run, Book& book,
           Round&& round) {
  std::uint64_t events = 0;
  double sim_s = 0.0;
  const Snapshot before = snapshot(engine, run, 0);
  Snapshot window_end{};
  run.e2e.start_loop(run.options.seconds, spec.window_rounds);
  while (run.checker.ok() && run.e2e.more_rounds()) {
    round(&events, &sim_s);
    if (run.e2e.end_round(book.injected())) {
      window_end = snapshot(engine, run, events);
      book.counting = false;
      run.e2e.window_messages = window_end.messages - before.messages;
      const std::vector<std::size_t> load = engine.mot->load_per_node();
      run.e2e.max_node_load = *std::max_element(load.begin(), load.end());
    }
  }
  run.e2e.stop_loop(book.injected());

  // End state: every operation completed, the structure is quiescent and
  // intact, and the per-operation costs add up to the meter.
  const mot::proto::DistributedMot& mot = *engine.mot;
  Checker& check = run.checker;
  check.that(book.completed() == book.injected(),
             std::to_string(book.injected() - book.completed()) +
                 " operations never completed");
  check.that(engine.sim.empty() && mot.inflight_operations() == 0 &&
                 mot.pending_transfers() == 0,
             "runtime not quiescent after the last window");
  for (const std::string& violation : mot.invariant_violations()) {
    check.that(false, "invariant: " + violation);
  }
  const mot::proto::ProtocolStats& stats = mot.stats();
  const double overhead =
      (stats.transport_distance - before.stats.transport_distance) +
      (stats.recovery_distance - before.stats.recovery_distance);
  check.sums_match(book.summed_cost + overhead,
                   mot.meter().total_distance() - before.meter, "meter");
  if (engine.channel) {
    check.that(engine.channel->stats().conserved(),
               "channel ledger not conserved");
  }
  for (ObjectId o = 0; o < book.objects(); ++o) {
    check.answer(mot.physical_position(o), book.position(o), book.position(o),
                 "physical position");
  }

  if (!run.options.trace) return;
  LayerMetrics& layers = run.layers;
  const double ops = static_cast<double>(run.e2e.window_ops);
  const mot::proto::ProtocolStats& w = window_end.stats;
  const mot::proto::ProtocolStats& b = before.stats;
  layers.set("proto.inject_s", run.spans.seconds("proto.inject"));
  layers.set("proto.messages_coalesced", static_cast<double>(w.messages_coalesced - b.messages_coalesced));
  layers.set("proto.batch_flushes", static_cast<double>(w.batch_flushes - b.batch_flushes));
  layers.set("proto.queries_parked", static_cast<double>(w.queries_parked - b.queries_parked));
  layers.set("proto.queries_redirected", static_cast<double>(w.queries_redirected - b.queries_redirected));
  layers.set("sim.run_s", sim_s);
  layers.set("sim.events_per_op", static_cast<double>(window_end.events) / ops);
  layers.set("sim.ns_per_event", sim_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(events, 1)));
  layers.set("link.data_sent", static_cast<double>(w.data_sent - b.data_sent));
  layers.set("link.retx_per_op", static_cast<double>(w.retransmissions - b.retransmissions) / ops);
  layers.set("link.acks_sent", static_cast<double>(w.acks_sent - b.acks_sent));
  layers.set("link.duplicates_suppressed", static_cast<double>(w.duplicates_suppressed - b.duplicates_suppressed));
  const std::uint64_t rtt_count = w.ack_rtt_count - b.ack_rtt_count;
  layers.set("link.mean_ack_rtt", rtt_count == 0 ? 0.0 : (w.ack_rtt_sum - b.ack_rtt_sum) / static_cast<double>(rtt_count));
  layers.set("faults.dropped", static_cast<double>(window_end.channel.dropped - before.channel.dropped));
  layers.set("faults.duplicated", static_cast<double>(window_end.channel.duplicated - before.channel.duplicated));
  layers.set("faults.delayed", static_cast<double>(window_end.channel.delayed - before.channel.delayed));
  layers.set("debruijn.route_hops_per_op", static_cast<double>(window_end.route_hops - before.route_hops) / ops);
  layers.set("tracking.climb_hops_per_op", static_cast<double>(window_end.climb_hops - before.climb_hops) / ops);
  layers.set("tracking.descend_hops_per_op", static_cast<double>(window_end.descend_hops - before.descend_hops) / ops);
}

template <typename Workload>
void run_sim_workload(const SimSpec& spec, RunContext& run,
                      const std::vector<NodeId>& start, Workload&& workload) {
  std::vector<SetupLayers> reps(spec.setup_reps);
  std::unique_ptr<SimEngine> engine;
  for (SetupLayers& layers : reps) {
    engine.reset();  // one world in memory at a time
    const Clock::time_point t0 = Clock::now();
    engine = set_up(spec, start, run.options.seed, run.spans, &layers);
    run.e2e.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  Book book(run, spec.side, start);
  workload(*engine, book);
  if (run.options.trace) run.layers.add_setup(reps, *engine->world->hierarchy);
}

}  // namespace

// 128x128 grid, 1,024 objects in 32 fleets of 32 that always share a
// cell and step together; use_batching coalesces their shared climbs.
// Each fleet walks inside its own 32 x 16 region, so two fleets never
// share a cell or a low-level climb. A round moves every fleet twice and
// then locates every object from a random origin; each window holds a
// quarter of the fleets (or of the locates).
void run_fleet16k(RunContext& run) {
  SimSpec spec;
  spec.side = 128;
  spec.setup_reps = 5;
  spec.objects = 1024;
  spec.batching = true;
  spec.window_rounds = 24;
  constexpr std::size_t kFleets = 32;
  constexpr std::size_t kGroups = 4;  // windows per move step / sweep
  constexpr std::size_t kRegionRows = 32, kRegionCols = 16;  // 4 x 8 regions
  constexpr std::size_t kRegionsPerRow = 8;

  InputRng rng(run.options.seed, 1);
  std::vector<NodeId> fleet_at(kFleets);
  for (std::size_t f = 0; f < kFleets; ++f) {
    const std::size_t row = (f / kRegionsPerRow) * kRegionRows + rng.below(kRegionRows);
    const std::size_t col = (f % kRegionsPerRow) * kRegionCols + rng.below(kRegionCols);
    fleet_at[f] = static_cast<NodeId>(row * spec.side + col);
  }
  std::vector<NodeId> start(spec.objects);
  for (ObjectId o = 0; o < spec.objects; ++o) start[o] = fleet_at[o % kFleets];

  run_sim_workload(spec, run, start, [&](SimEngine& engine, Book& book) {
    mot::proto::DistributedMot& mot = *engine.mot;
    const mot::Graph& graph = engine.world->graph;
    const std::size_t n = graph.num_nodes();
    const auto region = [&](NodeId node) {
      return (node / spec.side / kRegionRows) * kRegionsPerRow +
             (node % spec.side) / kRegionCols;
    };
    // Batched moves are bounded per fleet: co-located updates ride one
    // metered message, so a single member may be charged nothing, but
    // the fleet as a whole pays at least its step distance.
    book.bound_each_move = false;
    book.move_cost.assign(spec.objects, 0.0);
    drive(spec, engine, run, book, [&](std::uint64_t* events, double* sim_s) {
      for (int step = 0; step < 2; ++step) {
        for (std::size_t group = 0; group < kGroups; ++group) {
          std::vector<std::pair<std::size_t, NodeId>> stepped;  // fleet, from
          run_window(engine, run, book, events, sim_s, [&] {
            for (std::size_t f = group; f < kFleets; f += kGroups) {
              stepped.push_back({f, fleet_at[f]});
              NodeId next = random_neighbor(graph, fleet_at[f], rng);
              while (region(next) != f) next = random_neighbor(graph, fleet_at[f], rng);
              fleet_at[f] = next;
              for (ObjectId o = f; o < spec.objects; o += kFleets) {
                mot.move(o, next, book.move(o, next));
              }
            }
          });
          for (const auto& [f, from] : stepped) {
            double fleet_cost = 0.0;
            for (ObjectId o = f; o < spec.objects; o += kFleets) fleet_cost += book.move_cost[o];
            const double distance = manhattan(from, fleet_at[f], spec.side);
            run.checker.cost_at_least(fleet_cost, distance, "fleet move");
            if (book.counting) run.e2e.move_optimal += distance;
          }
        }
      }
      for (std::size_t group = 0; group < kGroups; ++group) {
        run_window(engine, run, book, events, sim_s, [&] {
          for (ObjectId o = group; o < spec.objects; o += kGroups) {
            const auto origin = static_cast<NodeId>(rng.below(n));
            mot.query(origin, o, book.query(origin, o));
          }
        });
      }
    });
  });
}

// 64x64 grid over a lossy, duplicating, reordering channel; 256 objects
// walk independently. A round is eight windows; in each, 32 objects step
// once and each move is followed by three locates of the same object from
// random origins, so every locate overlaps its object's move and some
// park at the stale proxy and get redirected.
void run_lossy4k(RunContext& run) {
  SimSpec spec;
  spec.side = 64;
  spec.setup_reps = 9;
  spec.objects = 256;
  spec.lossy = true;
  spec.window_rounds = 12;
  constexpr std::size_t kMovesPerWindow = 32;
  InputRng rng(run.options.seed, 2);
  const std::size_t n = spec.side * spec.side;
  std::vector<NodeId> start(spec.objects);
  for (NodeId& at : start) at = static_cast<NodeId>(rng.below(n));

  run_sim_workload(spec, run, start, [&](SimEngine& engine, Book& book) {
    mot::proto::DistributedMot& mot = *engine.mot;
    const mot::Graph& graph = engine.world->graph;
    drive(spec, engine, run, book, [&](std::uint64_t* events, double* sim_s) {
      for (ObjectId first = 0; first < spec.objects; first += kMovesPerWindow) {
        run_window(engine, run, book, events, sim_s, [&] {
          for (ObjectId o = first; o < first + kMovesPerWindow; ++o) {
            const NodeId to = random_neighbor(graph, book.position(o), rng);
            mot.move(o, to, book.move(o, to));
            for (int q = 0; q < 3; ++q) {
              const auto origin = static_cast<NodeId>(rng.below(n));
              mot.query(origin, o, book.query(origin, o));
            }
          }
        });
      }
    });
  });
}

}  // namespace perfbench
