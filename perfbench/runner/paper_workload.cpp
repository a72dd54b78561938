// paper1k: the paper's evaluation setting on the centralized engine.
// MotTracker (ChainTracker over MotPathProvider) with parent sets,
// special parents and Section 5 load balancing, so every internal entry
// is reached over its cluster's de Bruijn embedding. Operations are
// synchronous: a move or locate is timed around its call.
#include <algorithm>
#include <memory>
#include <vector>

#include "core/mot.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mot::NodeId;
using mot::ObjectId;
using mot::obs::Ev;

constexpr std::size_t kSide = 32;
constexpr std::size_t kObjects = 1000;
constexpr int kStepsPerRound = 1000;  // one step = a move and a locate
constexpr int kWindowRounds = 16;
constexpr int kSetupReps = 9;

struct Paper {
  std::unique_ptr<World> world;
  std::unique_ptr<mot::MotTracker> tracker;
};

std::unique_ptr<Paper> set_up(RunContext& run, const std::vector<NodeId>& start,
                              SetupLayers* layers) {
  Scope scope(run.spans, "setup");
  auto paper = std::make_unique<Paper>();
  paper->world = build_world(kSide, run.spans, layers);
  mot::MotOptions options = paper_options();
  options.load_balance = true;
  paper->tracker = std::make_unique<mot::MotTracker>(*paper->world->hierarchy, options);
  warm_provider(paper->tracker->provider(), run.spans, layers);
  embed_all(paper->tracker->provider(), run.spans, layers);
  Scope publish(run.spans, "tracking.publish_burst");
  for (ObjectId o = 0; o < start.size(); ++o) paper->tracker->publish(o, start[o]);
  return paper;
}

}  // namespace

// 32x32 grid, 1,000 objects at random cells. Each step moves a random
// object to a random neighbor cell, then locates a random object from a
// random origin. A round is 1,000 steps.
void run_paper1k(RunContext& run) {
  InputRng rng(run.options.seed, 4);
  const std::size_t n = kSide * kSide;
  std::vector<NodeId> position(kObjects);
  for (NodeId& at : position) at = static_cast<NodeId>(rng.below(n));

  std::vector<SetupLayers> reps(kSetupReps);
  std::unique_ptr<Paper> paper;
  for (SetupLayers& layers : reps) {
    paper.reset();
    const Clock::time_point t0 = Clock::now();
    paper = set_up(run, position, &layers);
    run.e2e.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  mot::MotTracker& tracker = *paper->tracker;
  const mot::Graph& graph = paper->world->graph;
  const double meter_start = tracker.meter().total_distance();
  const std::uint64_t messages_start = tracker.meter().total_messages();
  const std::uint64_t route_start = run.counts.count(Ev::kRouteHop);
  const std::uint64_t climb_start = run.counts.count(Ev::kClimbHop);
  const std::uint64_t descend_start = run.counts.count(Ev::kDescendHop);
  std::uint64_t route_hops = 0, climb_hops = 0, descend_hops = 0;
  double summed_cost = 0.0, move_s = 0.0, query_s = 0.0;
  std::uint64_t ops = 0;
  run.e2e.start_loop(run.options.seconds, kWindowRounds);
  bool counting = true;  // inside the count window
  while (run.checker.ok() && run.e2e.more_rounds()) {
    for (int step = 0; step < kStepsPerRound; ++step) {
      const auto object = static_cast<ObjectId>(rng.below(kObjects));
      const auto neighbors = graph.neighbors(position[object]);
      const NodeId to = neighbors[rng.below(neighbors.size())].to;
      const double distance = manhattan(position[object], to, kSide);
      position[object] = to;
      mot::MoveResult moved;
      {
        Scope scope(run.spans, "tracking.move");
        const Clock::time_point t0 = Clock::now();
        moved = tracker.move(object, to);
        const Clock::duration took = Clock::now() - t0;
        run.e2e.moves().add(took);
        move_s += std::chrono::duration<double>(took).count();
      }
      run.checker.cost_at_least(moved.cost, distance, "move");
      summed_cost += moved.cost;

      const auto target = static_cast<ObjectId>(rng.below(kObjects));
      const auto origin = static_cast<NodeId>(rng.below(n));
      mot::QueryResult answered;
      {
        Scope scope(run.spans, "tracking.query");
        const Clock::time_point t0 = Clock::now();
        answered = tracker.query(origin, target);
        const Clock::duration took = Clock::now() - t0;
        run.e2e.locates().add(took);
        query_s += std::chrono::duration<double>(took).count();
      }
      run.checker.that(answered.found, "locate not answered");
      run.checker.answer(answered.proxy, position[target], position[target], "locate");
      const double query_distance = manhattan(origin, answered.proxy, kSide);
      run.checker.cost_at_least(answered.cost, query_distance, "locate");
      summed_cost += answered.cost;
      ops += 2;
      if (counting) {
        run.e2e.move_cost += moved.cost;
        run.e2e.move_optimal += distance;
        run.e2e.query_cost += answered.cost;
        run.e2e.query_optimal += std::max(query_distance, 1.0);
      }
    }
    if (run.e2e.end_round(ops)) {
      counting = false;
      run.e2e.window_messages = tracker.meter().total_messages() - messages_start;
      const std::vector<std::size_t> load = tracker.load_per_node();
      run.e2e.max_node_load = *std::max_element(load.begin(), load.end());
      route_hops = run.counts.count(Ev::kRouteHop) - route_start;
      climb_hops = run.counts.count(Ev::kClimbHop) - climb_start;
      descend_hops = run.counts.count(Ev::kDescendHop) - descend_start;
    }
  }
  run.e2e.stop_loop(ops);

  run.checker.sums_match(summed_cost, tracker.meter().total_distance() - meter_start,
                         "meter");
  for (ObjectId o = 0; o < kObjects; ++o) {
    run.checker.answer(tracker.proxy_of(o), position[o], position[o], "proxy");
  }
  tracker.chain().validate_all();  // aborts on a broken chain

  if (!run.options.trace) return;
  LayerMetrics& layers = run.layers;
  layers.add_setup(reps, *paper->world->hierarchy);
  const double window_ops = static_cast<double>(run.e2e.window_ops);
  layers.set("tracking.move_s", move_s);
  layers.set("tracking.query_s", query_s);
  layers.set("debruijn.route_hops_per_op", static_cast<double>(route_hops) / window_ops);
  layers.set("tracking.climb_hops_per_op", static_cast<double>(climb_hops) / window_ops);
  layers.set("tracking.descend_hops_per_op", static_cast<double>(descend_hops) / window_ops);
}

}  // namespace perfbench
