#include "world.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "graph/generators.hpp"

namespace perfbench {

namespace {

// Name and unit of every per-layer metric, in report order.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"graph.build_s", "s"},
    {"hier.build_s", "s"},
    {"hier.cpu_s", "s"},
    {"hier.minor_faults", "count"},
    {"hier.height", "levels"},
    {"hier.mis_rounds", "count"},
    {"hier.parent_entries", "count"},
    {"core.warm_s", "s"},
    {"core.stops_per_climb", "stops"},
    {"debruijn.embed_s", "s"},
    {"debruijn.route_hops_per_op", "hops/op"},
    {"tracking.move_s", "s"},
    {"tracking.query_s", "s"},
    {"tracking.climb_hops_per_op", "hops/op"},
    {"tracking.descend_hops_per_op", "hops/op"},
    {"proto.inject_s", "s"},
    {"proto.messages_coalesced", "count"},
    {"proto.batch_flushes", "count"},
    {"proto.queries_parked", "count"},
    {"proto.queries_redirected", "count"},
    {"sim.run_s", "s"},
    {"sim.events_per_op", "events/op"},
    {"sim.ns_per_event", "ns"},
    {"link.data_sent", "count"},
    {"link.retx_per_op", "frames/op"},
    {"link.acks_sent", "count"},
    {"link.duplicates_suppressed", "count"},
    {"link.mean_ack_rtt", "simtime"},
    {"faults.dropped", "count"},
    {"faults.duplicated", "count"},
    {"faults.delayed", "count"},
    {"netio.bootstrap_s", "s"},
    {"netio.shard_cpu_s", "s"},
    {"netio.coordinator_cpu_s", "s"},
    {"netio.shard_busy", "ratio"},
    {"wire.bytes_per_op", "B/op"},
    {"wire.frames_per_flush", "frames"},
    {"wire.encodes_per_op", "frames/op"},
    {"proc.cpu_s", "s"},
    {"proc.invol_ctx_switches", "count"},
    {"proc.minor_faults", "count"},
};

constexpr std::uint64_t kHierarchySeed = 0x5eed;

}  // namespace

std::unique_ptr<World> build_world(std::size_t side, SpanLog& spans,
                                   SetupLayers* layers) {
  auto world = std::make_unique<World>();
  world->side = side;
  {
    Scope scope(spans, "graph.build");
    const Clock::time_point start = Clock::now();
    world->graph = mot::make_grid(side, side);
    world->oracle = mot::make_distance_oracle(world->graph);
    layers->graph_s = seconds_between(start, Clock::now());
  }
  {
    Scope scope(spans, "hier.build");
    mot::DoublingHierarchy::Params params;
    params.seed = kHierarchySeed;
    const Usage before = usage_now(RUSAGE_THREAD);
    const Clock::time_point start = Clock::now();
    world->hierarchy =
        mot::DoublingHierarchy::build(world->graph, *world->oracle, params);
    layers->hier_s = seconds_between(start, Clock::now());
    const Usage used = usage_delta(before, usage_now(RUSAGE_THREAD));
    layers->hier_cpu_s = used.cpu_s;
    layers->hier_minor_faults = static_cast<double>(used.minor_faults);
  }
  return world;
}

void warm_provider(const mot::MotPathProvider& provider, SpanLog& spans,
                   SetupLayers* layers) {
  Scope scope(spans, "core.warm");
  const Clock::time_point start = Clock::now();
  std::size_t stops = 0;
  for (mot::NodeId u = 0; u < provider.num_nodes(); ++u) {
    const auto sequence = provider.upward_sequence(u);
    stops += sequence.size();
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      (void)provider.special_parent(u, i);
    }
  }
  layers->warm_s = seconds_between(start, Clock::now());
  layers->stops_per_climb = static_cast<double>(stops) /
                            static_cast<double>(provider.num_nodes());
}

void embed_all(const mot::MotPathProvider& provider, SpanLog& spans,
               SetupLayers* layers) {
  Scope scope(spans, "debruijn.embed");
  const Clock::time_point start = Clock::now();
  const mot::Hierarchy& hierarchy = provider.hierarchy();
  for (int level = 1; level <= hierarchy.height(); ++level) {
    for (const mot::NodeId member : hierarchy.members(level)) {
      (void)provider.embedding({level, member});
    }
  }
  layers->embed_s = seconds_between(start, Clock::now());
}

mot::MotOptions paper_options() {
  mot::MotOptions options;
  options.use_parent_sets = true;
  options.use_special_parents = true;
  return options;
}

LayerMetrics::LayerMetrics() {
  for (const auto& [name, unit] : kLayerMetrics) {
    values_.push_back({name, {0.0, unit}});
  }
}

void LayerMetrics::set(const std::string& name, double value) {
  for (auto& entry : values_) {
    if (entry.first == name) {
      entry.second.first = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
               name.c_str());
  std::abort();
}

void LayerMetrics::add_setup(const std::vector<SetupLayers>& reps,
                             const mot::DoublingHierarchy& hierarchy) {
  const auto med = [&reps](double SetupLayers::*field) {
    std::vector<double> values;
    for (const SetupLayers& rep : reps) values.push_back(rep.*field);
    return median(values);
  };
  set("graph.build_s", med(&SetupLayers::graph_s));
  set("hier.build_s", med(&SetupLayers::hier_s));
  set("hier.cpu_s", med(&SetupLayers::hier_cpu_s));
  set("hier.minor_faults", med(&SetupLayers::hier_minor_faults));
  set("core.warm_s", med(&SetupLayers::warm_s));
  set("core.stops_per_climb", med(&SetupLayers::stops_per_climb));
  set("debruijn.embed_s", med(&SetupLayers::embed_s));
  const mot::DoublingHierarchy::State state = hierarchy.export_state();
  std::size_t parent_entries = 0;
  for (const auto& level : state.levels) parent_entries += level.parent_data.size();
  set("hier.height", hierarchy.height());
  set("hier.mis_rounds", static_cast<double>(hierarchy.total_mis_rounds()));
  set("hier.parent_entries", static_cast<double>(parent_entries));
}

void LayerMetrics::emit(Report& report) const {
  for (const auto& [name, entry] : values_) {
    report.set(name, entry.first, entry.second);
  }
}

void EndToEnd::start_loop(double run_seconds, int window_rounds) {
  run_seconds_ = run_seconds;
  window_rounds_ = window_rounds;
  loop_start_ = slice_start_ = Clock::now();
}

bool EndToEnd::more_rounds() const {
  return rounds_ < window_rounds_ ||
         seconds_between(loop_start_, Clock::now()) < run_seconds_;
}

bool EndToEnd::end_round(std::uint64_t ops_so_far) {
  const Clock::time_point now = Clock::now();
  const double due = run_seconds_ * static_cast<double>(slices_.size()) / kSlices;
  if (static_cast<int>(slices_.size()) < kSlices &&
      seconds_between(loop_start_, now) >= due) {
    close_slice(ops_so_far, now);
    slices_.emplace_back();
  }
  if (++rounds_ != window_rounds_) return false;
  window_ops = ops_so_far;
  peak_rss_mb = perfbench::peak_rss_mb();
  return true;
}

void EndToEnd::close_slice(std::uint64_t ops_so_far, Clock::time_point now) {
  Slice& slice = slices_.back();
  slice.ops = ops_so_far - slice_ops_start_;
  slice.seconds = seconds_between(slice_start_, now);
  slice_ops_start_ = ops_so_far;
  slice_start_ = now;
}

void EndToEnd::stop_loop(std::uint64_t ops_so_far) {
  const Clock::time_point now = Clock::now();
  close_slice(ops_so_far, now);
  loop_s = seconds_between(loop_start_, now);
  ops = ops_so_far;
  std::vector<double> rate, m50, m99, l50, l99;
  for (const Slice& slice : slices_) {
    if (slice.ops == 0) continue;
    rate.push_back(static_cast<double>(slice.ops) / slice.seconds);
    m50.push_back(slice.moves.percentile_us(0.50));
    m99.push_back(slice.moves.percentile_us(0.99));
    l50.push_back(slice.locates.percentile_us(0.50));
    l99.push_back(slice.locates.percentile_us(0.99));
  }
  ops_per_s = median(rate);
  move_p50_us = median(m50);
  move_p99_us = median(m99);
  locate_p50_us = median(l50);
  locate_p99_us = median(l99);
}

void emit_end_to_end(const EndToEnd& e2e, Report& report) {
  const double window_ops = static_cast<double>(std::max<std::uint64_t>(e2e.window_ops, 1));
  report.set("setup_s", median(e2e.setup_s), "s");
  report.set("ops_per_s", e2e.ops_per_s, "1/s");
  report.set("move_p50_us", e2e.move_p50_us, "us");
  report.set("move_p99_us", e2e.move_p99_us, "us");
  report.set("locate_p50_us", e2e.locate_p50_us, "us");
  report.set("locate_p99_us", e2e.locate_p99_us, "us");
  report.set("peak_rss_mb", e2e.peak_rss_mb, "MB");
  report.set("msgs_per_op", static_cast<double>(e2e.window_messages) / window_ops,
             "msgs/op");
  report.set("maint_cost_ratio", e2e.move_cost / e2e.move_optimal, "ratio");
  report.set("query_cost_ratio", e2e.query_cost / e2e.query_optimal, "ratio");
  report.set("max_node_load", static_cast<double>(e2e.max_node_load), "entries");
}

}  // namespace perfbench
