// The world every workload runs on (grid graph, distance oracle and
// doubling hierarchy) plus the measured set-up steps, and the record
// types a workload fills for the end-to-end and per-layer reports.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mot.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "hier/doubling_hierarchy.hpp"

namespace perfbench {

// Wall, CPU and page-fault cost of each set-up step of one build.
struct SetupLayers {
  double graph_s = 0.0;
  double hier_s = 0.0;
  double hier_cpu_s = 0.0;
  double hier_minor_faults = 0.0;
  double warm_s = 0.0;
  double stops_per_climb = 0.0;
  double embed_s = 0.0;
};

struct World {
  std::size_t side = 0;
  mot::Graph graph;
  std::unique_ptr<mot::DistanceOracle> oracle;
  std::unique_ptr<mot::DoublingHierarchy> hierarchy;
};

// Builds the side x side grid, its oracle and its hierarchy. The
// hierarchy seed is fixed: every run of a workload measures the same
// world, and --seed varies only the operations.
std::unique_ptr<World> build_world(std::size_t side, SpanLog& spans,
                                   SetupLayers* layers);

// One upward_sequence + special_parent pass over every sensor, which
// fills the provider's caches before any traffic (and before shard
// threads share the provider).
void warm_provider(const mot::MotPathProvider& provider, SpanLog& spans,
                   SetupLayers* layers);

// Builds the de Bruijn cluster embedding of every internal overlay node.
void embed_all(const mot::MotPathProvider& provider, SpanLog& spans,
               SetupLayers* layers);

mot::MotOptions paper_options();  // parent sets + special parents

// End-to-end record of one run.
//
// The timed loop runs whole rounds until the count window is complete and
// the run length has passed. It is cut into kSlices slices of equal run
// time (at round boundaries); throughput and latency percentiles are
// taken per slice and reported as the median over slices, so one stall
// of the host moves one slice, not the figure.
//
// The cost, message and load figures are taken over the count window:
// the run's first rounds, a fixed operation sequence for a given seed, so
// they repeat exactly.
struct EndToEnd {
  static constexpr int kSlices = 10;

  void start_loop(double run_seconds, int window_rounds);
  // True while another round is due: the count window is incomplete or
  // the run length has not passed.
  bool more_rounds() const;
  // Call after each whole round with the operations injected so far.
  // Returns true once, after the round that completes the count window;
  // peak RSS is read then, so it covers set-up and the count window and
  // does not depend on how many rounds the host manages afterwards.
  bool end_round(std::uint64_t ops_so_far);
  void stop_loop(std::uint64_t ops_so_far);
  LatencyHistogram& moves() { return slices_.back().moves; }
  LatencyHistogram& locates() { return slices_.back().locates; }

  std::vector<double> setup_s;  // one per set-up repetition
  double loop_s = 0.0;
  std::uint64_t ops = 0;
  double ops_per_s = 0.0;
  double move_p50_us = 0.0, move_p99_us = 0.0;
  double locate_p50_us = 0.0, locate_p99_us = 0.0;
  std::uint64_t window_ops = 0;
  std::uint64_t window_messages = 0;
  double move_cost = 0.0;
  double move_optimal = 0.0;
  double query_cost = 0.0;
  double query_optimal = 0.0;
  std::size_t max_node_load = 0;
  double peak_rss_mb = 0.0;

 private:
  struct Slice {
    std::uint64_t ops = 0;
    double seconds = 0.0;
    LatencyHistogram moves;
    LatencyHistogram locates;
  };
  void close_slice(std::uint64_t ops_so_far, Clock::time_point now);

  double run_seconds_ = 0.0;
  int window_rounds_ = 0;
  int rounds_ = 0;
  Clock::time_point loop_start_{};
  Clock::time_point slice_start_{};
  std::uint64_t slice_ops_start_ = 0;
  std::vector<Slice> slices_ = std::vector<Slice>(1);
};

// Per-layer figures of a traced run. Every metric is always printed, in
// a fixed order; a layer a workload does not use reads 0.
class LayerMetrics {
 public:
  LayerMetrics();
  void set(const std::string& name, double value);
  void add_setup(const std::vector<SetupLayers>& reps,
                 const mot::DoublingHierarchy& hierarchy);
  void emit(Report& report) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      values_;
};

void emit_end_to_end(const EndToEnd& e2e, Report& report);

}  // namespace perfbench
