// The four workloads. Each builds its world and engine several times
// (the set-up figure is their median), runs whole rounds of operations
// until the run length is reached, checks every answer and cost against
// its own bookkeeping, and fills the end-to-end record and, in a traced
// run, the per-layer record.
#pragma once

#include "harness.hpp"
#include "world.hpp"

namespace perfbench {

struct RunContext {
  const Options& options;
  Checker& checker;
  SpanLog& spans;
  TraceCounts& counts;
  EndToEnd& e2e;
  LayerMetrics& layers;
};

void run_fleet16k(RunContext& run);
void run_lossy4k(RunContext& run);
void run_cluster2(RunContext& run);
void run_paper1k(RunContext& run);

}  // namespace perfbench
