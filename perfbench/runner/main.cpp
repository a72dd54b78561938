// perfbench_runner: runs one workload of the tracker benchmark and
// prints its metrics as the last line of stdout.
//
//   perfbench_runner --workload fleet16k --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with benchmark-side spans and a counting trace sink and
// reports the per-layer metrics instead. A failed check prints what
// failed to stderr and exits non-zero without a result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunContext;

struct Workload {
  const char* name;
  std::size_t side;
  void (*run)(RunContext&);
};

constexpr Workload kWorkloads[] = {
    {"fleet16k", 128, perfbench::run_fleet16k},
    {"lossy4k", 64, perfbench::run_lossy4k},
    {"cluster2", 32, perfbench::run_cluster2},
    {"paper1k", 32, perfbench::run_paper1k},
};

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH] [--corrupt position|bound|meter]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else if (flag == "--corrupt") {
      options.corrupt = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (options.workload == candidate.name) workload = &candidate;
  }
  if (workload == nullptr) return usage("unknown workload");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  std::string refusal;
  const std::string stamp = perfbench::host_stamp_json(&refusal);
  std::printf("# host %s\n", stamp.c_str());
  if (!refusal.empty() && options.corrupt.empty()) {
    std::fprintf(stderr, "perfbench_runner: refusing to report numbers from a %s\n",
                 refusal.c_str());
    return 2;
  }

  const perfbench::Usage proc_start = perfbench::usage_now(RUSAGE_SELF);
  perfbench::Checker checker(options.corrupt, workload->side * workload->side);
  perfbench::SpanLog spans(options.trace);
  perfbench::TraceCounts counts(options.trace);
  perfbench::EndToEnd e2e;
  perfbench::LayerMetrics layers;
  RunContext run{options, checker, spans, counts, e2e, layers};
  {
    perfbench::Scope scope(spans, "run");
    workload->run(run);
  }
  if (!checker.ok()) {
    std::fprintf(stderr, "perfbench_runner: %s failed its checks\n", workload->name);
    return 1;
  }

  perfbench::Report report;
  if (options.trace) {
    const perfbench::Usage proc = perfbench::usage_delta(
        proc_start, perfbench::usage_now(RUSAGE_SELF));
    layers.set("proc.cpu_s", proc.cpu_s);
    layers.set("proc.invol_ctx_switches", static_cast<double>(proc.invol_switches));
    layers.set("proc.minor_faults", static_cast<double>(proc.minor_faults));
    layers.emit(report);
    std::printf("# traced ops_per_s %.6g\n",
                static_cast<double>(e2e.ops) / e2e.loop_s);
    if (!options.spans_path.empty() && !spans.write(options.spans_path)) {
      std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                   options.spans_path.c_str());
      return 1;
    }
  } else {
    perfbench::emit_end_to_end(e2e, report);
  }
  std::printf("%s\n", report.result_line(true, e2e.ops, 0).c_str());
  return 0;
}
