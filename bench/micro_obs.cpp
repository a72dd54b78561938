// micro_obs: what does observability cost?
//
// Three figures back the DESIGN.md §12 overhead claims:
//   - the unsinked emission guard (`if (obs::tracing())` with no sink
//     installed): one global load and a never-taken branch. Measured
//     with a compiler barrier per iteration — without it the optimizer
//     hoists the load and the loop folds to nothing, which is the real
//     hot-loop behavior and the sense in which unsinked is zero-cost;
//   - cluster throughput traced vs untraced: the same loopback-TCP
//     cluster the parity tests drive (threaded here), timed with no
//     sink, a shared in-memory ring, and a JSONL file sink. Span
//     derivation + sink cost amortize against real protocol and socket
//     work, which is where the <5% ring claim lives (BENCH_obs.json
//     records the run);
//   - raw per-event sink cost, so the cluster numbers can be sanity
//     checked against events x cost-per-event.
//
//   micro_obs --emit-json BENCH_obs.json
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "micro_cluster.hpp"
#include "micro_common.hpp"
#include "obs/trace.hpp"

namespace {

using mot::bench::World;

// Nanoseconds per unsinked emission guard. The barrier forces the
// g_sink load every iteration; without it the loop folds away entirely
// (which is the honest hot-loop number: zero).
double unsinked_emit_ns(std::uint64_t iters) {
  mot::obs::install_trace_sink(nullptr);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    asm volatile("" ::: "memory");
    if (mot::obs::tracing()) {
      mot::obs::emit({.type = mot::obs::Ev::kMsgSend, .object = i});
    }
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  return wall.count() * 1e9 / static_cast<double>(iters);
}

// Nanoseconds per event delivered into `sink` (construction included).
double sinked_emit_ns(mot::obs::TraceSink* sink, std::uint64_t iters) {
  mot::obs::TraceSink* previous = mot::obs::install_trace_sink(sink);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    if (mot::obs::tracing()) {
      mot::obs::emit({.type = mot::obs::Ev::kMsgSend,
                      .t = static_cast<double>(i),
                      .object = i,
                      .label = "bench"});
    }
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  mot::obs::install_trace_sink(previous);
  return wall.count() * 1e9 / static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  const mot::bench::CommonFlags common = mot::bench::parse_common(
      argc, argv,
      "observability overhead: unsinked emit guard; traced vs untraced "
      "loopback-cluster throughput (ring and JSONL sinks)");
  const std::size_t side = common.full ? 12 : 8;
  // Long runs: on a busy box the scheduler noise on a short cluster run
  // dwarfs the ~1-2% ring overhead; ~0.1s+ per run converges it.
  const int steps =
      common.moves != 0 ? static_cast<int>(common.moves)
                        : (common.full ? 2000 : 1000);
  const int reps = common.seeds != 0 ? static_cast<int>(common.seeds)
                                     : (common.full ? 15 : 9);
  constexpr std::uint32_t kShards = 2;
  const World world(side, common.base_seed + 7);

  const std::uint64_t guard_iters =
      common.full ? 400'000'000ULL : 100'000'000ULL;
  const double guard_ns = unsinked_emit_ns(guard_iters);
  mot::obs::RingBufferSink probe_ring(1 << 10);
  const double ring_event_ns = sinked_emit_ns(&probe_ring, 2'000'000);

  const std::string jsonl_path = "micro_obs_scratch.jsonl";
  mot::obs::RingBufferSink ring(1 << 18);
  auto jsonl = std::make_unique<mot::obs::JsonlFileSink>(jsonl_path);
  // Variant 0 is the untraced baseline; the harness interleaves and
  // rotates the order so drift lands on every sink equally.
  const std::vector<mot::obs::TraceSink*> sinks{nullptr, &ring,
                                                jsonl.get()};
  const std::vector<mot::bench::VariantStats> stats =
      mot::bench::measure_interleaved(
          sinks.size(), reps, [&](std::size_t v, int r) {
            mot::obs::TraceSink* previous =
                mot::obs::install_trace_sink(sinks[v]);
            const double wall = mot::bench::run_cluster(
                world, kShards, steps,
                common.base_seed + static_cast<std::uint64_t>(r),
                "micro-obs");
            mot::obs::install_trace_sink(previous);
            return wall;
          });
  jsonl->flush();
  const std::uint64_t events_written = jsonl->events_written();
  jsonl.reset();
  std::remove(jsonl_path.c_str());

  const double ops = 2.0 * steps + 1.0;  // moves + queries + the publish
  const char* names[] = {"disabled", "ring", "jsonl"};
  mot::Table table({"variant", "shards", "steps", "trimmed s", "ops/s",
                    "overhead %"});
  for (std::size_t v = 0; v < stats.size(); ++v) {
    table.begin_row()
        .cell(std::string(names[v]))
        .cell(static_cast<std::uint64_t>(kShards))
        .cell(static_cast<std::uint64_t>(steps))
        .cell(stats[v].seconds, 4)
        .cell(ops / stats[v].seconds, 1)
        .cell(stats[v].overhead, 2);
  }
  mot::bench::emit("cluster throughput, traced vs untraced", table, common);

  mot::Table guard({"guard ns/op", "ring event ns", "jsonl events/run",
                    "ring claim"});
  guard.begin_row()
      .cell(guard_ns, 3)
      .cell(ring_event_ns, 1)
      .cell(events_written / static_cast<std::uint64_t>(reps))
      .cell(std::string(stats[1].overhead < 5.0 ? "<5% ok" : "OVER 5%"));
  mot::bench::emit("emission cost", guard, common);
  return 0;
}
