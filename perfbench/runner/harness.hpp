// Shared machinery of the tracker benchmark runner: command-line
// options, the answer checker (with its deliberate-corruption modes for
// the self-check), latency histograms, process/thread resource clocks,
// the traced run's span log and counting trace sink, and the result
// line every run prints last.
#pragma once

#include <sys/resource.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-check only: "position", "bound" or "meter" corrupts one family
  // of expectations so that a correct run must fail its checks.
  std::string corrupt;
  // Traced runs write their span log here when the run ends ("" = keep
  // it in memory only).
  std::string spans_path;
};

// Collects every failed check of a run. A run with any failure prints
// the failures to stderr and no result line, and exits non-zero.
class Checker {
 public:
  Checker(const std::string& corrupt, std::size_t num_nodes);

  bool ok() const { return failures_ == 0; }
  void that(bool condition, const std::string& what);
  // The answer must be one of the positions the benchmark itself last
  // gave the object (two when the query overlapped a move of it).
  void answer(mot::NodeId got, mot::NodeId expect_a, mot::NodeId expect_b,
              const char* what);
  // A metered cost can never undercut the grid distance it spans.
  void cost_at_least(double cost, double lower_bound, const char* what);
  // The per-operation costs must add up to what the meter recorded.
  void sums_match(double summed, double metered, const char* what);

 private:
  void fail(const std::string& message);

  bool corrupt_position_ = false;
  bool corrupt_bound_ = false;
  bool corrupt_meter_ = false;
  std::size_t num_nodes_;
  std::uint64_t failures_ = 0;
};

// Log-linear latency histogram in nanoseconds: 128 sub-buckets per
// power of two, so any reported percentile is within 0.8% of the sample.
class LatencyHistogram {
 public:
  void add(Clock::duration elapsed);
  // Percentile q in [0, 1], in microseconds (bucket midpoint).
  double percentile_us(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) << kSubBits;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
};

// Manhattan distance between two cells of a side x side grid, computed
// from the node numbering alone (row-major), apart from the program's
// distance oracle.
inline double manhattan(mot::NodeId a, mot::NodeId b, std::size_t side) {
  const long ar = static_cast<long>(a / side), ac = static_cast<long>(a % side);
  const long br = static_cast<long>(b / side), bc = static_cast<long>(b % side);
  return static_cast<double>(std::labs(ar - br) + std::labs(ac - bc));
}

// The benchmark's own input generator (splitmix64), kept apart from the
// program's RNG so that inputs depend only on --seed and this file.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

 private:
  std::uint64_t state_;
};

// getrusage deltas.
struct Usage {
  double cpu_s = 0.0;
  std::int64_t minor_faults = 0;
  std::int64_t invol_switches = 0;
};
Usage usage_now(int who);  // RUSAGE_SELF or RUSAGE_THREAD
Usage usage_delta(const Usage& before, const Usage& after);
double peak_rss_mb();
double thread_cpu_s();  // CPU clock of the calling thread

// Benchmark-side spans around calls into the program's layers. Every
// span's time is summed by name; the first kMaxKept are also kept in memory
// with start, end and parent, and written out when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint32_t parent;  // index + 1 of the enclosing span, 0 = none
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  explicit SpanLog(bool enabled);
  bool enabled() const { return enabled_; }
  std::uint32_t begin(const char* name);
  void end(std::uint32_t token, const char* name);
  double seconds(const char* name) const;
  // Writes kept spans as TSV (name, parent, start_ns, end_ns, self_ns).
  bool write(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxKept = 1u << 18;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> kept_;
  std::vector<std::uint32_t> open_;  // stack of kept indices + 1 (0: not kept)
  // Summed seconds per name. Few distinct names, all string literals:
  // found by pointer.
  std::vector<std::pair<const char*, double>> totals_;
  std::vector<Clock::time_point> open_start_;
};

// RAII span; free when the log is disabled.
class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), name_(name) {
    if (log_.enabled()) token_ = log_.begin(name_);
  }
  ~Scope() {
    if (log_.enabled()) log_.end(token_, name_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  std::uint32_t token_ = 0;
};

// Counts trace events by type. Installed process-wide in traced runs;
// shard threads emit concurrently, so the counters are atomic.
class CountingSink final : public mot::obs::TraceSink {
 public:
  void on_event(const mot::obs::TraceEvent& event) override {
    counts_[static_cast<std::size_t>(event.type)].fetch_add(
        1, std::memory_order_relaxed);
  }
  std::uint64_t count(mot::obs::Ev type) const {
    return counts_[static_cast<std::size_t>(type)].load(
        std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, 256> counts_{};
};

// Installs a CountingSink for the lifetime of the object when enabled.
class TraceCounts {
 public:
  explicit TraceCounts(bool enabled);
  ~TraceCounts();
  TraceCounts(const TraceCounts&) = delete;
  TraceCounts& operator=(const TraceCounts&) = delete;
  std::uint64_t count(mot::obs::Ev type) const {
    return sink_.count(type);
  }

 private:
  bool enabled_;
  CountingSink sink_;
};

// The metrics of one run, printed as the last line of stdout.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string result_line(bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

double median(std::vector<double> values);

// Host and build facts: CPU model, cores, compiler, build type,
// sanitizer. Returns "" and sets *refusal when this build must not
// report numbers (Debug, assertions on, or a sanitizer).
std::string host_stamp_json(std::string* refusal);

}  // namespace perfbench
