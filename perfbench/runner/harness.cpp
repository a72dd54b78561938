#include "harness.hpp"

#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

Checker::Checker(const std::string& corrupt, std::size_t num_nodes)
    : corrupt_position_(corrupt == "position"),
      corrupt_bound_(corrupt == "bound"),
      corrupt_meter_(corrupt == "meter"),
      num_nodes_(num_nodes) {}

void Checker::fail(const std::string& message) {
  // Report the first few; a broken run can fail on every operation.
  if (failures_ < 5) std::fprintf(stderr, "check failed: %s\n", message.c_str());
  ++failures_;
}

void Checker::that(bool condition, const std::string& what) {
  if (!condition) fail(what);
}

void Checker::answer(mot::NodeId got, mot::NodeId expect_a,
                     mot::NodeId expect_b, const char* what) {
  if (corrupt_position_) {
    expect_a = static_cast<mot::NodeId>((expect_a + 1) % num_nodes_);
    expect_b = static_cast<mot::NodeId>((expect_b + 1) % num_nodes_);
  }
  if (got != expect_a && got != expect_b) {
    fail(std::string(what) + ": answered node " + std::to_string(got) +
         ", expected " + std::to_string(expect_a) +
         (expect_a != expect_b ? " or " + std::to_string(expect_b) : ""));
  }
}

void Checker::cost_at_least(double cost, double lower_bound,
                            const char* what) {
  if (corrupt_bound_) lower_bound = cost + 1.0 + lower_bound;
  if (!(cost >= lower_bound)) {
    fail(std::string(what) + ": cost " + std::to_string(cost) +
         " below the grid distance " + std::to_string(lower_bound));
  }
}

void Checker::sums_match(double summed, double metered, const char* what) {
  if (corrupt_meter_) summed += 1.0;
  // Grid costs are whole numbers, so the sums are exact; the tolerance
  // only absorbs a different summation order across shards.
  if (std::fabs(summed - metered) > 1e-9 * (1.0 + std::fabs(metered))) {
    fail(std::string(what) + ": per-operation costs sum to " +
         std::to_string(summed) + " but the meter holds " +
         std::to_string(metered));
  }
}

void LatencyHistogram::add(Clock::duration elapsed) {
  const auto ns = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  std::size_t index;
  if (ns < (1u << kSubBits)) {
    index = ns;
  } else {
    const int exponent = std::bit_width(ns) - 1;  // >= kSubBits
    const int shift = exponent - kSubBits;
    index = (static_cast<std::size_t>(shift + 1) << kSubBits) +
            static_cast<std::size_t>((ns >> shift) - (1u << kSubBits));
  }
  ++buckets_[index];
  ++count_;
}

double LatencyHistogram::percentile_us(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t index = 0; index < buckets_.size(); ++index) {
    seen += buckets_[index];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      if (index < (1u << kSubBits)) return static_cast<double>(index) / 1e3;
      const std::size_t shift = (index >> kSubBits) - 1;
      const double low = static_cast<double>(
          ((index & ((1u << kSubBits) - 1)) + (1u << kSubBits)) << shift);
      const double width = static_cast<double>(std::uint64_t{1} << shift);
      return (low + width / 2.0) / 1e3;
    }
  }
  return 0.0;
}

Usage usage_now(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage usage;
  usage.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  usage.minor_faults = ru.ru_minflt;
  usage.invol_switches = ru.ru_nivcsw;
  return usage;
}

Usage usage_delta(const Usage& before, const Usage& after) {
  return {after.cpu_s - before.cpu_s, after.minor_faults - before.minor_faults,
          after.invol_switches - before.invol_switches};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled) {
  if (enabled_) kept_.reserve(1u << 16);
}

std::uint32_t SpanLog::begin(const char* name) {
  const Clock::time_point now = Clock::now();
  std::uint32_t token = 0;
  if (kept_.size() < kMaxKept) {
    std::uint32_t parent = 0;
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
      if (*it != 0) {
        parent = *it;
        break;
      }
    }
    kept_.push_back({name, parent,
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         now - origin_).count(),
                     0});
    token = static_cast<std::uint32_t>(kept_.size());
  }
  open_.push_back(token);
  open_start_.push_back(now);
  return token;
}

void SpanLog::end(std::uint32_t token, const char* name) {
  const Clock::time_point now = Clock::now();
  const double elapsed = seconds_between(open_start_.back(), now);
  open_start_.pop_back();
  open_.pop_back();
  auto it = std::find_if(totals_.begin(), totals_.end(),
                         [name](const auto& entry) { return entry.first == name; });
  if (it == totals_.end()) it = totals_.insert(totals_.end(), {name, 0.0});
  it->second += elapsed;
  if (token != 0) {
    kept_[token - 1].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - origin_)
            .count();
  }
}

double SpanLog::seconds(const char* name) const {
  double total = 0.0;
  for (const auto& [key, seconds] : totals_) {
    if (std::strcmp(key, name) == 0) total += seconds;
  }
  return total;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  // Self time: the span's duration minus what its direct children cover.
  std::vector<std::int64_t> child_ns(kept_.size(), 0);
  for (const Span& span : kept_) {
    if (span.parent != 0) child_ns[span.parent - 1] += span.end_ns - span.start_ns;
  }
  std::fprintf(out, "id\tname\tparent\tstart_ns\tend_ns\tself_ns\n");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& span = kept_[i];
    std::fprintf(out, "%zu\t%s\t%u\t%lld\t%lld\t%lld\n", i + 1, span.name,
                 span.parent, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.end_ns - span.start_ns -
                                        child_ns[i]));
  }
  return std::fclose(out) == 0;
}

TraceCounts::TraceCounts(bool enabled) : enabled_(enabled) {
  if (enabled_) mot::obs::install_trace_sink(&sink_);
}

TraceCounts::~TraceCounts() {
  if (enabled_) mot::obs::install_trace_sink(nullptr);
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

std::string Report::result_line(bool correct, std::uint64_t attempted,
                                std::uint64_t failed) const {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.12g",
                  std::isfinite(entry.first) ? entry.first : 0.0);
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            entry.second + "\"}";
  }
  line += "}}";
  return line;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

#if defined(__clang__)
const std::string kCompiler = std::string("clang ") + __VERSION__;
#else
const std::string kCompiler = std::string("g++ ") + __VERSION__;
#endif

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

std::string host_stamp_json(std::string* refusal) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  std::string sanitizer = "none";
#if defined(__SANITIZE_ADDRESS__)
  sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  sanitizer = "thread";
#endif
  if (sanitizer == "none" && flags.find("-fsanitize") != std::string::npos) {
    sanitizer = "flags";
  }
  refusal->clear();
  if (build_type == "Debug") {
    *refusal = "Debug build";
  } else if (sanitizer != "none") {
    *refusal = "sanitizer build (" + sanitizer + ")";
  }
#if !defined(NDEBUG)
  if (refusal->empty()) *refusal = "assertions enabled (NDEBUG unset)";
#endif
  std::string json = "{\"cpu\": \"" + json_escape(cpu_model()) + "\"";
  json += ", \"cores\": " + std::to_string(std::thread::hardware_concurrency());
  json += ", \"compiler\": \"" + json_escape(kCompiler) + "\"";
  json += ", \"build_type\": \"" + json_escape(build_type) + "\"";
  json += ", \"cxx_flags\": \"" + json_escape(flags) + "\"";
  json += ", \"sanitizer\": \"" + sanitizer + "\"}";
  return json;
}

}  // namespace perfbench
