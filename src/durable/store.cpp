#include "durable/store.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>

#include "obs/flight_recorder.hpp"
#include "util/log.hpp"

namespace mot::durable {

namespace {

// True when every overlay node the image names is a role of
// `hierarchy` and every object sits on a node of its graph: what the
// engines' restore_durable_image() indexes without further checks.
bool fits_hierarchy(const StateImage& image,
                    const DoublingHierarchy& hierarchy) {
  const std::size_t n = hierarchy.graph().num_nodes();
  const auto is_role = [&](const OverlayNode& role) {
    return role.level >= 0 && role.level <= hierarchy.height() &&
           role.node < n && hierarchy.is_member(role.level, role.node);
  };
  for (const RoleImage& role : image.roles) {
    if (!is_role(role.role)) return false;
    for (const auto& entry : role.dl) {
      if (!is_role(entry.child)) return false;
      if (entry.sp.has_value() && !is_role(*entry.sp)) return false;
    }
    for (const auto& entry : role.sdl) {
      if (!std::all_of(entry.children.begin(), entry.children.end(),
                       is_role)) {
        return false;
      }
    }
  }
  const auto on_graph = [n](const auto& position) {
    return position.second < n;
  };
  return std::all_of(image.proxies.begin(), image.proxies.end(), on_graph) &&
         std::all_of(image.physical.begin(), image.physical.end(), on_graph);
}

void set_counter(obs::MetricsRegistry& registry, const std::string& name,
                 const obs::Labels& labels, std::uint64_t value) {
  auto& counter = registry.counter(name, labels);
  counter.reset();
  counter.increment(value);
}

}  // namespace

void export_durable_stats(const DurableStats& stats,
                          obs::MetricsRegistry& registry,
                          const obs::Labels& labels) {
  registry.gauge("snapshot_bytes", labels)
      .set(static_cast<double>(stats.snapshot_bytes));
  set_counter(registry, "journal_records", labels, stats.journal_records);
  set_counter(registry, "journal_replayed", labels, stats.journal_replayed);
  set_counter(registry, "restore_fallbacks", labels,
              stats.restore_fallbacks);
  set_counter(registry, "snapshots_written", labels,
              stats.snapshots_written);
}

DurableStore::DurableStore(const Options& options) : options_(options) {
  if (::mkdir(options_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    MOT_LOG_WARN("durable: mkdir(%s) failed: errno=%d",
                 options_.dir.c_str(), errno);
  }
  if (!journal_.open(journal_path(), options_.fsync)) {
    MOT_LOG_WARN("durable: journal unavailable, durability disabled");
  }
}

void DurableStore::record(const JournalRecord& record) {
  if (!journal_.is_open()) return;
  if (journal_.append(record)) ++stats_.journal_records;
}

void DurableStore::commit() {
  if (!journal_.is_open()) return;
  journal_.commit();
  ++stats_.commits;
}

bool DurableStore::write_snapshot(const Graph& graph,
                                  const DoublingHierarchy& hierarchy,
                                  const StateImage& image) {
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(world_fingerprint(graph, hierarchy), image);
  if (!write_snapshot_file(snapshot_path(), bytes)) return false;
  stats_.snapshot_bytes = bytes.size();
  ++stats_.snapshots_written;
  // Compaction: everything journaled so far is folded into the snapshot.
  if (journal_.is_open() && !journal_.reset()) {
    MOT_LOG_WARN("durable: journal compaction failed after snapshot");
    return false;
  }
  return true;
}

DurableStore::RestoreResult DurableStore::restore(
    const Graph& graph, const DoublingHierarchy& hierarchy) {
  RestoreResult result;
  SnapshotDecodeResult snapshot = read_snapshot_file(snapshot_path());
  result.error = snapshot.error;
  if (result.error == RestoreError::kNone &&
      snapshot.fingerprint != world_fingerprint(graph, hierarchy)) {
    result.error = RestoreError::kWorldMismatch;
  }
  if (result.error == RestoreError::kNone) {
    JournalReadResult journal = read_journal(journal_path());
    if (journal.error != JournalError::kNone) {
      result.error = RestoreError::kJournalError;
      result.journal_error = journal.error;
    } else {
      if (journal.truncated_bytes > 0) {
        MOT_LOG_INFO("durable: dropped %zu torn journal tail bytes",
                     journal.truncated_bytes);
      }
      MutableState state(snapshot.image);
      for (const JournalRecord& record : journal.records) {
        if (!state.apply(record)) {
          MOT_LOG_WARN("durable: journal op %s did not apply; falling back",
                       journal_op_name(record.op));
          result.error = RestoreError::kReplayFailed;
          break;
        }
        ++result.journal_replayed;
      }
      if (result.error == RestoreError::kNone) {
        result.image = state.to_image();
        if (fits_hierarchy(result.image, hierarchy)) {
          stats_.journal_replayed += result.journal_replayed;
        } else {
          result.error = RestoreError::kBadSnapshot;
          result.image = StateImage{};
        }
      }
    }
  }
  if (result.error != RestoreError::kNone) {
    result.journal_replayed = 0;
    if (result.error != RestoreError::kNoSnapshot) {
      // Data was present but unusable: preserve the last moments for
      // the post-mortem, then count the rebuild fallback.
      ++stats_.restore_fallbacks;
      if (auto* recorder = obs::flight_recorder()) {
        recorder->dump("restore-failure");
      }
      MOT_LOG_WARN("durable: restore failed (%s), falling back to rebuild",
                   restore_error_name(result.error));
    }
  }
  return result;
}

}  // namespace mot::durable
