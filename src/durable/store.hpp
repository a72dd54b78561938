// DurableStore: the durability engine behind the Sink interface the
// trackers journal into. Owns one directory holding
//
//   snapshot.mot   versioned snapshot (state image + world fingerprint)
//   journal.mot    append-only semantic journal since that snapshot
//
// and implements the recovery state machine of DESIGN.md §14:
//
//   restore():  read snapshot -> verify CRC/version, and the world
//               fingerprint against the caller's graph + hierarchy ->
//               read journal (torn tail dropped) -> strictly replay the
//               suffix onto the snapshot image -> check every role and
//               node the image names exists in the hierarchy. Any typed
//               failure dumps the flight ring and reports the error; the
//               caller falls back to the rebuild-from-physical-positions
//               path and then write_snapshot() to re-ground the store.
//   write_snapshot(): tmp + fsync + rename, then truncate the journal —
//               snapshot-triggered compaction; the journal only ever
//               holds the suffix since the last good snapshot.
#pragma once

#include <cstdint>
#include <string>

#include "durable/journal.hpp"
#include "durable/snapshot.hpp"
#include "obs/metrics_registry.hpp"

namespace mot::durable {

struct DurableStats {
  std::uint64_t snapshot_bytes = 0;      // size of the last snapshot
  std::uint64_t snapshots_written = 0;
  std::uint64_t journal_records = 0;     // appended by this process
  std::uint64_t journal_replayed = 0;    // replayed across restores
  std::uint64_t restore_fallbacks = 0;   // restores that fell back
  std::uint64_t commits = 0;
};

// Projects the stats into the registry (bench telemetry surface), same
// bridge shape as export_protocol_stats.
void export_durable_stats(const DurableStats& stats,
                          obs::MetricsRegistry& registry,
                          const obs::Labels& labels = {});

class DurableStore final : public Sink {
 public:
  struct Options {
    std::string dir;                     // created if absent (one level)
    FsyncMode fsync = FsyncMode::kGroup;
  };

  explicit DurableStore(const Options& options);

  // False if the journal could not be opened; record() is then a no-op
  // (the engine keeps running, durability is just off).
  bool ok() const { return journal_.is_open(); }

  std::string snapshot_path() const { return options_.dir + "/snapshot.mot"; }
  std::string journal_path() const { return options_.dir + "/journal.mot"; }

  // Sink: appends one semantic op to the journal.
  void record(const JournalRecord& record) override;

  // Group-commit point (e.g. end of a chaos round / batch flush).
  void commit();

  // Snapshots the image, stamped with the fingerprint of graph +
  // hierarchy, and compacts the journal.
  bool write_snapshot(const Graph& graph, const DoublingHierarchy& hierarchy,
                      const StateImage& image);

  struct RestoreResult {
    RestoreError error = RestoreError::kNone;
    JournalError journal_error = JournalError::kNone;  // with kJournalError
    StateImage image;                    // snapshot + replayed suffix
    std::size_t journal_replayed = 0;

    bool restored() const { return error == RestoreError::kNone; }
  };

  // Loads the durable state for the world of `graph` and the caller's
  // `hierarchy` over it (built first; the snapshot does not store it).
  // On failure the flight ring is dumped (reason "restore-failure") and
  // the caller is expected to rebuild and then write_snapshot() to
  // re-ground.
  RestoreResult restore(const Graph& graph,
                        const DoublingHierarchy& hierarchy);

  const DurableStats& stats() const { return stats_; }

 private:
  Options options_;
  JournalWriter journal_;
  DurableStats stats_;
};

}  // namespace mot::durable
