// Versioned binary snapshot of the tracking state (DESIGN.md §14): a
// canonical image of the chain / detection-list state either engine
// (ChainTracker, DistributedMot) exports, stamped with a fingerprint of
// the world it lives over. The overlay itself is not stored: it is a
// deterministic function of graph + seed, and the caller rebuilds it.
// Restore = decode snapshot + check the fingerprint against the
// caller's graph and hierarchy + replay the journal suffix onto a
// MutableState, then hand the resulting image back to a fresh engine.
//
// The StateImage is *canonical* (see canonicalize()). Two engines whose
// observable state is equal export byte-equal images regardless of
// hash-map iteration history, which is what makes image equality a
// usable parity oracle in tests and the chaos harness.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "durable/journal.hpp"
#include "hier/doubling_hierarchy.hpp"

namespace mot::durable {

enum class RestoreError : std::uint8_t {
  kNone = 0,
  kNoSnapshot,     // snapshot file absent
  kIoError,        // open/read syscall failure
  kBadMagic,       // not a snapshot file
  kBadVersion,     // format version 0 or outside [floor, current]
  kCrcMismatch,    // payload bytes fail the whole-file CRC
  kBadRecord,      // payload undecodable despite a good CRC
  kWorldMismatch,  // snapshot was taken over another graph or hierarchy
  kBadSnapshot,    // image names a role or node the hierarchy lacks
  kReplayFailed,   // a journal record did not apply cleanly
  kJournalError,   // journal unreadable (see JournalError)
};

const char* restore_error_name(RestoreError error);

// One overlay role's durable state.
struct RoleImage {
  struct DlEntry {
    std::uint32_t object = 0;
    OverlayNode child;
    std::optional<OverlayNode> sp;

    bool operator==(const DlEntry&) const = default;
  };
  struct SdlEntry {
    std::uint32_t object = 0;
    // Registration order, not sorted: engines append and scan in
    // arrival order, and replayed SdlAdds must reproduce it.
    std::vector<OverlayNode> children;

    bool operator==(const SdlEntry&) const = default;
  };

  OverlayNode role;
  std::vector<DlEntry> dl;    // sorted by object
  std::vector<SdlEntry> sdl;  // sorted by object

  bool operator==(const RoleImage&) const = default;
};

struct StateImage {
  std::vector<RoleImage> roles;  // sorted by (node, level); empties omitted
  // object -> node maps, sorted by object.
  std::vector<std::pair<std::uint32_t, NodeId>> proxies;
  std::vector<std::pair<std::uint32_t, NodeId>> physical;

  // Puts the image in canonical order: roles sorted by (node, level),
  // DL and SDL entries sorted by object, empty SDL entries and empty
  // roles dropped, proxy/physical maps sorted by object. Engines export
  // in hash-map iteration order and call this once.
  void canonicalize();

  // FNV-1a over the canonical encoding: equal images, equal digests.
  std::uint64_t digest() const;

  bool operator==(const StateImage&) const = default;
};

// Indexed, mutable form of a StateImage that journal replay applies to.
// apply() is strict for point ops — a publish/insert/delete/splice that
// does not match the current state returns false (snapshot and journal
// disagree; the caller falls back to rebuild) — and tolerant for the
// wipe ops, which erase whatever is present (their engine counterparts
// are sweeps over possibly-already-empty state).
class MutableState {
 public:
  MutableState() = default;
  explicit MutableState(const StateImage& image);

  bool apply(const JournalRecord& record);
  StateImage to_image() const;

 private:
  struct Entry {
    OverlayNode child;
    std::optional<OverlayNode> sp;
  };
  struct Role {
    std::map<std::uint32_t, Entry> dl;
    std::map<std::uint32_t, std::vector<OverlayNode>> sdl;
  };
  // Keyed (node, level): the canonical role order of StateImage.
  std::map<std::pair<NodeId, int>, Role> roles_;
  std::map<std::uint32_t, NodeId> proxies_;
  std::map<std::uint32_t, NodeId> physical_;
};

// Fingerprint of the world the state lives over: the network (node
// count plus weighted adjacency) and the overlay built on it (its whole
// export_state()). A snapshot only restores onto the same graph and the
// same hierarchy; a hierarchy built with another seed does not match.
std::uint64_t world_fingerprint(const Graph& graph,
                                const DoublingHierarchy& hierarchy);

// --- Snapshot file codec ---------------------------------------------
//
//   [u32 magic 'MOTS'][u32 crc32 over payload][payload]
//   payload = u8 version, then tagged fields:
//     2 fixed64 world_fingerprint   4 bytes state-image section
// Unknown payload fields are skipped, so additive format growth keeps
// old snapshots loadable (same contract as the wire frames). Fields 1
// (node count) and 3 (hierarchy CSR) are retired: older snapshots still
// decode, and their graph-only fingerprint then reads as a world
// mismatch, which takes the typed rebuild fallback.

std::vector<std::uint8_t> encode_snapshot(std::uint64_t fingerprint,
                                          const StateImage& image);

struct SnapshotDecodeResult {
  RestoreError error = RestoreError::kNone;
  std::uint64_t fingerprint = 0;
  StateImage image;
};

SnapshotDecodeResult decode_snapshot(std::span<const std::uint8_t> bytes);

// Whole-file helpers. write_snapshot_file() writes tmp + fsync + rename
// so a crash never leaves a half-written snapshot under the real name.
bool write_snapshot_file(const std::string& path,
                         std::span<const std::uint8_t> bytes);
SnapshotDecodeResult read_snapshot_file(const std::string& path);

}  // namespace mot::durable
