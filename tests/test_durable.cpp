// The durable layer's contracts (DESIGN.md §14): CRC known answers,
// journal record round-trip with unknown-field skip, the journal file's
// failure taxonomy (torn tail silently dropped, complete-frame rot
// typed, garbage typed — never UB), snapshot round-trip + hardening,
// MutableState replay strictness, the world fingerprint that binds a
// snapshot to the caller's graph + hierarchy, typed refusal of images
// the hierarchy cannot hold, and end-to-end restore parity for both
// tracking engines.
#include "durable/store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/mot.hpp"
#include "durable/journal.hpp"
#include "durable/snapshot.hpp"
#include "durable/version.hpp"
#include "graph/generators.hpp"
#include "hier/doubling_hierarchy.hpp"
#include "proto/distributed_mot.hpp"
#include "sim/event_sim.hpp"
#include "tracking/chain_tracker.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"

namespace mot {
namespace {

using durable::DurableStore;
using durable::FsyncMode;
using durable::JournalError;
using durable::JournalReadResult;
using durable::JournalRecord;
using durable::JournalWriter;
using durable::MutableState;
using durable::RestoreError;
using durable::StateImage;

using Bytes = std::vector<std::uint8_t>;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// One record of every op, fields chosen so no two share a value.
std::vector<JournalRecord> every_op() {
  return {
      JournalRecord::make_publish(7, 3),
      JournalRecord::make_insert({2, 5}, 8, {1, 6}, OverlayNode{3, 9}),
      JournalRecord::make_insert({2, 5}, 9, {1, 6}, std::nullopt),
      JournalRecord::make_delete({0, 4}, 10),
      JournalRecord::make_sdl_add({3, 2}, 11, {2, 7}),
      JournalRecord::make_sdl_remove({3, 2}, 11, {2, 7}),
      JournalRecord::make_splice({1, 1}, 12, {0, 8}),
      JournalRecord::make_sp_clear({1, 1}, 12),
      JournalRecord::make_proxy(13, 14),
      JournalRecord::make_physical(13, 15),
      JournalRecord::make_wipe_object(16),
      JournalRecord::make_wipe_role({4, 0}),
      JournalRecord::make_wipe_node(5),
  };
}

// --- CRC + record codec ------------------------------------------------

TEST(JournalCodec, Crc32KnownAnswer) {
  // The IEEE 802.3 check value for "123456789".
  const Bytes digits = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(durable::crc32(digits), 0xCBF43926u);
  EXPECT_EQ(durable::crc32(Bytes{}), 0u);
}

TEST(JournalCodec, EveryOpRoundTrips) {
  for (const JournalRecord& record : every_op()) {
    const Bytes payload = durable::encode_record(record);
    JournalRecord back;
    ASSERT_TRUE(durable::decode_record(payload, &back))
        << durable::journal_op_name(record.op);
    EXPECT_EQ(back, record) << durable::journal_op_name(record.op);
    // Encoding is a pure function of the fields: re-encode byte equality.
    EXPECT_EQ(durable::encode_record(back), payload);
  }
}

TEST(JournalCodec, DecoderSkipsUnknownFields) {
  // A future writer appends a field this decoder has never heard of
  // (tag 15, varint). Rolling upgrades require the old decoder to step
  // over it and still see every field it does know.
  for (const JournalRecord& record : every_op()) {
    Bytes payload = durable::encode_record(record);
    payload.push_back(0x78);  // tag 15, wire type varint
    payload.push_back(0x2a);
    JournalRecord back;
    ASSERT_TRUE(durable::decode_record(payload, &back));
    EXPECT_EQ(back, record);
  }
}

TEST(JournalCodec, TruncatedPayloadIsRejectedNotUb) {
  for (const JournalRecord& record : every_op()) {
    const Bytes payload = durable::encode_record(record);
    for (std::size_t keep = 0; keep < payload.size(); ++keep) {
      const Bytes cut(payload.begin(),
                      payload.begin() + static_cast<std::ptrdiff_t>(keep));
      JournalRecord back;
      decode_record(cut, &back);  // must not crash; result unspecified
    }
  }
}

TEST(JournalCodec, OutOfDomainOpIsRejected) {
  JournalRecord record = JournalRecord::make_publish(1, 2);
  Bytes payload = durable::encode_record(record);
  // The op is the first tagged field; splat an absurd op value by
  // re-encoding from a doctored record is impossible through the API,
  // so corrupt the encoded byte instead and require a clean reject.
  bool rejected_any = false;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    Bytes bad = payload;
    bad[i] = 0xff;
    JournalRecord back;
    if (!durable::decode_record(bad, &back)) rejected_any = true;
  }
  EXPECT_TRUE(rejected_any);
}

// --- Journal file ------------------------------------------------------

class JournalFileTest : public ::testing::Test {
 protected:
  // Keyed by test name: parallel ctest processes share TempDir().
  JournalFileTest()
      : path_(temp_path(std::string("mot_journal_") +
                        ::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name() +
                        ".mot")) {
    std::filesystem::remove(path_);
  }

  void write_records(const std::vector<JournalRecord>& records,
                     FsyncMode mode = FsyncMode::kNone) {
    JournalWriter writer;
    ASSERT_TRUE(writer.open(path_, mode));
    for (const JournalRecord& record : records) {
      ASSERT_TRUE(writer.append(record));
    }
    ASSERT_TRUE(writer.commit());
  }

  const std::string path_;
};

TEST_F(JournalFileTest, RoundTripEveryOp) {
  const std::vector<JournalRecord> records = every_op();
  write_records(records);
  const JournalReadResult result = durable::read_journal(path_);
  EXPECT_EQ(result.error, JournalError::kNone);
  EXPECT_EQ(result.truncated_bytes, 0u);
  EXPECT_EQ(result.records, records);
}

TEST_F(JournalFileTest, MissingFileIsEmptyJournal) {
  const JournalReadResult result = durable::read_journal(path_);
  EXPECT_EQ(result.error, JournalError::kNone);
  EXPECT_TRUE(result.records.empty());
}

TEST_F(JournalFileTest, EmptyFileIsEmptyJournal) {
  write_file(path_, {});
  const JournalReadResult result = durable::read_journal(path_);
  EXPECT_EQ(result.error, JournalError::kNone);
  EXPECT_TRUE(result.records.empty());
}

TEST_F(JournalFileTest, TornTailIsSilentlyDropped) {
  // A crash mid-append leaves a prefix of the last frame. Every possible
  // tear point must yield the record prefix, no error — that tail is
  // exactly what write interruption legitimately produces.
  const std::vector<JournalRecord> records = every_op();
  write_records(records);
  const Bytes full = read_file(path_);
  for (std::size_t keep = 5; keep < full.size(); ++keep) {
    write_file(path_, Bytes(full.begin(),
                            full.begin() + static_cast<std::ptrdiff_t>(keep)));
    const JournalReadResult result = durable::read_journal(path_);
    ASSERT_EQ(result.error, JournalError::kNone) << "tear at " << keep;
    ASSERT_LE(result.records.size(), records.size());
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      ASSERT_EQ(result.records[i], records[i]) << "tear at " << keep;
    }
    // Bytes kept but not parsed were reported as the torn tail.
    if (result.records.size() < records.size() && keep > 5) {
      EXPECT_EQ(result.error, JournalError::kNone);
    }
  }
}

TEST_F(JournalFileTest, BitFlippedPayloadIsCaughtByCrc) {
  const std::vector<JournalRecord> records = every_op();
  write_records(records);
  Bytes bytes = read_file(path_);
  // Flip one bit in the middle record's payload: header(5) + frames of
  // 8 + len. Locate the payload of frame records.size()/2 by walking.
  std::size_t pos = 5;
  for (std::size_t frame = 0; frame < records.size() / 2; ++frame) {
    const std::uint32_t len = static_cast<std::uint32_t>(bytes[pos]) |
                              bytes[pos + 1] << 8 | bytes[pos + 2] << 16 |
                              bytes[pos + 3] << 24;
    pos += 8 + len;
  }
  bytes[pos + 8] ^= 0x10;
  write_file(path_, bytes);
  const JournalReadResult result = durable::read_journal(path_);
  EXPECT_EQ(result.error, JournalError::kCrcMismatch);
  // The prefix before the rot is still served.
  EXPECT_EQ(result.records.size(), records.size() / 2);
}

TEST_F(JournalFileTest, GarbageTailIsTypedBadRecord) {
  const std::vector<JournalRecord> records = every_op();
  write_records(records);
  Bytes bytes = read_file(path_);
  for (int i = 0; i < 16; ++i) bytes.push_back(0xff);
  write_file(path_, bytes);
  const JournalReadResult result = durable::read_journal(path_);
  EXPECT_EQ(result.error, JournalError::kBadRecord);
  EXPECT_EQ(result.records, records);
}

TEST_F(JournalFileTest, BadMagicIsTyped) {
  write_records(every_op());
  Bytes bytes = read_file(path_);
  bytes[0] ^= 0xff;
  write_file(path_, bytes);
  EXPECT_EQ(durable::read_journal(path_).error, JournalError::kBadMagic);
}

TEST_F(JournalFileTest, FutureVersionIsTyped) {
  write_records(every_op());
  Bytes bytes = read_file(path_);
  bytes[4] = static_cast<std::uint8_t>(durable::kJournalFormatVersion + 1);
  write_file(path_, bytes);
  EXPECT_EQ(durable::read_journal(path_).error, JournalError::kBadVersion);
  bytes[4] = 0;
  write_file(path_, bytes);
  EXPECT_EQ(durable::read_journal(path_).error, JournalError::kBadVersion);
}

TEST_F(JournalFileTest, ResetCompactsToBareHeader) {
  write_records(every_op());
  JournalWriter writer;
  ASSERT_TRUE(writer.open(path_, FsyncMode::kNone));
  ASSERT_TRUE(writer.reset());
  writer.close();
  const JournalReadResult result = durable::read_journal(path_);
  EXPECT_EQ(result.error, JournalError::kNone);
  EXPECT_TRUE(result.records.empty());
  // And the file is exactly a header again, appendable as usual.
  EXPECT_EQ(read_file(path_).size(), 5u);
  write_records({JournalRecord::make_publish(1, 2)});
  EXPECT_EQ(durable::read_journal(path_).records.size(), 1u);
}

TEST_F(JournalFileTest, ReopenAppendsAfterExistingRecords) {
  write_records({JournalRecord::make_publish(1, 2)});
  write_records({JournalRecord::make_proxy(3, 4)});
  const JournalReadResult result = durable::read_journal(path_);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0], JournalRecord::make_publish(1, 2));
  EXPECT_EQ(result.records[1], JournalRecord::make_proxy(3, 4));
}

// --- MutableState replay strictness ------------------------------------

TEST(MutableStateReplay, PointOpsAreStrict) {
  MutableState state;
  const OverlayNode role{1, 3};
  // Ops against state that cannot contain their target must fail: a
  // clean failure is how restore detects snapshot/journal divergence.
  EXPECT_FALSE(state.apply(JournalRecord::make_delete(role, 7)));
  EXPECT_FALSE(state.apply(JournalRecord::make_splice(role, 7, {0, 1})));
  EXPECT_FALSE(state.apply(JournalRecord::make_sp_clear(role, 7)));
  EXPECT_FALSE(state.apply(JournalRecord::make_sdl_remove(role, 7, {0, 1})));

  ASSERT_TRUE(state.apply(
      JournalRecord::make_insert(role, 7, {0, 1}, OverlayNode{2, 5})));
  // Double insert means the journal disagrees with itself.
  EXPECT_FALSE(state.apply(
      JournalRecord::make_insert(role, 7, {0, 1}, OverlayNode{2, 5})));
  EXPECT_TRUE(state.apply(JournalRecord::make_splice(role, 7, {0, 2})));
  EXPECT_TRUE(state.apply(JournalRecord::make_sp_clear(role, 7)));
  EXPECT_TRUE(state.apply(JournalRecord::make_delete(role, 7)));
  EXPECT_FALSE(state.apply(JournalRecord::make_delete(role, 7)));
}

TEST(MutableStateReplay, WipesAreTolerant) {
  MutableState state;
  // The engine-side counterparts sweep possibly-empty state; replay
  // accepts them on empty state too.
  EXPECT_TRUE(state.apply(JournalRecord::make_wipe_object(9)));
  EXPECT_TRUE(state.apply(JournalRecord::make_wipe_role({2, 4})));
  EXPECT_TRUE(state.apply(JournalRecord::make_wipe_node(4)));
}

TEST(MutableStateReplay, WipeNodeDropsEveryLevelOfThatNode) {
  MutableState state;
  ASSERT_TRUE(
      state.apply(JournalRecord::make_insert({0, 4}, 1, {0, 5}, std::nullopt)));
  ASSERT_TRUE(
      state.apply(JournalRecord::make_insert({3, 4}, 2, {2, 5}, std::nullopt)));
  ASSERT_TRUE(
      state.apply(JournalRecord::make_insert({1, 6}, 3, {0, 5}, std::nullopt)));
  ASSERT_TRUE(state.apply(JournalRecord::make_wipe_node(4)));
  const StateImage image = state.to_image();
  ASSERT_EQ(image.roles.size(), 1u);
  EXPECT_EQ(image.roles[0].role, (OverlayNode{1, 6}));
}

TEST(MutableStateReplay, ImageRoundTripIsCanonical) {
  MutableState state;
  ASSERT_TRUE(state.apply(JournalRecord::make_publish(5, 9)));
  ASSERT_TRUE(
      state.apply(JournalRecord::make_insert({2, 1}, 5, {1, 3}, std::nullopt)));
  ASSERT_TRUE(state.apply(JournalRecord::make_sdl_add({3, 2}, 5, {2, 1})));
  ASSERT_TRUE(state.apply(JournalRecord::make_sdl_add({3, 2}, 5, {2, 6})));
  const StateImage image = state.to_image();
  // Rehydrate from the image: identical image (and digest) back out.
  MutableState again(image);
  EXPECT_EQ(again.to_image(), image);
  EXPECT_EQ(again.to_image().digest(), image.digest());
  // SDL children preserve registration order through the round trip.
  ASSERT_EQ(image.roles.size(), 2u);
  ASSERT_EQ(image.roles[1].sdl.size(), 1u);
  EXPECT_EQ(image.roles[1].sdl[0].children,
            (std::vector<OverlayNode>{{2, 1}, {2, 6}}));
}

// --- Snapshot codec ----------------------------------------------------

struct SnapshotWorld {
  SnapshotWorld()
      : graph(make_grid(6, 6)), oracle(make_distance_oracle(graph)) {
    DoublingHierarchy::Params hp;
    hp.seed = 11;
    hierarchy = DoublingHierarchy::build(graph, *oracle, hp);
  }

  StateImage sample_image() const {
    MutableState state;
    state.apply(JournalRecord::make_publish(0, 3));
    state.apply(JournalRecord::make_publish(1, 17));
    state.apply(
        JournalRecord::make_insert({0, 3}, 0, {0, 3}, OverlayNode{1, 2}));
    state.apply(JournalRecord::make_sdl_add({1, 2}, 0, {0, 3}));
    return state.to_image();
  }

  Graph graph;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<DoublingHierarchy> hierarchy;
};

TEST(Snapshot, EncodeDecodeRoundTrip) {
  const SnapshotWorld world;
  const StateImage image = world.sample_image();
  const std::uint64_t fp =
      durable::world_fingerprint(world.graph, *world.hierarchy);
  const Bytes bytes = durable::encode_snapshot(fp, image);
  const durable::SnapshotDecodeResult result = durable::decode_snapshot(bytes);
  ASSERT_EQ(result.error, RestoreError::kNone);
  EXPECT_EQ(result.fingerprint, fp);
  EXPECT_EQ(result.image, image);
}

TEST(Snapshot, EveryTruncationYieldsTypedErrorNeverCrash) {
  const SnapshotWorld world;
  const Bytes bytes = durable::encode_snapshot(
      durable::world_fingerprint(world.graph, *world.hierarchy),
      world.sample_image());
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    const Bytes cut(bytes.begin(),
                    bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    const durable::SnapshotDecodeResult result = durable::decode_snapshot(cut);
    EXPECT_NE(result.error, RestoreError::kNone) << "kept " << keep;
  }
}

TEST(Snapshot, BitRotIsCaughtByWholeFileCrc) {
  const SnapshotWorld world;
  Bytes bytes = durable::encode_snapshot(
      durable::world_fingerprint(world.graph, *world.hierarchy),
      world.sample_image());
  Rng rng(13);
  for (int trial = 0; trial < 64; ++trial) {
    Bytes bad = bytes;
    // Flip past the CRC field itself (bytes 4..8 guard the payload).
    const std::size_t at = 8 + rng.below(bad.size() - 8);
    bad[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    const durable::SnapshotDecodeResult result = durable::decode_snapshot(bad);
    EXPECT_NE(result.error, RestoreError::kNone) << "flip at " << at;
  }
}

TEST(Snapshot, BadMagicAndBadVersionAreTyped) {
  const SnapshotWorld world;
  const Bytes bytes = durable::encode_snapshot(
      durable::world_fingerprint(world.graph, *world.hierarchy),
      world.sample_image());
  Bytes bad = bytes;
  bad[0] ^= 0xff;
  EXPECT_EQ(durable::decode_snapshot(bad).error, RestoreError::kBadMagic);

  // Version is payload byte 0 (offset 8); the CRC must be recomputed or
  // the flip reads as rot instead of a version gap.
  bad = bytes;
  bad[8] = static_cast<std::uint8_t>(durable::kSnapshotFormatVersion + 1);
  const std::uint32_t crc = durable::crc32(
      std::span<const std::uint8_t>(bad.data() + 8, bad.size() - 8));
  bad[4] = static_cast<std::uint8_t>(crc);
  bad[5] = static_cast<std::uint8_t>(crc >> 8);
  bad[6] = static_cast<std::uint8_t>(crc >> 16);
  bad[7] = static_cast<std::uint8_t>(crc >> 24);
  EXPECT_EQ(durable::decode_snapshot(bad).error, RestoreError::kBadVersion);
}

TEST(Snapshot, DecoderSkipsUnknownPayloadFields) {
  // A v(N+1) writer appends a new tagged field to the payload; the
  // current decoder must step over it and load the fields it knows.
  const SnapshotWorld world;
  const StateImage image = world.sample_image();
  const std::uint64_t fp =
      durable::world_fingerprint(world.graph, *world.hierarchy);
  Bytes bytes = durable::encode_snapshot(fp, image);
  bytes.push_back(0x78);  // tag 15, varint
  bytes.push_back(0x07);
  const std::uint32_t crc = durable::crc32(
      std::span<const std::uint8_t>(bytes.data() + 8, bytes.size() - 8));
  bytes[4] = static_cast<std::uint8_t>(crc);
  bytes[5] = static_cast<std::uint8_t>(crc >> 8);
  bytes[6] = static_cast<std::uint8_t>(crc >> 16);
  bytes[7] = static_cast<std::uint8_t>(crc >> 24);
  const durable::SnapshotDecodeResult result =
      durable::decode_snapshot(bytes);
  ASSERT_EQ(result.error, RestoreError::kNone);
  EXPECT_EQ(result.fingerprint, fp);
  EXPECT_EQ(result.image, image);
}

TEST(Snapshot, WriteFileIsAtomicAndReadsBack) {
  const SnapshotWorld world;
  const Bytes bytes = durable::encode_snapshot(
      durable::world_fingerprint(world.graph, *world.hierarchy),
      world.sample_image());
  const std::string path = temp_path("mot_snapshot_test.mot");
  ASSERT_TRUE(durable::write_snapshot_file(path, bytes));
  const durable::SnapshotDecodeResult result =
      durable::read_snapshot_file(path);
  EXPECT_EQ(result.error, RestoreError::kNone);
  std::filesystem::remove(path);
  EXPECT_EQ(durable::read_snapshot_file(path).error,
            RestoreError::kNoSnapshot);
}

// --- DurableStore end-to-end -------------------------------------------

struct TrackerWorld {
  explicit TrackerWorld(std::size_t side = 8)
      : graph(make_grid(side, side)), oracle(make_distance_oracle(graph)) {
    DoublingHierarchy::Params hp;
    hp.seed = 7;
    hierarchy = DoublingHierarchy::build(graph, *oracle, hp);
    MotOptions options;
    options.use_parent_sets = false;
    options.use_special_parents = true;
    provider = std::make_unique<MotPathProvider>(*hierarchy, options);
    chain_options = make_mot_chain_options(options);
  }

  Graph graph;
  std::unique_ptr<DistanceOracle> oracle;
  std::unique_ptr<DoublingHierarchy> hierarchy;
  std::unique_ptr<MotPathProvider> provider;
  ChainOptions chain_options;
};

class DurableStoreTest : public ::testing::Test {
 protected:
  // Keyed by test name: ctest runs each test in its own process, in
  // parallel, and they all see the same TempDir().
  DurableStoreTest()
      : dir_(temp_path(std::string("mot_durable_store_") +
                       ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name())) {
    std::filesystem::remove_all(dir_);
  }
  ~DurableStoreTest() override { std::filesystem::remove_all(dir_); }

  const std::string dir_;
};

TEST_F(DurableStoreTest, ChainTrackerRestoreParity) {
  const TrackerWorld world;
  DurableStore store({dir_, FsyncMode::kGroup});
  ASSERT_TRUE(store.ok());

  ChainTracker live("mot", *world.provider, world.chain_options);
  live.use_durability(&store);
  Rng rng(21);
  const std::size_t n = world.graph.num_nodes();
  for (ObjectId object = 0; object < 12; ++object) {
    live.publish(object, static_cast<NodeId>(rng.below(n)));
  }
  for (int m = 0; m < 60; ++m) {
    if (m == 30) {
      // Snapshot mid-stream: restore must replay the journal suffix.
      ASSERT_TRUE(store.write_snapshot(world.graph, *world.hierarchy,
                                       live.export_durable_image()));
    }
    live.move(static_cast<ObjectId>(rng.below(12)),
              static_cast<NodeId>(rng.below(n)));
  }
  store.commit();

  const DurableStore::RestoreResult restored =
      store.restore(world.graph, *world.hierarchy);
  ASSERT_EQ(restored.error, RestoreError::kNone);
  EXPECT_GT(restored.journal_replayed, 0u);
  EXPECT_EQ(restored.image, live.export_durable_image());

  ChainTracker revived("mot", *world.provider, world.chain_options);
  revived.restore_durable_image(restored.image);
  revived.validate_all();
  EXPECT_EQ(revived.export_durable_image().digest(),
            live.export_durable_image().digest());
  for (ObjectId object = 0; object < 12; ++object) {
    const QueryResult expected = live.query(5, object);
    const QueryResult got = revived.query(5, object);
    ASSERT_TRUE(got.found);
    EXPECT_EQ(got.proxy, expected.proxy) << "object " << object;
  }
}

TEST_F(DurableStoreTest, DisabledDurabilityIsBitIdentical) {
  const TrackerWorld world;
  DurableStore store({dir_, FsyncMode::kGroup});
  ASSERT_TRUE(store.ok());

  ChainTracker plain("mot", *world.provider, world.chain_options);
  ChainTracker journaled("mot", *world.provider, world.chain_options);
  journaled.use_durability(&store);
  Rng rng_a(33);
  Rng rng_b(33);
  const std::size_t n = world.graph.num_nodes();
  double cost_a = 0.0;
  double cost_b = 0.0;
  for (ObjectId object = 0; object < 8; ++object) {
    plain.publish(object, static_cast<NodeId>(rng_a.below(n)));
    journaled.publish(object, static_cast<NodeId>(rng_b.below(n)));
  }
  for (int m = 0; m < 40; ++m) {
    cost_a += plain.move(static_cast<ObjectId>(rng_a.below(8)),
                         static_cast<NodeId>(rng_a.below(n)))
                  .cost;
    cost_b += journaled.move(static_cast<ObjectId>(rng_b.below(8)),
                             static_cast<NodeId>(rng_b.below(n)))
                  .cost;
  }
  // Journaling changes nothing observable: identical costs, identical
  // canonical state.
  EXPECT_EQ(cost_a, cost_b);
  EXPECT_EQ(plain.export_durable_image(), journaled.export_durable_image());
}

TEST_F(DurableStoreTest, SnapshotCompactsTheJournal) {
  const TrackerWorld world;
  DurableStore store({dir_, FsyncMode::kGroup});
  ASSERT_TRUE(store.ok());

  ChainTracker live("mot", *world.provider, world.chain_options);
  live.use_durability(&store);
  live.publish(0, 5);
  live.move(0, 9);
  ASSERT_TRUE(store.write_snapshot(world.graph, *world.hierarchy,
                                   live.export_durable_image()));
  // Compaction: the journal is a bare header again; restore replays 0.
  EXPECT_TRUE(durable::read_journal(store.journal_path()).records.empty());
  const DurableStore::RestoreResult restored =
      store.restore(world.graph, *world.hierarchy);
  ASSERT_EQ(restored.error, RestoreError::kNone);
  EXPECT_EQ(restored.journal_replayed, 0u);
  EXPECT_EQ(restored.image, live.export_durable_image());
  EXPECT_GT(store.stats().snapshot_bytes, 0u);
  EXPECT_EQ(store.stats().snapshots_written, 1u);
}

TEST_F(DurableStoreTest, MissingSnapshotIsTyped) {
  DurableStore store({dir_, FsyncMode::kGroup});
  ASSERT_TRUE(store.ok());
  const TrackerWorld world;
  const DurableStore::RestoreResult restored =
      store.restore(world.graph, *world.hierarchy);
  EXPECT_EQ(restored.error, RestoreError::kNoSnapshot);
  // First boot is not a failure: no fallback is counted and nothing is
  // dumped — only present-but-unusable data trips the fallback meters.
  EXPECT_EQ(store.stats().restore_fallbacks, 0u);
}

TEST_F(DurableStoreTest, WorldMismatchIsRefused) {
  const TrackerWorld world;
  DurableStore store({dir_, FsyncMode::kGroup});
  ASSERT_TRUE(store.ok());
  ChainTracker live("mot", *world.provider, world.chain_options);
  live.use_durability(&store);
  live.publish(0, 5);
  ASSERT_TRUE(store.write_snapshot(world.graph, *world.hierarchy,
                                   live.export_durable_image()));
  // A different network (and the overlay built on it) must not accept
  // this snapshot.
  const TrackerWorld other(5);
  EXPECT_EQ(store.restore(other.graph, *other.hierarchy).error,
            RestoreError::kWorldMismatch);
  EXPECT_EQ(store.stats().restore_fallbacks, 1u);
}

TEST_F(DurableStoreTest, HierarchyFromAnotherSeedIsWorldMismatch) {
  const TrackerWorld world;
  DurableStore store({dir_, FsyncMode::kGroup});
  ASSERT_TRUE(store.ok());
  ChainTracker live("mot", *world.provider, world.chain_options);
  live.use_durability(&store);
  live.publish(0, 5);
  ASSERT_TRUE(store.write_snapshot(world.graph, *world.hierarchy,
                                   live.export_durable_image()));
  // Same graph, another overlay: the image's roles would not mean the
  // same sensors, so the fingerprint must refuse it.
  DoublingHierarchy::Params hp;
  hp.seed = 8;
  const auto reseeded = DoublingHierarchy::build(world.graph, *world.oracle, hp);
  ASSERT_NE(reseeded->export_state(), world.hierarchy->export_state());
  EXPECT_EQ(store.restore(world.graph, *reseeded).error,
            RestoreError::kWorldMismatch);
  // The overlay the snapshot was taken over still restores.
  EXPECT_EQ(store.restore(world.graph, *world.hierarchy).error,
            RestoreError::kNone);
}

// FNV-1a over node count and weighted adjacency: the graph-only world
// fingerprint that snapshots carrying the hierarchy CSR were stamped with.
std::uint64_t graph_only_fingerprint(const Graph& graph) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i, value >>= 8) {
      hash = (hash ^ (value & 0xffu)) * 1099511628211ull;
    }
  };
  mix(graph.num_nodes());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    mix(graph.neighbors(u).size());
    for (const auto& edge : graph.neighbors(u)) {
      mix(edge.to);
      mix(std::bit_cast<std::uint64_t>(edge.weight));
    }
  }
  return hash;
}

TEST_F(DurableStoreTest, OldLayoutSnapshotIsWorldMismatch) {
  const TrackerWorld world;
  DurableStore store({dir_, FsyncMode::kGroup});
  ASSERT_TRUE(store.ok());
  ChainTracker live("mot", *world.provider, world.chain_options);
  live.publish(0, 5);
  live.publish(1, 40);

  // Lift the state-image section out of a current snapshot.
  const Bytes current = durable::encode_snapshot(
      durable::world_fingerprint(world.graph, *world.hierarchy),
      live.export_durable_image());
  wire::ByteReader reader(
      std::span<const std::uint8_t>(current.data() + 8, current.size() - 8));
  reader.u8();  // format version
  std::span<const std::uint8_t> image_section;
  std::uint32_t field_id = 0;
  wire::WireType type{};
  while (reader.next_field(&field_id, &type)) {
    if (field_id == 4) {
      image_section = reader.length_delimited();
    } else {
      reader.skip(type);
    }
  }
  ASSERT_TRUE(reader.ok());
  ASSERT_FALSE(image_section.empty());

  // The older layout: node count, graph-only fingerprint, a hierarchy
  // CSR blob in field 3, then the image.
  wire::ByteWriter payload;
  payload.u8(static_cast<std::uint8_t>(durable::kSnapshotFormatVersion));
  payload.field_varint(1, world.graph.num_nodes());
  payload.field_fixed64(2, graph_only_fingerprint(world.graph));
  const Bytes csr_blob = {3, 1, 2, 64, 0, 9, 9, 9};
  payload.field_bytes(3, csr_blob);
  payload.field_bytes(4, image_section);
  wire::ByteWriter file;
  file.bytes(std::span<const std::uint8_t>(current.data(), 4));  // magic
  file.fixed32(durable::crc32(payload.data()));
  file.bytes(payload.data());
  const Bytes old_layout = file.take();

  // It still decodes: the retired fields are skipped as unknown ones.
  const durable::SnapshotDecodeResult decoded =
      durable::decode_snapshot(old_layout);
  ASSERT_EQ(decoded.error, RestoreError::kNone);
  EXPECT_EQ(decoded.image, live.export_durable_image());

  // Restore refuses it typed: the fingerprint names only the graph.
  ASSERT_TRUE(durable::write_snapshot_file(store.snapshot_path(), old_layout));
  EXPECT_EQ(store.restore(world.graph, *world.hierarchy).error,
            RestoreError::kWorldMismatch);
}

// Overlay nodes the test hierarchy does not hold, by each way an image
// from disk can name one.
TEST_F(DurableStoreTest, ImageOutsideTheHierarchyIsBadSnapshot) {
  const TrackerWorld world;
  const DoublingHierarchy& hierarchy = *world.hierarchy;
  const auto n = static_cast<NodeId>(world.graph.num_nodes());
  NodeId non_member = 0;
  while (hierarchy.is_member(1, non_member)) ++non_member;
  ASSERT_LT(non_member, n);
  const OverlayNode good{0, 5};

  const auto with_role = [&](OverlayNode role, OverlayNode child,
                             std::optional<OverlayNode> sp) {
    StateImage image;
    image.roles.push_back({role, {{0, child, sp}}, {}});
    image.proxies = {{0, 5}};
    image.physical = {{0, 5}};
    return image;
  };
  std::vector<std::pair<std::string, StateImage>> cases = {
      {"role node >= n", with_role({0, n}, good, std::nullopt)},
      {"role level > height",
       with_role({hierarchy.height() + 1, 0}, good, std::nullopt)},
      {"role level < 0", with_role({-1, 5}, good, std::nullopt)},
      {"role not a member of its level",
       with_role({1, non_member}, good, std::nullopt)},
      {"child not a member", with_role(good, {1, non_member}, std::nullopt)},
      {"special parent not a member",
       with_role(good, good, OverlayNode{1, non_member})},
  };
  StateImage sdl_child = with_role(good, good, std::nullopt);
  sdl_child.roles[0].sdl.push_back({0, {good, {1, non_member}}});
  cases.emplace_back("SDL child not a member", sdl_child);
  StateImage proxy = with_role(good, good, std::nullopt);
  proxy.proxies = {{0, n}};
  cases.emplace_back("proxy node >= n", proxy);
  StateImage physical = with_role(good, good, std::nullopt);
  physical.physical = {{0, n + 3}};
  cases.emplace_back("physical node >= n", physical);

  std::uint64_t fallbacks = 0;
  for (const auto& [name, image] : cases) {
    DurableStore store({dir_, FsyncMode::kGroup});
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.write_snapshot(world.graph, hierarchy, image)) << name;
    const DurableStore::RestoreResult restored =
        store.restore(world.graph, hierarchy);
    EXPECT_EQ(restored.error, RestoreError::kBadSnapshot) << name;
    EXPECT_EQ(restored.image, StateImage{}) << name;
    fallbacks += store.stats().restore_fallbacks;
  }
  EXPECT_EQ(fallbacks, cases.size());

  // The same shape inside the hierarchy restores.
  DurableStore store({dir_, FsyncMode::kGroup});
  ASSERT_TRUE(store.ok());
  const StateImage image = with_role(good, good, std::nullopt);
  ASSERT_TRUE(store.write_snapshot(world.graph, hierarchy, image));
  const DurableStore::RestoreResult restored =
      store.restore(world.graph, hierarchy);
  ASSERT_EQ(restored.error, RestoreError::kNone);
  EXPECT_EQ(restored.image, image);
}

TEST_F(DurableStoreTest, CorruptJournalFallsBackTyped) {
  const TrackerWorld world;
  DurableStore store({dir_, FsyncMode::kGroup});
  ASSERT_TRUE(store.ok());
  ChainTracker live("mot", *world.provider, world.chain_options);
  live.use_durability(&store);
  live.publish(0, 5);
  ASSERT_TRUE(store.write_snapshot(world.graph, *world.hierarchy,
                                   live.export_durable_image()));
  live.move(0, 9);
  live.move(0, 14);
  store.commit();
  // Rot one payload byte of the journal suffix.
  Bytes bytes = read_file(store.journal_path());
  ASSERT_GT(bytes.size(), 14u);
  bytes[13] ^= 0x20;
  write_file(store.journal_path(), bytes);
  const DurableStore::RestoreResult restored =
      store.restore(world.graph, *world.hierarchy);
  EXPECT_EQ(restored.error, RestoreError::kJournalError);
  EXPECT_NE(restored.journal_error, JournalError::kNone);
  EXPECT_GE(store.stats().restore_fallbacks, 1u);
}

TEST_F(DurableStoreTest, ReplayMismatchFallsBackTyped) {
  const TrackerWorld world;
  DurableStore store({dir_, FsyncMode::kGroup});
  ASSERT_TRUE(store.ok());
  ChainTracker live("mot", *world.provider, world.chain_options);
  live.use_durability(&store);
  live.publish(0, 5);
  ASSERT_TRUE(store.write_snapshot(world.graph, *world.hierarchy,
                                   live.export_durable_image()));
  // A journal that deletes an entry the snapshot never held: replay
  // must refuse (strict point ops), not silently produce drift.
  store.record(JournalRecord::make_delete({0, 60}, 55));
  store.commit();
  EXPECT_EQ(store.restore(world.graph, *world.hierarchy).error,
            RestoreError::kReplayFailed);
}

TEST_F(DurableStoreTest, StatsExportToRegistryAndPrometheus) {
  const TrackerWorld world;
  DurableStore store({dir_, FsyncMode::kGroup});
  ASSERT_TRUE(store.ok());
  ChainTracker live("mot", *world.provider, world.chain_options);
  live.use_durability(&store);
  live.publish(0, 5);
  live.move(0, 9);
  ASSERT_TRUE(store.write_snapshot(world.graph, *world.hierarchy,
                                   live.export_durable_image()));
  obs::MetricsRegistry registry;
  durable::export_durable_stats(store.stats(), registry);
  const std::string prom = registry.to_prometheus();
  for (const char* name :
       {"snapshot_bytes", "journal_records", "journal_replayed",
        "restore_fallbacks", "snapshots_written"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name;
  }
  EXPECT_GT(registry.gauge("snapshot_bytes").value(), 0.0);
  EXPECT_GT(registry.counter("journal_records").value(), 0.0);
}

TEST_F(DurableStoreTest, DistributedMotRestoreParity) {
  const TrackerWorld world;
  DurableStore store({dir_, FsyncMode::kGroup});
  ASSERT_TRUE(store.ok());

  Simulator sim;
  proto::DistributedMot dist(*world.provider, sim, world.chain_options);
  dist.use_durability(&store);
  Rng rng(5);
  const std::size_t n = world.graph.num_nodes();
  for (ObjectId object = 0; object < 6; ++object) {
    dist.publish(object, static_cast<NodeId>(rng.below(n)));
    sim.run();
  }
  for (int m = 0; m < 30; ++m) {
    if (m == 15) {
      ASSERT_TRUE(store.write_snapshot(world.graph, *world.hierarchy,
                                       dist.export_durable_image()));
    }
    dist.move(static_cast<ObjectId>(rng.below(6)),
              static_cast<NodeId>(rng.below(n)), {});
    sim.run();
  }
  store.commit();

  const DurableStore::RestoreResult restored =
      store.restore(world.graph, *world.hierarchy);
  ASSERT_EQ(restored.error, RestoreError::kNone);
  EXPECT_EQ(restored.image, dist.export_durable_image());

  Simulator sim2;
  proto::DistributedMot revived(*world.provider, sim2, world.chain_options);
  revived.restore_durable_image(restored.image);
  EXPECT_TRUE(revived.invariant_violations().empty());
  for (ObjectId object = 0; object < 6; ++object) {
    const QueryResult expected = [&] {
      QueryResult r;
      dist.query(3, object, [&](const QueryResult& got) { r = got; });
      sim.run();
      return r;
    }();
    QueryResult got;
    revived.query(3, object, [&](const QueryResult& r) { got = r; });
    sim2.run();
    ASSERT_TRUE(got.found);
    EXPECT_EQ(got.proxy, expected.proxy) << "object " << object;
  }
}

}  // namespace
}  // namespace mot
