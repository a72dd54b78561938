// micro_durable: restore-vs-rebuild cost on warm tracking state.
//
// For each grid size the bench publishes a fleet of objects, walks them
// with seeded moves while journaling into a DurableStore (snapshot taken
// halfway, so the journal holds a real suffix), then measures two ways
// of bringing a cold process back to the same answers:
//
//   rebuild   full DoublingHierarchy::build (MIS refinement) + republish
//             every object at its current physical position
//   restore   the same DoublingHierarchy::build (snapshots do not store
//             the overlay), then DurableStore::restore — snapshot
//             decode + world-fingerprint check + journal-suffix replay —
//             and restore_durable_image into a fresh tracker
//
// Every restored tracker is checked against the live one (image digest
// equality + spot queries) before its time is accepted, so the table
// never reports a fast-but-wrong restore.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/mot.hpp"
#include "durable/store.hpp"
#include "graph/generators.hpp"
#include "hier/doubling_hierarchy.hpp"
#include "micro_common.hpp"
#include "tracking/chain_tracker.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using mot::NodeId;
using mot::ObjectId;

struct World {
  explicit World(std::size_t side, std::uint64_t hierarchy_seed)
      : graph(mot::make_grid(side, side)),
        oracle(mot::make_distance_oracle(graph)) {
    hp.seed = hierarchy_seed;
    hierarchy = mot::DoublingHierarchy::build(graph, *oracle, hp);
    mot::MotOptions options;
    options.use_parent_sets = false;
    options.use_special_parents = true;
    provider = std::make_unique<mot::MotPathProvider>(*hierarchy, options);
    chain_options = mot::make_mot_chain_options(options);
  }

  mot::Graph graph;
  std::unique_ptr<mot::DistanceOracle> oracle;
  mot::DoublingHierarchy::Params hp;
  std::unique_ptr<mot::DoublingHierarchy> hierarchy;
  std::unique_ptr<mot::MotPathProvider> provider;
  mot::ChainOptions chain_options;
};

double now_minus(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Cross-checks a recovered tracker against the live one: identical
// canonical image and agreeing spot queries from a few scattered nodes.
void check_parity(const mot::ChainTracker& live, mot::ChainTracker& other,
                  const World& world, std::size_t num_objects) {
  const mot::durable::StateImage a = live.export_durable_image();
  const mot::durable::StateImage b = other.export_durable_image();
  MOT_CHECK(a.digest() == b.digest());
  MOT_CHECK(a == b);
  const std::size_t n = world.graph.num_nodes();
  for (ObjectId object = 0; object < num_objects; object += 7) {
    const NodeId from = static_cast<NodeId>((object * 131) % n);
    const mot::QueryResult got = other.query(from, object);
    MOT_CHECK(got.found);
    MOT_CHECK(got.proxy == live.proxy_of(object));
  }
}

// Rebuild answers match on proxies but not on chain structure (a fresh
// publish has no splice history), so only the queries are checked.
void check_answers(const mot::ChainTracker& live, mot::ChainTracker& other,
                   const World& world, std::size_t num_objects) {
  const std::size_t n = world.graph.num_nodes();
  for (ObjectId object = 0; object < num_objects; object += 7) {
    const NodeId from = static_cast<NodeId>((object * 131) % n);
    const mot::QueryResult got = other.query(from, object);
    MOT_CHECK(got.found);
    MOT_CHECK(got.proxy == live.proxy_of(object));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const mot::bench::CommonFlags common = mot::bench::parse_common(
      argc, argv,
      "durable restore vs full rebuild: snapshot + journal-suffix replay "
      "against hierarchy reconstruction + republish");

  std::vector<std::size_t> sides = mot::bench::parse_size_list(common.sizes);
  if (sides.empty()) sides = common.full ? std::vector<std::size_t>{8, 16, 24, 32}
                                         : std::vector<std::size_t>{8, 16, 24};
  const int reps = common.full ? 9 : 5;
  const std::string dir =
      common.snapshot_dir.empty() ? "micro_durable_store" : common.snapshot_dir;

  mot::Table table({"nodes", "objects", "journal", "snap KiB", "rebuild ms",
                    "restore ms", "speedup"});

  for (const std::size_t side : sides) {
    World world(side, common.base_seed);
    const std::size_t n = world.graph.num_nodes();
    const std::size_t num_objects =
        common.objects != 0 ? common.objects : std::max<std::size_t>(8, n / 4);
    const std::size_t num_moves =
        common.moves != 0 ? common.moves : num_objects * 16;

    mot::durable::DurableStore store({dir, common.fsync_mode});
    MOT_CHECK(store.ok());

    // Live run: publish, then walk the objects under the store's natural
    // operating mode — periodic snapshot-triggered compaction (the chaos
    // harness compacts every round the same way). The journal left behind
    // is the genuine suffix since the last compaction point.
    mot::ChainTracker live("mot", *world.provider, world.chain_options);
    live.use_durability(&store);
    mot::Rng rng = mot::SeedTree(common.base_seed).stream("micro-durable");
    for (ObjectId object = 0; object < num_objects; ++object) {
      live.publish(object, static_cast<NodeId>(rng.below(n)));
    }
    const std::size_t cadence = std::max<std::size_t>(1, num_moves / 8);
    for (std::size_t m = 0; m < num_moves; ++m) {
      if (m % cadence == 0) {
        MOT_CHECK(store.write_snapshot(world.graph, *world.hierarchy,
                                       live.export_durable_image()));
      }
      const ObjectId object = static_cast<ObjectId>(rng.below(num_objects));
      live.move(object, static_cast<NodeId>(rng.below(n)));
    }
    store.commit();
    live.use_durability(nullptr);

    // (a) cold rebuild: MIS refinement + republish at physical positions.
    const double rebuild_s = mot::bench::repeat_trimmed(reps, [&](int) {
      const auto start = std::chrono::steady_clock::now();
      auto hierarchy =
          mot::DoublingHierarchy::build(world.graph, *world.oracle, world.hp);
      mot::MotPathProvider provider(*hierarchy, mot::MotOptions{
                                                    .use_parent_sets = false,
                                                    .use_special_parents = true,
                                                });
      mot::ChainTracker rebuilt("mot", provider, world.chain_options);
      for (ObjectId object = 0; object < num_objects; ++object) {
        rebuilt.publish(object, live.proxy_of(object));
      }
      const double wall = now_minus(start);
      check_answers(live, rebuilt, world, num_objects);
      return wall;
    });

    // (b) restore: hierarchy build + snapshot decode + journal replay.
    std::uint64_t journal_replayed = 0;
    const double restore_s = mot::bench::repeat_trimmed(reps, [&](int) {
      const auto start = std::chrono::steady_clock::now();
      auto hierarchy =
          mot::DoublingHierarchy::build(world.graph, *world.oracle, world.hp);
      mot::durable::DurableStore::RestoreResult result =
          store.restore(world.graph, *hierarchy);
      MOT_CHECK(result.restored());
      mot::MotPathProvider provider(*hierarchy, mot::MotOptions{
                                                    .use_parent_sets = false,
                                                    .use_special_parents = true,
                                                });
      mot::ChainTracker restored("mot", provider, world.chain_options);
      restored.restore_durable_image(result.image);
      const double wall = now_minus(start);
      journal_replayed = result.journal_replayed;
      check_parity(live, restored, world, num_objects);
      return wall;
    });

    table.begin_row()
        .cell(static_cast<std::uint64_t>(n))
        .cell(static_cast<std::uint64_t>(num_objects))
        .cell(journal_replayed)
        .cell(static_cast<double>(store.stats().snapshot_bytes) / 1024.0, 1)
        .cell(rebuild_s * 1e3, 3)
        .cell(restore_s * 1e3, 3)
        .cell(rebuild_s / restore_s, 2);

    if (side == sides.back()) {
      mot::durable::export_durable_stats(store.stats(),
                                         mot::obs::MetricsRegistry::global());
    }
  }

  mot::bench::emit("durable restore vs rebuild", table, common);
  return 0;
}
