// Micro-benchmarks for overlay construction: MIS levels, sparse covers,
// cluster embeddings.
#include <benchmark/benchmark.h>

#include "micro_gbench.hpp"

#include "debruijn/debruijn.hpp"
#include "graph/generators.hpp"
#include "hier/doubling_hierarchy.hpp"
#include "hier/general_hierarchy.hpp"
#include "hier/sparse_cover.hpp"

namespace mot {
namespace {

void BM_DoublingHierarchyBuild(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const Graph graph = make_grid(side, side);
  const auto oracle = make_distance_oracle(graph);
  DoublingHierarchy::Params params;
  params.seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DoublingHierarchy::build(graph, *oracle, params));
  }
  state.SetComplexityN(static_cast<std::int64_t>(side * side));
}
// Sides 8 .. 256 (64 .. 65,536 nodes): the Complexity() fit spans the
// sizes the benchmarks and the scale curve run at.
BENCHMARK(BM_DoublingHierarchyBuild)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

void BM_SparseCoverBuild(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const Graph graph = make_grid(side, side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_sparse_cover(graph, 4.0));
  }
}
BENCHMARK(BM_SparseCoverBuild)->Arg(8)->Arg(16);

void BM_GeneralHierarchyBuild(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const Graph graph = make_grid(side, side);
  const auto oracle = make_distance_oracle(graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GeneralHierarchy::build(graph, *oracle, {}));
  }
}
BENCHMARK(BM_GeneralHierarchyBuild)->Arg(8)->Arg(16);

void BM_GroupLookup(benchmark::State& state) {
  const Graph graph = make_grid(16, 16);
  const auto oracle = make_distance_oracle(graph);
  DoublingHierarchy::Params params;
  params.seed = 3;
  const auto hierarchy = DoublingHierarchy::build(graph, *oracle, params);
  Rng rng(5);
  for (auto _ : state) {
    const auto u = static_cast<NodeId>(rng.below(256));
    const int level = 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(
                                  hierarchy->height())));
    benchmark::DoNotOptimize(hierarchy->group(u, level));
  }
}
BENCHMARK(BM_GroupLookup);

void BM_DeBruijnRoute(benchmark::State& state) {
  std::vector<NodeId> members(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < members.size(); ++i) {
    members[i] = static_cast<NodeId>(i);
  }
  const ClusterEmbedding embedding(members, 7);
  Rng rng(9);
  for (auto _ : state) {
    const auto from =
        static_cast<std::uint32_t>(rng.below(members.size()));
    const auto to = static_cast<std::uint32_t>(rng.below(members.size()));
    benchmark::DoNotOptimize(embedding.route(from, to));
  }
}
BENCHMARK(BM_DeBruijnRoute)->Arg(16)->Arg(64)->Arg(256);

void BM_LubyMisLevel0(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const Graph graph = make_grid(side, side);
  MisInstance instance;
  instance.vertices.resize(graph.num_nodes());
  instance.neighbors.resize(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    instance.vertices[v] = v;
    for (const Edge& e : graph.neighbors(v)) {
      instance.neighbors[v].push_back(e.to);
    }
  }
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(luby_mis(instance, rng));
  }
}
BENCHMARK(BM_LubyMisLevel0)->Arg(16)->Arg(32);

}  // namespace
}  // namespace mot

MOT_MICRO_MAIN()
