// Google-benchmark microbenchmarks of the substrate kernels: geometry
// construction, gold Sub-Conv execution, tile encoding and SDMU simulation.
// These are the software costs a host pays around the accelerator.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/encoding.hpp"
#include "nn/init.hpp"
#include "core/sdmu.hpp"
#include "core/zero_removing.hpp"
#include "nn/sparse_conv.hpp"
#include "sparse/compute.hpp"
#include "sparse/geometry.hpp"

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): bench main

sparse::SparseTensor workload_tensor(int channels) {
  static const sparse::SparseTensor geometry = bench::shapenet_tensor(0, 96);
  sparse::SparseTensor x = geometry.zeros_like(channels);
  Rng rng(1);
  for (float& v : x.raw_features()) v = rng.uniform_f(-1.0F, 1.0F);
  return x;
}

void BM_RulebookBuild(benchmark::State& state) {
  const sparse::SparseTensor x = workload_tensor(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::build_submanifold_geometry(x, 3));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_RulebookBuild);

void BM_GoldSubConvForward(benchmark::State& state) {
  const int channels = static_cast<int>(state.range(0));
  const sparse::SparseTensor x = workload_tensor(channels);
  Rng rng(2);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, channels, channels, 3);
  conv.init_kaiming(rng);
  const sparse::LayerGeometry geometry = sparse::build_submanifold_geometry(x, 3);
  std::int64_t macs = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, geometry));
    macs += geometry.macs(channels, channels);
  }
  state.SetItemsProcessed(macs);
}
BENCHMARK(BM_GoldSubConvForward)->Arg(4)->Arg(16)->Arg(32);

void BM_TileEncoding(benchmark::State& state) {
  const sparse::SparseTensor x = workload_tensor(1);
  const core::ArchConfig cfg;
  const core::ZeroRemoving zr(cfg.tile_size);
  const core::TileGrid grid = zr.apply(x);
  const core::TileEncoder encoder(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(x, grid, nullptr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          grid.active_tiles());
}
BENCHMARK(BM_TileEncoding);

void BM_SdmuCycleSimulation(benchmark::State& state) {
  const sparse::SparseTensor x = workload_tensor(1);
  const core::ArchConfig cfg;
  const core::ZeroRemoving zr(cfg.tile_size);
  const core::TileGrid grid = zr.apply(x);
  const core::TileEncoder encoder(cfg);
  const auto tiles = encoder.encode(x, grid, nullptr);
  core::Sdmu sdmu(cfg);
  std::int64_t sim_cycles = 0;
  for (auto _ : state) {
    for (const auto& tile : tiles) {
      sim_cycles += sdmu.simulate_tile(tile, 1).cycles;
    }
  }
  state.SetItemsProcessed(sim_cycles);
  state.SetLabel("items = simulated cycles");
}
BENCHMARK(BM_SdmuCycleSimulation);

void BM_ApplyRulebookGatherGemmScatter(benchmark::State& state) {
  const int channels = 16;
  const sparse::SparseTensor x = workload_tensor(channels);
  const sparse::LayerGeometry geometry = sparse::build_submanifold_geometry(x, 3);
  Rng rng(3);
  std::vector<float> weights(27U * channels * channels);
  nn::kaiming_uniform(weights, 27 * channels, rng);
  for (auto _ : state) {
    sparse::SparseTensor out = x.zeros_like(channels);
    sparse::default_compute_engine().apply(x, geometry.blocked, weights, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          geometry.macs(channels, channels));
}
BENCHMARK(BM_ApplyRulebookGatherGemmScatter);

}  // namespace

BENCHMARK_MAIN();
