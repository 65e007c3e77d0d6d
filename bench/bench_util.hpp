// Shared workload builders for the benches. tests/stable_counts_test.cpp
// drives the library through the same builders, so the exact counts it
// asserts are the ones the benches print.
//
// The paper's evaluation setup (§IV.A): feature maps voxelized to 192^3,
// SS U-Net with 3x3x3 Sub-Conv kernels, INT8 weights / INT16 activations,
// ESCA at 270 MHz with 16x16 compute parallelism and 8^3 tiles.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "core/layer_compiler.hpp"
#include "datasets/nyu_like.hpp"
#include "datasets/sequence.hpp"
#include "datasets/shapenet_like.hpp"
#include "nn/unet.hpp"
#include "quant/qconv.hpp"
#include "sim/mem/dataflow.hpp"
#include "sparse/geometry.hpp"
#include "sparse/sparse_tensor.hpp"
#include "voxel/voxelizer.hpp"

namespace esca::bench {

inline constexpr int kPaperResolution = 192;
inline constexpr std::uint64_t kSeed = 20221014;  // arXiv submission date

/// One ShapeNet-like sample voxelized at the paper's resolution.
inline sparse::SparseTensor shapenet_tensor(std::size_t index,
                                            int resolution = kPaperResolution) {
  const datasets::ShapeNetLikeDataset ds({}, kSeed);
  const voxel::VoxelGrid grid = voxel::voxelize(ds.sample(index), {.resolution = resolution});
  return sparse::SparseTensor::from_voxel_grid(grid, 1);
}

/// One NYU-like sample voxelized at the paper's resolution.
inline sparse::SparseTensor nyu_tensor(std::size_t index, int resolution = kPaperResolution) {
  const datasets::NyuLikeDataset ds({}, kSeed + 1);
  const voxel::VoxelGrid grid = voxel::voxelize(ds.sample(index), {.resolution = resolution});
  return sparse::SparseTensor::from_voxel_grid(grid, 1);
}

/// The submanifold geometry of one ShapeNet-like sample: all the
/// timing-only cycle simulator reads of a layer's input.
inline sparse::LayerGeometry shapenet_geometry(std::size_t index, int kernel_size = 3) {
  return sparse::build_submanifold_geometry(shapenet_tensor(index), kernel_size);
}

/// A Cin -> Cout Sub-Conv layer at unit scales. The cycle simulator reads
/// only its shape (channels, kernel, weight bytes), never its weights.
inline quant::QuantizedConv subconv_layer(int cin, int cout, int kernel_size,
                                             std::string name) {
  const nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, cin, cout, kernel_size);
  return quant::QuantizedConv::from_float(conv, nullptr, false, 1.0F, 1.0F, std::move(name));
}

/// The benchmark network: SS U-Net with m = 16 (paper §IV.A).
inline nn::SSUNetConfig benchmark_unet_config() {
  nn::SSUNetConfig cfg;
  cfg.in_channels = 1;
  cfg.base_planes = 16;
  cfg.levels = 3;
  cfg.reps_per_level = 2;
  cfg.num_classes = 16;
  cfg.kernel_size = 3;
  return cfg;
}

struct NetworkWorkload {
  std::vector<nn::TraceEntry> trace;
  core::CompiledNetwork compiled;
};

/// Trace + quantize the benchmark network on a dataset sample.
inline NetworkWorkload benchmark_network(const sparse::SparseTensor& input) {
  const nn::SSUNet net(benchmark_unet_config(), kSeed);
  NetworkWorkload w;
  (void)net.forward(input, &w.trace);
  w.compiled = core::LayerCompiler::compile(w.trace);
  return w;
}

/// One point of bench_mem_hierarchy's sweep: on-chip buffer capacity
/// scaled from the paper's, global-buffer bank count and dataflow.
struct SweepPoint {
  double buffer_scale{1.0};
  int banks{8};
  sim::mem::Dataflow dataflow{sim::mem::Dataflow::kWeightStationary};
};

/// The paper's architecture with every on-chip buffer scaled by
/// `buffer_scale` (at least one byte) and the point's banking and dataflow.
inline core::ArchConfig sweep_config(const SweepPoint& p) {
  core::ArchConfig cfg;
  const auto scale = [&](std::int64_t bytes) {
    return std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                         static_cast<double>(bytes) * p.buffer_scale));
  };
  cfg.activation_buffer_bytes = scale(cfg.activation_buffer_bytes);
  cfg.weight_buffer_bytes = scale(cfg.weight_buffer_bytes);
  cfg.mask_buffer_bytes = scale(cfg.mask_buffer_bytes);
  cfg.output_buffer_bytes = scale(cfg.output_buffer_bytes);
  cfg.mem.buffer.banks = p.banks;
  cfg.mem.dataflow = p.dataflow;
  return cfg;
}

/// A voxelized sensor sequence over ShapeNet-like sample 0 with motion off,
/// so `overlap_pct` alone sets how much consecutive frames share.
inline std::vector<sparse::SparseTensor> voxelized_sequence(int overlap_pct, int resolution,
                                                            int frames) {
  // Consecutive frames differ in ~2x the resample fraction of their points.
  datasets::SequenceConfig seq;
  seq.frames = frames;
  seq.resample_fraction = static_cast<float>(1.0 - overlap_pct / 100.0) / 2.0F;
  const datasets::ShapeNetLikeDataset objects({}, kSeed);
  const datasets::SequenceDataset ds(objects.sample(0), seq, kSeed + overlap_pct);

  std::vector<sparse::SparseTensor> tensors;
  tensors.reserve(static_cast<std::size_t>(frames));
  for (int t = 0; t < frames; ++t) {
    const voxel::VoxelGrid grid = voxel::voxelize(ds.frame(t), {.resolution = resolution});
    tensors.push_back(sparse::SparseTensor::from_voxel_grid(grid, 1));
  }
  return tensors;
}

}  // namespace esca::bench
