// Shared workload builders for the benchmark harnesses.
//
// The paper's evaluation setup (§IV.A): feature maps voxelized to 192^3,
// SS U-Net with 3x3x3 Sub-Conv kernels, INT8 weights / INT16 activations,
// ESCA at 270 MHz with 16x16 compute parallelism and 8^3 tiles.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/json.hpp"
#include "core/layer_compiler.hpp"
#include "datasets/nyu_like.hpp"
#include "datasets/shapenet_like.hpp"
#include "nn/unet.hpp"
#include "obs/metrics.hpp"
#include "quant/qsubconv.hpp"
#include "sparse/geometry.hpp"
#include "sparse/sparse_tensor.hpp"
#include "voxel/voxelizer.hpp"
#include "xp/record.hpp"

namespace esca::bench {

inline constexpr int kPaperResolution = 192;
inline constexpr std::uint64_t kSeed = 20221014;  // arXiv submission date

/// One ShapeNet-like sample voxelized at the paper's resolution.
inline sparse::SparseTensor shapenet_tensor(std::size_t index,
                                            int resolution = kPaperResolution) {
  const datasets::ShapeNetLikeDataset ds({}, kSeed);
  const voxel::VoxelGrid grid = voxel::voxelize(ds.sample(index), {resolution, false});
  return sparse::SparseTensor::from_voxel_grid(grid, 1);
}

/// One NYU-like sample voxelized at the paper's resolution.
inline sparse::SparseTensor nyu_tensor(std::size_t index, int resolution = kPaperResolution) {
  const datasets::NyuLikeDataset ds({}, kSeed + 1);
  const voxel::VoxelGrid grid = voxel::voxelize(ds.sample(index), {resolution, false});
  return sparse::SparseTensor::from_voxel_grid(grid, 1);
}

/// The submanifold geometry of one ShapeNet-like sample: all the
/// timing-only cycle simulator reads of a layer's input.
inline sparse::LayerGeometry shapenet_geometry(std::size_t index, int kernel_size = 3) {
  return sparse::build_submanifold_geometry(shapenet_tensor(index), kernel_size);
}

/// A Cin -> Cout Sub-Conv layer at unit scales. The cycle simulator reads
/// only its shape (channels, kernel, weight bytes), never its weights.
inline quant::QuantizedSubConv subconv_layer(int cin, int cout, int kernel_size,
                                             std::string name) {
  const nn::SubmanifoldConv3d conv(cin, cout, kernel_size);
  return quant::QuantizedSubConv::from_float(conv, nullptr, false, 1.0F, 1.0F, std::move(name));
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

// --- BENCH-line emission ------------------------------------------------------
//
// Every bench emits its machine-readable summary through this builder
// instead of a hand-rolled printf: fields are typed at the call site,
// strings are JSON-escaped, and each line carries the harness schema
// version (xp::kBenchLineSchema) — so a typo in one bench is a compile
// error or a parse failure in bench_gate, never a silently skewed history.
class BenchLine {
 public:
  explicit BenchLine(std::string_view bench) {
    json_ = "{\"bench\":\"";
    json_ += json::escape(bench);
    json_ += "\",\"schema\":";
    json_ += std::to_string(xp::kBenchLineSchema);
  }

  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  BenchLine& field(std::string_view key, T v) {
    return raw(key, std::to_string(v));
  }
  /// Fixed-point double; `digits` matches what the legacy printf emitted.
  BenchLine& field(std::string_view key, double v, int digits = 4) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return raw(key, buf);
  }
  BenchLine& field(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    quoted += json::escape(v);
    quoted += "\"";
    return raw(key, quoted);
  }
  BenchLine& field(std::string_view key, const char* v) {
    return field(key, std::string_view(v));
  }
  BenchLine& field(std::string_view key, bool v) { return raw(key, v ? "true" : "false"); }

  std::string json() const { return json_ + "}"; }

  /// Print the `BENCH {...}` line to stdout.
  void emit() const { std::printf("BENCH %s\n", json().c_str()); }

 private:
  BenchLine& raw(std::string_view key, std::string_view value) {
    json_ += ",\"";
    json_ += json::escape(key);
    json_ += "\":";
    json_ += value;
    return *this;
  }

  std::string json_;
};

/// Registry snapshot hook for the experiment harness: when the runner arms
/// ESCA_BENCH_OBS=1, dump the process-wide obs registry as one BENCHOBS
/// line (Registry::to_json verbatim) so counter-derived metrics ride along
/// with the BENCH lines. A no-op otherwise — benches stay quiet for humans.
inline void emit_obs_snapshot() {
  if (std::getenv("ESCA_BENCH_OBS") == nullptr) return;
  std::printf("BENCHOBS %s\n", obs::Registry::global().to_json().c_str());
}

}  // namespace esca::bench
