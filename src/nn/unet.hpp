// 3-D submanifold sparse U-Net (SS U-Net), the paper's benchmark network
// (Graham et al., CVPR 2018). Encoder levels of Sub-Conv blocks joined by
// strided convolutions; decoder restores each scale with inverse
// convolutions and channel-concatenated skip connections.
//
// Every convolution is one nn::SparseConv3d of the kind its geometry has.
// forward() optionally records a per-layer trace: the accelerator compiler
// replays every Sub-Conv layer (with its folded BN/ReLU) on the simulated
// hardware, and benches read per-layer MAC counts from the same trace.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batch_norm.hpp"
#include "nn/linear.hpp"
#include "nn/sparse_conv.hpp"
#include "sparse/geometry.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::nn {

struct SSUNetConfig {
  int in_channels{1};
  int base_planes{16};  ///< m; level l uses m*(l+1) planes (SSCN convention)
  int levels{3};
  int reps_per_level{2};  ///< Sub-Conv blocks per level (each: conv+BN+ReLU)
  int num_classes{8};
  int kernel_size{3};  ///< Sub-Conv kernel (paper: 3x3x3)
};

/// One recorded layer execution. BN and ReLU are folded into the preceding
/// conv's record (deployment view), matching the accelerator's requantize
/// stage.
struct TraceEntry {
  std::string name;
  int in_channels{0};
  int out_channels{0};
  std::int64_t macs{0};
  sparse::SparseTensor input;   ///< tensor entering the layer
  sparse::SparseTensor output;  ///< tensor after the layer (+BN/ReLU if folded)
  /// The conv the entry executed — its kind is the entry's kind. Null for
  /// the linear head.
  const SparseConv3d* conv{nullptr};
  const BatchNorm* bn{nullptr};  ///< folded BN, may be null
  bool relu{false};              ///< folded ReLU
  /// Geometry the conv executed with — a Sub-Conv geometry is shared
  /// across every layer at the same scale; the layer compiler caches it
  /// into the Plan. Null for the head.
  sparse::LayerGeometryPtr geometry{};
};

class SSUNet {
 public:
  explicit SSUNet(SSUNetConfig config, std::uint64_t seed);

  const SSUNetConfig& config() const { return config_; }

  /// Per-site class logits. When `trace` is non-null, appends one entry per
  /// conv/linear layer (inputs and outputs copied).
  sparse::SparseTensor forward(const sparse::SparseTensor& input,
                               std::vector<TraceEntry>* trace = nullptr) const;

  /// Total effective MACs of a forward pass on this input.
  std::int64_t total_macs(const sparse::SparseTensor& input) const;

  /// Number of parameters (weights + biases + BN).
  std::int64_t parameter_count() const;

  int planes_at(int level) const { return config_.base_planes * (level + 1); }

 private:
  /// A Sub-Conv block (the stem too): conv + BN + ReLU.
  struct Block {
    std::unique_ptr<SparseConv3d> conv;
    std::unique_ptr<BatchNorm> bn;
  };
  struct Level {
    std::vector<Block> encoder_blocks;
    std::unique_ptr<SparseConv3d> down;  // strided; null at the deepest level
    std::unique_ptr<SparseConv3d> up;    // inverse; null at the deepest level
    std::vector<Block> decoder_blocks;   // empty at the deepest level
  };

  Block make_block(int in_channels, int out_channels, Rng& rng) const;

  /// Run `conv` over `geometry`; a given `bn` and a ReLU follow it (a
  /// block). Appends the trace entry when `trace` is non-null.
  sparse::SparseTensor run_conv(const SparseConv3d& conv, const BatchNorm* bn,
                                const sparse::SparseTensor& x,
                                const sparse::LayerGeometryPtr& geometry, std::string name,
                                std::vector<TraceEntry>* trace) const;

  SSUNetConfig config_;
  Block stem_;
  std::vector<Level> levels_;
  std::unique_ptr<Linear> head_;
};

/// Convenience: indices of the Sub-Conv entries in a trace.
std::vector<std::size_t> subconv_entries(const std::vector<TraceEntry>& trace);

}  // namespace esca::nn
