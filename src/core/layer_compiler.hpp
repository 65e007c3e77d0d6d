// Layer compiler: lowers a traced float SS U-Net onto the accelerator.
//
// For every Sub-Conv layer in a nn::SSUNet trace it
//   1. calibrates INT16 activation scales from the float input/output,
//   2. quantizes the layer (folding its BatchNorm and ReLU),
//   3. quantizes the recorded float input, and
//   4. precomputes the integer gold output for bit-exactness checks.
// The non-Sub-Conv layers (strided/inverse convs, head) stay on the host in
// this design, exactly as in the paper (the accelerator targets the
// Sub-Conv layer).
#pragma once

#include <vector>

#include "nn/unet.hpp"
#include "quant/qconv.hpp"
#include "quant/qtensor.hpp"
#include "sparse/geometry.hpp"

namespace esca::core {

struct CompiledLayer {
  quant::QuantizedConv layer;
  quant::QSparseTensor input;
  quant::QSparseTensor gold_output;
  std::int64_t gold_macs{0};  ///< rulebook MACs from the float trace
  /// Precompiled geometry (rulebook + site tensor) over `input`'s coords.
  /// Built once at compile time; every frame and every backend replays it
  /// — the geometry analogue of weight residency. Never null:
  /// runtime::make_plan rejects a layer without it.
  sparse::LayerGeometryPtr geometry;

  /// Execute the integer gold model on the calibration input against the
  /// cached geometry. `engine` supplies the gather-GEMM-scatter scratch
  /// (each backend passes its own so steady-state frames reuse one arena).
  quant::QSparseTensor run_gold(sparse::ComputeEngine* engine) const {
    return layer.forward(input, *geometry, engine);
  }
};

struct CompiledNetwork {
  std::vector<CompiledLayer> layers;

  std::int64_t total_macs() const;
};

/// Options for compiling a standalone float layer (outside a traced net).
struct LayerCompileOptions {
  const nn::BatchNorm* bn{nullptr};  ///< folded into the requantization
  bool relu{false};                  ///< folded ReLU
  std::string name{"layer"};
};

class LayerCompiler {
 public:
  /// Compile every Sub-Conv entry of a forward trace, reusing the geometry
  /// each one executed with (InvalidArgument when an entry has none).
  static CompiledNetwork compile(const std::vector<nn::TraceEntry>& trace);

  /// Compile one float Sub-Conv layer on a float input: runs the float model
  /// on a fresh submanifold geometry, then compiles that one-entry trace.
  static CompiledLayer compile_layer(const nn::SparseConv3d& conv,
                                     const sparse::SparseTensor& input,
                                     const LayerCompileOptions& options = {});
};

}  // namespace esca::core
