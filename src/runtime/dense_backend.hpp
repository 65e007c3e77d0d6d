// Dense-accelerator backend: the Eyeriss-style dense CNN engine of the
// paper's motivation (§I–II) behind the runtime::Backend interface. Timing
// comes from baseline::DenseAccelModel — either convolving the full voxel
// grid or a tiling DMA restricted to active tiles — while layer outputs
// come from the shared ComputeEngine in Backend::run_frame (the model
// quantifies *cost*, the cost of being sparsity-blind; it does not change
// the math).
#pragma once

#include "baseline/dense_accel_model.hpp"
#include "common/types.hpp"
#include "runtime/backend.hpp"

namespace esca::runtime {

struct DenseBackendConfig {
  baseline::DenseAccelConfig model{};
  /// Tile size the DMA uses to skip empty regions in active-tiles mode
  /// (match the ESCA zero-removing tile for apples-to-apples numbers).
  Coord3 tile_size{8, 8, 8};
  /// Convolve the whole dense grid instead of only active tiles — the
  /// worst-case sparsity-blind mode of Fig. 2(a).
  bool full_grid{false};
};

class DenseAccelBackend final : public Backend {
 public:
  explicit DenseAccelBackend(DenseBackendConfig config = {});

  std::string name() const override { return "dense"; }
  const DenseBackendConfig& config() const { return config_; }

 protected:
  core::LayerRunStats time_layer(const Plan& plan, const core::CompiledLayer& layer,
                                 bool weights_resident,
                                 std::optional<quant::QSparseTensor>& output) override;
  // The analytic model has no weight-buffer state: residency stays off.

 private:
  DenseBackendConfig config_;
};

}  // namespace esca::runtime
