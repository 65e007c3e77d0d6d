// ESCA backend: the cycle-level simulator (core::Accelerator) behind the
// runtime::Backend interface. This is the accelerator the paper builds —
// zero removing, tile encoding, SDMU matching, 16x16 MAC array — as a
// timing model with full cycle/traffic statistics and an on-chip weight
// buffer, so batched frames after the first skip the weight DRAM transfer.
// Layer outputs come from the shared ComputeEngine in Backend::run_frame;
// the simulator checks its own match stream against each geometry's
// rulebook. Like weight residency, the running Plan's tiled geometries are
// kept, keyed on its uid, so the Plan's layers and frames tile each once.
#pragma once

#include "core/accelerator.hpp"
#include "runtime/backend.hpp"

namespace esca::runtime {

class EscaBackend final : public Backend {
 public:
  explicit EscaBackend(core::ArchConfig config);

  std::string name() const override { return "esca"; }

  const core::Accelerator& accelerator() const { return accelerator_; }
  const sim::EnergyMeter* energy_meter() const override { return &accelerator_.energy(); }

 protected:
  core::LayerRunStats time_layer(const Plan& plan, const core::CompiledLayer& layer,
                                 bool weights_resident,
                                 std::optional<quant::QSparseTensor>& output) override;
  bool supports_weight_residency() const override { return true; }

 private:
  /// `layer`'s tiled geometry: kept from an earlier layer or frame of `plan`,
  /// or tiled now and kept once its match stream passed the rulebook check.
  core::TiledGeometry& tiled_geometry(const Plan& plan, const core::CompiledLayer& layer);

  core::Accelerator accelerator_;

  /// One geometry of the running Plan and its tiling. The weak pointer names
  /// the geometry without keeping it alive, and never a later one at its address.
  struct TiledRecord {
    std::weak_ptr<const sparse::LayerGeometry> geometry;
    core::TiledGeometry tiled;
  };
  std::uint64_t tiled_plan_uid_{0};  ///< the Plan `tiled_` belongs to; 0 = none
  std::vector<TiledRecord> tiled_;
};

}  // namespace esca::runtime
