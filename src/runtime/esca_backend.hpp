// ESCA backend: the cycle-level simulator (core::Accelerator) behind the
// runtime::Backend interface. This is the accelerator the paper builds —
// zero removing, tile encoding, SDMU matching, 16x16 MAC array — as a
// timing model with full cycle/traffic statistics and an on-chip weight
// buffer, so batched frames after the first skip the weight DRAM transfer.
// Layer outputs come from the shared ComputeEngine in Backend::run_frame;
// the simulator checks its own match stream against each layer's rulebook.
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
  core::LayerRunStats time_layer(const core::CompiledLayer& layer, bool weights_resident,
                                 std::optional<quant::QSparseTensor>& output) override;
  bool supports_weight_residency() const override { return true; }

 private:
  core::Accelerator accelerator_;
};

}  // namespace esca::runtime
