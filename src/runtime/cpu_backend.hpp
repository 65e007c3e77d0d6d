// CPU backend: the integer Sub-Conv layers executed on the host through the
// backend's gather-GEMM-scatter ComputeEngine, wall-clock timed. Its timed
// run produces each layer's output, which Backend::run_frame verifies and
// keeps without computing it again; the timing complements the analytic
// Xeon model in Fig. 10.
#pragma once

#include "runtime/backend.hpp"

namespace esca::runtime {

class CpuBackend final : public Backend {
 public:
  std::string name() const override { return "cpu"; }

 protected:
  core::LayerRunStats time_layer(const Plan& plan, const core::CompiledLayer& layer,
                                 bool weights_resident,
                                 std::optional<quant::QSparseTensor>& output) override;
  // Host DRAM has no managed weight buffer: every frame reads weights from
  // memory, so residency stays off.
};

}  // namespace esca::runtime
