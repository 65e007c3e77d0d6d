#include "runtime/cpu_backend.hpp"

#include <chrono>

namespace esca::runtime {

core::LayerRunStats CpuBackend::time_layer(const Plan& /*plan*/,
                                           const core::CompiledLayer& layer,
                                           bool /*weights_resident*/,
                                           std::optional<quant::QSparseTensor>& output) {
  // Steady-state frames replay the Plan-cached rulebook through this
  // backend's compute engine (persistent arena — no per-frame compute
  // allocations).
  const auto start = std::chrono::steady_clock::now();
  output = layer.run_gold(&compute_engine());
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  core::LayerRunStats stats;
  stats.layer_name = layer.layer.name();
  stats.in_channels = layer.layer.in_channels();
  stats.out_channels = layer.layer.out_channels();
  stats.sites = static_cast<std::int64_t>(layer.input.size());
  stats.mac_ops = layer.gold_macs;
  stats.compute_seconds = seconds;
  stats.total_seconds = seconds;
  stats.effective_gops =
      seconds > 0.0 ? 2.0 * static_cast<double>(layer.gold_macs) / seconds / 1e9 : 0.0;
  return stats;
}

}  // namespace esca::runtime
