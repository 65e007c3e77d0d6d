#include "runtime/dense_backend.hpp"

#include <cmath>

#include "core/zero_removing.hpp"

namespace esca::runtime {

DenseAccelBackend::DenseAccelBackend(DenseBackendConfig config) : config_(config) {}

core::LayerRunStats DenseAccelBackend::time_layer(const Plan& /*plan*/,
                                                  const core::CompiledLayer& layer,
                                                  bool /*weights_resident*/,
                                                  std::optional<quant::QSparseTensor>& /*output*/) {
  const int kernel = layer.layer.kernel_size();
  const int cin = layer.layer.in_channels();
  const int cout = layer.layer.out_channels();

  baseline::DenseAccelRun run;
  core::LayerRunStats stats;
  if (config_.full_grid) {
    run = baseline::model_dense_full_grid(layer.input.spatial_extent(), kernel, cin, cout,
                                          layer.gold_macs, config_.model);
  } else {
    // Tile statistics from the Plan-cached site tensor — no rebuild.
    (void)core::ZeroRemoving(config_.tile_size).apply(layer.geometry->sites, &stats.zero_removing);
    run = baseline::model_dense_active_tiles(stats.zero_removing.active_tiles, config_.tile_size,
                                             kernel, cin, cout, layer.gold_macs, config_.model);
  }

  stats.layer_name = layer.layer.name();
  stats.in_channels = cin;
  stats.out_channels = cout;
  stats.sites = static_cast<std::int64_t>(layer.input.size());
  stats.mac_ops = run.useful_macs;
  stats.cc_cycles =
      static_cast<std::int64_t>(std::llround(run.seconds * config_.model.frequency_hz));
  stats.total_cycles = stats.cc_cycles;
  stats.compute_seconds = run.seconds;
  stats.total_seconds = run.seconds;
  stats.effective_gops = run.effective_gops;
  return stats;
}

}  // namespace esca::runtime
