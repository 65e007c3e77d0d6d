#include "core/perf_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace esca::core {

PerfModel::PerfModel(const ArchConfig& config)
    : config_(config), traffic_(config.traffic_model_config()) {
  config_.validate();
}

PerfEstimate PerfModel::estimate_layer(std::int64_t active_tiles, std::int64_t matches,
                                       int in_channels, int out_channels) const {
  ESCA_REQUIRE(active_tiles >= 0 && matches >= 0, "counts must be non-negative");
  ESCA_REQUIRE(in_channels > 0 && out_channels > 0, "channels must be positive");

  const std::int64_t ccpm = config_.cycles_per_match(in_channels, out_channels);

  PerfEstimate e;
  e.scan_cycles = active_tiles * config_.tile_size.volume() * config_.mask_read_cycles;
  e.drain_cycles = matches * ccpm;
  e.total_cycles = std::max(e.scan_cycles, e.drain_cycles) +
                   active_tiles * config_.pipeline_fill_cycles;
  e.scan_bound = e.scan_cycles >= e.drain_cycles;
  e.seconds = static_cast<double>(e.total_cycles) / config_.frequency_hz;
  const double macs = static_cast<double>(matches) * in_channels * out_channels;
  e.effective_gops = e.seconds > 0.0 ? 2.0 * macs / e.seconds / 1e9 : 0.0;
  return e;
}

sim::mem::LayerTraffic PerfModel::layer_traffic(const sim::mem::LayerTrafficInput& input) const {
  return traffic_.layer_traffic(input);
}

}  // namespace esca::core
