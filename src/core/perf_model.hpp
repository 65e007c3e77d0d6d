// Closed-form performance model of the ESCA pipeline.
//
// First-order cycle estimate for one Sub-Conv layer:
//
//   scan  = active_tiles * tile_volume * mask_read_cycles     (mask streaming)
//   drain = matches * ceil(Cin/icP) * ceil(Cout/ocP)          (CC consumption)
//   cycles ~= max(scan, drain) + active_tiles * pipeline_fill
//
// The cycle-accurate simulator and this estimate are cross-checked in tests;
// the estimate also powers the fast design-space-exploration example.
#pragma once

#include <cstdint>

#include "core/arch_config.hpp"

namespace esca::core {

struct PerfEstimate {
  std::int64_t scan_cycles{0};
  std::int64_t drain_cycles{0};
  std::int64_t total_cycles{0};
  double seconds{0.0};
  double effective_gops{0.0};
  bool scan_bound{false};  ///< mask streaming (not compute) limits the layer
};

class PerfModel {
 public:
  explicit PerfModel(const ArchConfig& config);

  PerfEstimate estimate_layer(std::int64_t active_tiles, std::int64_t matches,
                              int in_channels, int out_channels) const;

  /// Closed-form traffic of one layer (passthrough to the shared model).
  sim::mem::LayerTraffic layer_traffic(const sim::mem::LayerTrafficInput& input) const;

  const ArchConfig& config() const { return config_; }

 private:
  ArchConfig config_;
  sim::mem::MemoryTrafficModel traffic_;
};

}  // namespace esca::core
