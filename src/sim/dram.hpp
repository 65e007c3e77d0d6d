// Off-chip DRAM parameters.
//
// Effective bandwidth derates the pin bandwidth by an efficiency factor
// (row-buffer misses, refresh, bus turnaround). The burst-accounted charge
// of a layer's traffic (every burst pays the first-word latency, bytes
// stream at effective bandwidth) lives in sim::mem::MemoryTrafficModel.
#pragma once

#include "common/check.hpp"

namespace esca::sim {

struct DramConfig {
  double peak_bandwidth_bytes_per_s{19.2e9};  ///< ZCU102 PS DDR4-2400 x64
  double efficiency{0.7};                     ///< achievable fraction of peak
  double first_word_latency_s{120e-9};        ///< per-burst latency
};

class DramModel {
 public:
  explicit DramModel(DramConfig cfg = {}) : cfg_(cfg) {
    ESCA_REQUIRE(cfg.peak_bandwidth_bytes_per_s > 0, "DRAM bandwidth must be positive");
    ESCA_REQUIRE(cfg.efficiency > 0 && cfg.efficiency <= 1.0,
                 "DRAM efficiency must be in (0, 1]");
  }

  double effective_bandwidth() const {
    return cfg_.peak_bandwidth_bytes_per_s * cfg_.efficiency;
  }

 private:
  DramConfig cfg_;
};

}  // namespace esca::sim
