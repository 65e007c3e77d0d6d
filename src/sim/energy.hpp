// Event-based energy accounting.
//
// Each hardware event type (DSP MAC, BRAM access, DRAM byte, FF toggle) has a
// per-event energy in joules; the meter counts events and converts them to
// joules at readout. The power model combines these with static power for
// Table III.
#pragma once

#include <cstdint>
#include <string>

namespace esca::sim {

/// Per-event energy costs, defaults representative of a 16 nm UltraScale+
/// device at nominal voltage (derived from Xilinx Power Estimator trends).
struct EnergyTable {
  double dsp_mac_j{4.5e-12};       ///< one INT8xINT16 MAC in a DSP48E2
  double bram_read_j{2.5e-12};     ///< one 72-bit BRAM read
  double bram_write_j{2.8e-12};    ///< one 72-bit BRAM write
  double dram_byte_j{60e-12};      ///< one byte moved over DDR4
  double logic_cycle_j{15e-12};    ///< control-plane switching per active cycle
};

class EnergyMeter {
 public:
  explicit EnergyMeter(EnergyTable table = {}) : table_(table) {}

  void add_mac(std::int64_t n) { macs_ += n; }
  void add_bram_read(std::int64_t n) { bram_reads_ += n; }
  void add_bram_write(std::int64_t n) { bram_writes_ += n; }
  void add_dram_bytes(std::int64_t n) { dram_bytes_ += n; }
  void add_logic_cycles(std::int64_t n) { logic_cycles_ += n; }

  double total_joules() const;
  /// Joules of one component: "dsp_mac", "bram_read", "bram_write", "dram"
  /// or "logic"; 0 for any other name.
  double component_joules(const std::string& name) const;
  const EnergyTable& table() const { return table_; }
  void clear() { *this = EnergyMeter(table_); }

 private:
  EnergyTable table_;
  std::int64_t macs_{0};
  std::int64_t bram_reads_{0};
  std::int64_t bram_writes_{0};
  std::int64_t dram_bytes_{0};
  std::int64_t logic_cycles_{0};
};

}  // namespace esca::sim
