#include "sim/energy.hpp"

namespace esca::sim {

double EnergyMeter::total_joules() const {
  // Components summed in name order.
  return component_joules("bram_read") + component_joules("bram_write") +
         component_joules("dram") + component_joules("dsp_mac") + component_joules("logic");
}

double EnergyMeter::component_joules(const std::string& name) const {
  if (name == "dsp_mac") return table_.dsp_mac_j * static_cast<double>(macs_);
  if (name == "bram_read") return table_.bram_read_j * static_cast<double>(bram_reads_);
  if (name == "bram_write") return table_.bram_write_j * static_cast<double>(bram_writes_);
  if (name == "dram") return table_.dram_byte_j * static_cast<double>(dram_bytes_);
  if (name == "logic") return table_.logic_cycle_j * static_cast<double>(logic_cycles_);
  return 0.0;
}

}  // namespace esca::sim
