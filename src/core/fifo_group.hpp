// FIFO group (paper §III.C): K^2 identical FIFOs, one per decoder column,
// buffering matches between the SDMU fetch engines and the MUX.
#pragma once

#include <cstdint>
#include <vector>

#include "core/arch_config.hpp"
#include "core/match.hpp"
#include "sim/fifo.hpp"

namespace esca::core {

class FifoGroup {
 public:
  FifoGroup(int columns, std::size_t depth);

  sim::Fifo<Match>& fifo(int column) { return fifos_[static_cast<std::size_t>(column)]; }
  const sim::Fifo<Match>& fifo(int column) const {
    return fifos_[static_cast<std::size_t>(column)];
  }

  bool all_empty() const;

  /// Deepest any FIFO ever got (FIFO-depth ablation metric).
  std::size_t high_water() const;

 private:
  std::vector<sim::Fifo<Match>> fifos_;
};

}  // namespace esca::core
