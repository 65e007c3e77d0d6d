#include "core/fifo_group.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace esca::core {

FifoGroup::FifoGroup(int columns, std::size_t depth) {
  ESCA_REQUIRE(columns > 0, "FIFO group needs at least one column");
  fifos_.reserve(static_cast<std::size_t>(columns));
  for (int c = 0; c < columns; ++c) fifos_.emplace_back(depth);
}

bool FifoGroup::all_empty() const {
  return std::all_of(fifos_.begin(), fifos_.end(),
                     [](const sim::Fifo<Match>& f) { return f.empty(); });
}

std::size_t FifoGroup::high_water() const {
  std::size_t hw = 0;
  for (const auto& f : fifos_) hw = std::max(hw, f.high_water());
  return hw;
}

}  // namespace esca::core
