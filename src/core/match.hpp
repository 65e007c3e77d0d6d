// Match type (paper §III.C, Fig. 5).
//
// A match pairs one nonzero activation with the kernel weight it meets for a
// given center; a match group is all matches of one SRF (one output site),
// consecutive in the SDMU's match stream and sharing its out_row.
#pragma once

#include <cstdint>

namespace esca::core {

struct Match {
  std::int32_t in_row;        ///< activation row in the layer input tensor
  std::int16_t weight_index;  ///< kernel offset index, 0 .. K^3-1
  std::int16_t column;        ///< decoder column (0 .. K^2-1) that produced it
  std::int32_t out_row;       ///< output site row (the SRF center)

  friend bool operator==(const Match&, const Match&) = default;
};

}  // namespace esca::core
