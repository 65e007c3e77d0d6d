// Block-RAM resource mapping: how many BRAM36 primitives a buffer of a
// given width x depth consumes on an UltraScale+ device (Table II input).
#pragma once

#include <cstdint>
#include <string>

namespace esca::sim {

/// Geometry of one logical on-chip buffer.
struct BramSpec {
  std::string name;
  std::int64_t word_bits{0};  ///< width of one entry in bits
  std::int64_t depth{0};      ///< number of entries
  int ports{1};               ///< simple dual-port = 1 read + 1 write

  std::int64_t total_bits() const { return word_bits * depth; }
  std::int64_t total_bytes() const { return (total_bits() + 7) / 8; }
};

/// Number of BRAM36 primitives needed for the spec.
///
/// An UltraScale+ BRAM36 stores 36 Kib and supports natural aspect ratios up
/// to 72 bits wide (as RAM36E2 in SDP mode). Mapping follows the usual
/// synthesis strategy: ceil(width/72) cascades, each ceil(depth/512) deep for
/// 72-bit words (512x72), with narrower aspect ratios allowing deeper
/// primitives (e.g. 36Kx1). We model the piecewise aspect table.
double bram36_count(const BramSpec& spec);

}  // namespace esca::sim
