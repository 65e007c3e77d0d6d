// Scalar rulebook execution: the order-defining reference.
//
// apply_rulebook_reference() is the retained scalar triple loop. It defines
// the floating-point accumulation order (offset-major, rule order within an
// offset, in-channel ascending) that the ComputeEngine (sparse/compute.hpp)
// reproduces bit-exactly for any thread count; tests and benches compare
// against it. Layers execute through the engine over a LayerGeometry's
// pre-bucketed rules, never through this loop.
#pragma once

#include <span>

#include "sparse/rulebook.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::sparse {

/// out[j] += W[o]^T in[i] for every rule (i -> j) of every offset o: a
/// naive triple loop with a per-element zero skip. Defines the canonical
/// accumulation order.
///
/// @param weights  [kernel_volume][in_channels][out_channels], row-major.
void apply_rulebook_reference(const SparseTensor& input, const RuleBook& rulebook,
                              std::span<const float> weights, SparseTensor& output);

}  // namespace esca::sparse
