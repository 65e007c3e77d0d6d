// Scalar reference forwards — the oracles the compute engine and the
// layers are tested against.
//
// FOR TESTS AND BENCHES ONLY. Each is a plain loop written against the
// layers' public accessors; production layers execute through
// sparse::ComputeEngine over a LayerGeometry's pre-bucketed rules.
#pragma once

#include <span>

#include "nn/submanifold_conv.hpp"
#include "quant/qsubconv.hpp"
#include "quant/qtensor.hpp"
#include "sparse/rulebook.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::sparse::oracle {

/// out[j] += W[o]^T in[i] for every rule (i -> j) of every offset o: a
/// naive triple loop with a per-element zero skip. Defines the canonical
/// float accumulation order (offset-major, rule order within an offset,
/// in-channel ascending) that ComputeEngine::apply reproduces bit-exactly
/// for any thread count.
///
/// @param weights  [kernel_volume][in_channels][out_channels], row-major.
void apply_rulebook_reference(const SparseTensor& input, const RuleBook& rulebook,
                              std::span<const float> weights, SparseTensor& output);

/// `conv` by direct per-site neighbourhood accumulation (coordinate lookups
/// instead of a rulebook); O(sites * K^3 * Cin * Cout).
SparseTensor forward_naive(const nn::SubmanifoldConv3d& conv, const SparseTensor& input);

/// `layer`'s integer forward as a scalar triple loop over `rulebook` (e.g.
/// a geometry's rulebook): per-element zero skip, per-call INT64
/// accumulator, then the layer's requantization.
quant::QSparseTensor forward_reference(const quant::QuantizedSubConv& layer,
                                       const quant::QSparseTensor& input,
                                       const RuleBook& rulebook);

}  // namespace esca::sparse::oracle
