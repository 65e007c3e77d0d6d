// Scalar reference forwards — the oracles the compute engine and the
// layers are tested against.
//
// FOR TESTS AND BENCHES ONLY. Each is a plain loop written against the
// layers' public accessors; production layers execute through
// sparse::ComputeEngine over a LayerGeometry's pre-bucketed rules.
#pragma once

#include <span>

#include "nn/sparse_conv.hpp"
#include "quant/qconv.hpp"
#include "quant/qtensor.hpp"
#include "sparse/geometry.hpp"
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

/// Sub-Conv `conv` by direct per-site neighbourhood accumulation
/// (coordinate lookups instead of a rulebook); O(sites * K^3 * Cin * Cout).
SparseTensor forward_naive(const nn::SparseConv3d& conv, const SparseTensor& input);

/// `layer`'s integer forward as a scalar triple loop over `geometry`'s
/// rulebook, any kind: per-element zero skip, per-call INT64 accumulator,
/// then the layer's requantization onto the geometry's output sites.
quant::QSparseTensor forward_reference(const quant::QuantizedConv& layer,
                                       const quant::QSparseTensor& input,
                                       const LayerGeometry& geometry);

}  // namespace esca::sparse::oracle
