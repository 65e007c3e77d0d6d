// Symmetric linear quantization (paper §IV.A: INT8 weights, INT16
// activations).
//
// q = clamp(round(x / scale)); x ~ q * scale. Scales are calibrated from
// absolute maxima (per tensor). Accumulation is 64-bit, modelling the DSP48
// 48-bit accumulator with headroom.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace esca::quant {

inline constexpr std::int32_t kInt8Max = 127;
inline constexpr std::int32_t kInt16Max = 32767;

struct QuantParams {
  float scale{1.0F};

  float dequantize(std::int32_t q) const { return static_cast<float>(q) * scale; }
};

/// Scale such that |x| <= abs_max maps onto [-qmax, qmax].
QuantParams calibrate(float abs_max, std::int32_t qmax);

/// Round-to-nearest-even quantization with saturation.
std::int32_t quantize_value(float x, const QuantParams& params, std::int32_t qmax);

std::vector<std::int8_t> quantize_int8(std::span<const float> values, const QuantParams& params);

/// Max |x - dequant(quant(x))| over the span (bounded by scale/2 pre-clamp).
float quantization_error(std::span<const float> values, const QuantParams& params,
                         std::int32_t qmax);

}  // namespace esca::quant
