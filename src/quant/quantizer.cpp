#include "quant/quantizer.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace esca::quant {

QuantParams calibrate(float abs_max, std::int32_t qmax) {
  ESCA_REQUIRE(qmax > 0, "qmax must be positive");
  // Guard against all-zero tensors: any nonzero scale works, 1.0 is neutral.
  if (abs_max <= 0.0F) return QuantParams{1.0F};
  return QuantParams{abs_max / static_cast<float>(qmax)};
}

std::int32_t quantize_value(float x, const QuantParams& params, std::int32_t qmax) {
  ESCA_ASSERT(params.scale > 0.0F, "scale must be positive");
  // Saturate before the cast (in double, which holds any qmax exactly):
  // converting a float beyond the int32 range is undefined behaviour.
  const double q = std::nearbyint(static_cast<double>(x / params.scale));
  const auto limit = static_cast<double>(qmax);
  return static_cast<std::int32_t>(std::clamp(q, -limit, limit));
}

std::vector<std::int8_t> quantize_int8(std::span<const float> values,
                                       const QuantParams& params) {
  std::vector<std::int8_t> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = static_cast<std::int8_t>(quantize_value(values[i], params, kInt8Max));
  }
  return out;
}

float quantization_error(std::span<const float> values, const QuantParams& params,
                         std::int32_t qmax) {
  float max_err = 0.0F;
  for (const float v : values) {
    const float back = params.dequantize(quantize_value(v, params, qmax));
    max_err = std::max(max_err, std::fabs(v - back));
  }
  return max_err;
}

}  // namespace esca::quant
