#include "baseline/cpu_baseline.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/init.hpp"
#include "sparse/compute.hpp"
#include "sparse/rulebook.hpp"

namespace esca::baseline {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

std::vector<float> random_weights(int in_channels, int out_channels, int kernel_size) {
  Rng rng(0x5eedULL);
  const auto volume = static_cast<std::size_t>(kernel_size) * kernel_size * kernel_size;
  std::vector<float> weights(volume * static_cast<std::size_t>(in_channels) *
                             static_cast<std::size_t>(out_channels));
  nn::kaiming_uniform(weights, static_cast<int>(volume) * in_channels, rng);
  return weights;
}

void finish(CpuRunResult& best) {
  best.effective_gops =
      best.total_seconds > 0.0
          ? 2.0 * static_cast<double>(best.macs) / best.total_seconds / 1e9
          : 0.0;
}

}  // namespace

CpuRunResult time_cpu_subconv(const sparse::SparseTensor& input, int out_channels,
                              int kernel_size, int repeats) {
  ESCA_REQUIRE(repeats >= 1, "repeats must be >= 1");
  const std::vector<float> weights = random_weights(input.channels(), out_channels, kernel_size);

  sparse::ComputeEngine engine;
  CpuRunResult best;
  best.total_seconds = 1e30;
  for (int run = 0; run < repeats; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    const sparse::LayerGeometry geometry =
        sparse::build_submanifold_geometry(input, kernel_size);
    const double rb_s = seconds_since(t0);

    sparse::SparseTensor output = input.zeros_like(out_channels);
    const auto t1 = std::chrono::steady_clock::now();
    engine.apply(input, geometry.blocked, weights, output);
    const double compute_s = seconds_since(t1);

    const double total = rb_s + compute_s;
    if (total < best.total_seconds) {
      best.rulebook_seconds = rb_s;
      best.compute_seconds = compute_s;
      best.total_seconds = total;
      best.macs = geometry.macs(input.channels(), out_channels);
    }
  }
  finish(best);
  return best;
}

CpuRunResult time_cpu_subconv(const sparse::SparseTensor& input, int out_channels,
                              const sparse::LayerGeometry& geometry, int repeats) {
  ESCA_REQUIRE(repeats >= 1, "repeats must be >= 1");
  ESCA_REQUIRE(geometry.kind == sparse::GeometryKind::kSubmanifold,
               "cpu baseline replays submanifold geometry, got "
                   << sparse::to_string(geometry.kind));
  const std::vector<float> weights =
      random_weights(input.channels(), out_channels, geometry.kernel_size);

  sparse::ComputeEngine engine;
  CpuRunResult best;
  best.total_seconds = 1e30;
  for (int run = 0; run < repeats; ++run) {
    sparse::SparseTensor output = input.zeros_like(out_channels);
    const auto t0 = std::chrono::steady_clock::now();
    engine.apply(input, geometry.blocked, weights, output);
    const double compute_s = seconds_since(t0);
    if (compute_s < best.total_seconds) {
      best.rulebook_seconds = 0.0;
      best.compute_seconds = compute_s;
      best.total_seconds = compute_s;
      best.macs = geometry.macs(input.channels(), out_channels);
    }
  }
  finish(best);
  return best;
}

}  // namespace esca::baseline
