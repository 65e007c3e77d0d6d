// Micro-benchmark: rulebook application — scalar reference vs. the
// gather-GEMM-scatter ComputeEngine at 1/2/4 threads, float and int8.
//
// The scalar reference is the pre-refactor triple loop (per-element zero
// skip, no tiling); the engine gathers rule-matched rows into contiguous
// tiles and streams them through the blocked microkernel, sharded over
// out-row blocks (sparse/compute.hpp). Both paths execute the identical
// pre-bucketed geometry, so the comparison isolates pure compute. Float
// engine outputs are verified bit-identical to the reference; int8
// accumulators are verified equal.
//
// Usage: bench_rulebook_apply [resolution=192] [repeats=3] [sample=0]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "sparse/compute.hpp"
#include "sparse/geometry.hpp"
#include "sparse/testing/reference.hpp"

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): bench main

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

template <typename Fn>
double best_seconds(int repeats, const Fn& fn) {
  double best = 1e30;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

std::string ms(double seconds) { return str::format("%.2f ms", seconds * 1e3); }

/// The retained int8 scalar loop (the quant gold model's pre-refactor
/// accumulate), inlined here so the bench times pure accumulation.
void scalar_accumulate(const std::vector<std::int16_t>& in, int cin,
                       const sparse::RuleBook& rb, const std::vector<std::int8_t>& w, int cout,
                       std::vector<std::int64_t>& acc) {
  std::fill(acc.begin(), acc.end(), 0);
  for (int o = 0; o < rb.kernel_volume(); ++o) {
    const std::int8_t* wo =
        w.data() + static_cast<std::size_t>(o) * static_cast<std::size_t>(cin) *
                       static_cast<std::size_t>(cout);
    for (const sparse::Rule& rule : rb.rules_for(o)) {
      const std::int16_t* a = in.data() + static_cast<std::size_t>(rule.in_row) * cin;
      std::int64_t* out = acc.data() + static_cast<std::size_t>(rule.out_row) * cout;
      for (int ci = 0; ci < cin; ++ci) {
        const std::int32_t av = a[ci];
        if (av == 0) continue;
        const std::int8_t* wrow = wo + static_cast<std::size_t>(ci) * cout;
        for (int co = 0; co < cout; ++co) {
          out[co] += static_cast<std::int64_t>(av) * wrow[co];
        }
      }
    }
  }
}

struct Timings {
  double scalar{0.0};
  double engine[3] = {};  // 1, 2, 4 threads
};

void emit(Table& table, const char* dtype, int c, std::int64_t rules, const Timings& t) {
  table.row({str::format("%s C=%d", dtype, c), str::with_commas(rules), ms(t.scalar),
             ms(t.engine[0]), ms(t.engine[1]), ms(t.engine[2]),
             str::format("%.2fx", t.scalar / t.engine[0]),
             str::format("%.2fx", t.engine[0] / t.engine[2])});
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const int resolution = static_cast<int>(cfg.get_int("resolution", bench::kPaperResolution));
  const int repeats = static_cast<int>(cfg.get_int("repeats", 3));
  ESCA_REQUIRE(repeats >= 1, "repeats must be >= 1, got " << repeats);
  const auto sample = static_cast<std::size_t>(cfg.get_int("sample", 0));
  const int thread_counts[3] = {1, 2, 4};

  const sparse::SparseTensor shape = bench::shapenet_tensor(sample, resolution);
  const sparse::LayerGeometry geometry = sparse::build_submanifold_geometry(shape, 3);
  const std::int64_t rules = geometry.total_rules();

  std::printf(
      "ESCA bench: rulebook application — scalar reference vs gather-GEMM-scatter engine\n"
      "(ShapeNet-like sample %zu at %d^3: %zu sites, %lld rules, Sub-Conv k=3;\n"
      " min over %d repeats; engine at 1/2/4 threads, outputs verified)\n\n",
      sample, resolution, shape.size(), static_cast<long long>(rules), repeats);

  Table table("RULEBOOK APPLY: SCALAR REFERENCE vs COMPUTE ENGINE");
  table.header({"Workload", "Rules", "Scalar", "Engine x1", "Engine x2", "Engine x4",
                "Speedup x1", "Scaling x4"});

  Rng rng(bench::kSeed);
  bool verified = true;
  for (const int c : {16, 32, 64, 128}) {
    // ---- float ----
    sparse::SparseTensor x = shape.zeros_like(c);
    for (float& v : x.raw_features()) v = rng.bernoulli(0.05) ? 0.0F : rng.uniform_f(-1, 1);
    std::vector<float> w(static_cast<std::size_t>(27) * c * c);
    for (float& v : w) v = rng.uniform_f(-0.1F, 0.1F);

    sparse::SparseTensor ref = shape.zeros_like(c);
    sparse::SparseTensor out = shape.zeros_like(c);
    Timings tf;
    tf.scalar = best_seconds(repeats, [&] {
      std::fill(ref.raw_features().begin(), ref.raw_features().end(), 0.0F);
      sparse::oracle::apply_rulebook_reference(x, geometry.rulebook, w, ref);
    });
    for (int t = 0; t < 3; ++t) {
      sparse::ComputeEngine engine{sparse::ComputeOptions{.threads = thread_counts[t]}};
      tf.engine[t] = best_seconds(repeats, [&] {
        std::fill(out.raw_features().begin(), out.raw_features().end(), 0.0F);
        engine.apply(x, geometry.blocked, w, out);
      });
      if (std::memcmp(out.raw_features().data(), ref.raw_features().data(),
                      ref.raw_features().size() * sizeof(float)) != 0) {
        std::printf("!! float output mismatch at C=%d threads=%d\n", c, thread_counts[t]);
        verified = false;
      }
    }
    emit(table, "float", c, rules, tf);

    // ---- int8 weights x int16 activations -> int64 ----
    std::vector<std::int16_t> qx(shape.size() * static_cast<std::size_t>(c));
    for (auto& v : qx) {
      v = rng.bernoulli(0.05) ? 0
                              : static_cast<std::int16_t>(rng.uniform_int(-32767, 32767));
    }
    std::vector<std::int8_t> qw(static_cast<std::size_t>(27) * c * c);
    for (auto& v : qw) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));

    std::vector<std::int64_t> qref(shape.size() * static_cast<std::size_t>(c));
    Timings ti;
    ti.scalar = best_seconds(
        repeats, [&] { scalar_accumulate(qx, c, geometry.rulebook, qw, c, qref); });
    for (int t = 0; t < 3; ++t) {
      sparse::ComputeEngine engine{sparse::ComputeOptions{.threads = thread_counts[t]}};
      std::span<const std::int64_t> acc;
      ti.engine[t] =
          best_seconds(repeats, [&] { acc = engine.accumulate(qx, c, geometry.blocked, qw, c); });
      if (std::memcmp(acc.data(), qref.data(), qref.size() * sizeof(std::int64_t)) != 0) {
        std::printf("!! int8 accumulator mismatch at C=%d threads=%d\n", c, thread_counts[t]);
        verified = false;
      }
    }
    emit(table, "int8", c, rules, ti);
  }

  table.print();
  if (!verified) {
    std::printf("\n!! verification FAILED — timings above are not valid datapoints\n");
    return 1;
  }
  return 0;
}
