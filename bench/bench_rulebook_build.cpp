// Micro-benchmark: rulebook construction — hash-probing oracle vs. the
// Morton-ordered geometry engine at 1/2/4 shards.
//
// The oracle is the pre-refactor per-(site, offset) unordered_map path; the
// engine walks Morton-sorted sites with galloping binary search
// (sparse/geometry.hpp). Reported per workload: build time (min over
// repeats) for submanifold k=3 and strided k=2/s=2 geometry.
//
// Usage: bench_rulebook_build [resolution=96] [samples=2] [repeats=3]
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "common/config.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "sparse/geometry.hpp"
#include "sparse/rulebook.hpp"
#include "sparse/testing/rulebook_oracle.hpp"

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

bool g_verified = true;  // any engine-vs-oracle rule-count mismatch fails the run

void run_workload(Table& table, const std::string& name, const sparse::SparseTensor& t,
                  int repeats) {
  std::int64_t rules_sub = 0;
  std::int64_t rules_down = 0;

  const double hash_sub = best_seconds(
      repeats, [&] { rules_sub = sparse::oracle::submanifold(t, 3).total_rules(); });
  const double hash_down = best_seconds(
      repeats, [&] { rules_down = sparse::oracle::strided(t, 2, 2).rulebook.total_rules(); });

  double engine_sub[3] = {};
  double engine_down[3] = {};
  const int shard_counts[3] = {1, 2, 4};
  for (int s = 0; s < 3; ++s) {
    const sparse::GeometryOptions opts{.shards = shard_counts[s]};
    std::int64_t check_sub = 0;
    std::int64_t check_down = 0;
    engine_sub[s] = best_seconds(repeats, [&] {
      check_sub = sparse::build_submanifold_geometry(t, 3, opts).total_rules();
    });
    engine_down[s] = best_seconds(repeats, [&] {
      check_down = sparse::build_downsample_geometry(t, 2, 2, opts).total_rules();
    });
    if (check_sub != rules_sub || check_down != rules_down) {
      std::printf("!! rule-count mismatch on %s (shards=%d)\n", name.c_str(),
                  shard_counts[s]);
      g_verified = false;
    }
  }

  table.row({name + " sub k3", str::with_commas(static_cast<std::int64_t>(t.size())),
             str::with_commas(rules_sub), ms(hash_sub), ms(engine_sub[0]),
             ms(engine_sub[1]), ms(engine_sub[2]),
             str::format("%.2fx", hash_sub / engine_sub[0])});
  table.row({name + " down k2s2", str::with_commas(static_cast<std::int64_t>(t.size())),
             str::with_commas(rules_down), ms(hash_down), ms(engine_down[0]),
             ms(engine_down[1]), ms(engine_down[2]),
             str::format("%.2fx", hash_down / engine_down[0])});
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const int resolution = static_cast<int>(cfg.get_int("resolution", 96));
  const auto samples = static_cast<std::size_t>(cfg.get_int("samples", 2));
  const int repeats = static_cast<int>(cfg.get_int("repeats", 3));
  ESCA_REQUIRE(repeats >= 1, "repeats must be >= 1, got " << repeats);

  std::printf(
      "ESCA bench: rulebook construction — hash oracle vs Morton geometry engine\n"
      "(%zu ShapeNet-like + %zu NYU-like samples at %d^3, min over %d repeats;\n"
      " engine speedup column is serial engine vs hash)\n\n",
      samples, samples, resolution, repeats);

  Table table("RULEBOOK BUILD: HASH ORACLE vs MORTON ENGINE");
  table.header({"Workload", "Sites", "Rules", "Hash", "Engine x1", "Engine x2", "Engine x4",
                "Speedup x1"});
  for (std::size_t i = 0; i < samples; ++i) {
    run_workload(table, str::format("shapenet%zu", i), bench::shapenet_tensor(i, resolution),
                 repeats);
    run_workload(table, str::format("nyu%zu", i), bench::nyu_tensor(i, resolution), repeats);
  }
  table.print();
  if (!g_verified) {
    std::printf("\n!! verification FAILED — timings above are not valid datapoints\n");
    return 1;
  }
  return 0;
}
