// esca_e2e: the repository's end-to-end benchmark program. run.py builds it
// and drives it; it can also be run directly:
//
//   esca_e2e --workload lidar_esca|stream_paced|stream_saturated
//            --seed N --seconds S [--trace 0|1 --trace-file PATH]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics {name: {value, unit}}, exact {name: value} (the counts
// that must repeat bit for bit for a seed) and provenance. Progress and
// check failures go to standard error. Exit status: 0 when every output
// check passed, 1 on a failed check or error, 2 for an unoptimized build.
#include <cstdio>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"

#ifndef ESCA_BENCH_BUILD_TYPE
#define ESCA_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): benchmark main

/// Why this build must not be timed, or nullptr when it may be.
const char* unoptimized_build() {
#ifndef NDEBUG
  return "assertions are enabled (Debug build)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer is compiled in";
#else
  const std::string type = ESCA_BENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo" ? nullptr : "build type is not Release";
#endif
}

e2e::Args parse_args(int argc, char** argv) {
  e2e::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-file") {
      args.trace_file = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (args.workload != "lidar_esca" && args.workload != "stream_paced" &&
      args.workload != "stream_saturated") {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  if (args.trace && args.trace_file.empty()) {
    throw std::invalid_argument("--trace 1 needs --trace-file");
  }
  return args;
}

json::Value to_json(const e2e::Result& r, const e2e::Args& args) {
  json::Object metrics;
  for (const auto& [name, metric] : r.metrics) {
    metrics[name] = json::Value::make_object({{"value", json::Value::make_number(metric.first)},
                                              {"unit", json::Value::make_string(metric.second)}});
  }
  json::Object exact;
  for (const auto& [name, value] : r.exact) exact[name] = json::Value::make_number(value);
  json::Object provenance{
      {"workload", json::Value::make_string(args.workload)},
      {"seed", json::Value::make_number(static_cast<double>(args.seed))},
      {"seconds", json::Value::make_number(args.seconds)},
      {"nproc", json::Value::make_number(std::thread::hardware_concurrency())},
      {"build_type", json::Value::make_string(ESCA_BENCH_BUILD_TYPE)},
      {"compiler", json::Value::make_string(__VERSION__)},
  };
  return json::Value::make_object({
      {"correct", json::Value::make_bool(r.correct)},
      {"attempted", json::Value::make_number(static_cast<double>(r.attempted))},
      {"failed", json::Value::make_number(static_cast<double>(r.failed))},
      {"traced_frames", json::Value::make_number(static_cast<double>(r.traced_frames))},
      {"metrics", json::Value::make_object(std::move(metrics))},
      {"exact", json::Value::make_object(std::move(exact))},
      {"provenance", json::Value::make_object(std::move(provenance))},
  });
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* why = unoptimized_build()) {
    std::fprintf(stderr, "esca_e2e: refusing to benchmark: %s\n", why);
    return 2;
  }
  try {
    const e2e::Args args = parse_args(argc, argv);
    e2e::Result result = args.workload == "lidar_esca"
                                    ? e2e::run_lidar_esca(args)
                                    : e2e::run_stream(args, args.workload == "stream_saturated");
    result.set("peak_rss_mb", e2e::peak_rss_mb(), "MB");
    std::printf("%s\n", to_json(result, args).dump().c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esca_e2e: %s\n", e.what());
    return 1;
  }
}
