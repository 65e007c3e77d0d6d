// Reporting + batch execution tests.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/accelerator.hpp"
#include "core/layer_compiler.hpp"
#include "core/report.hpp"
#include "nn/unet.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

CompiledNetwork small_network(Rng& rng) {
  const auto x = test::clustered_tensor({20, 20, 20}, 1, rng, 6, 150);
  nn::SSUNetConfig cfg;
  cfg.base_planes = 4;
  cfg.levels = 2;
  cfg.reps_per_level = 1;
  const nn::SSUNet net(cfg, 21);
  std::vector<nn::TraceEntry> trace;
  (void)net.forward(x, &trace);
  return LayerCompiler::compile(trace);
}

TEST(ReportTest, TableListsEveryLayerAndTotal) {
  Rng rng(211);
  runtime::Engine engine;
  const runtime::Plan plan = runtime::make_plan(small_network(rng));
  const NetworkRunStats stats = engine.run(plan, {}, {.verify = false}).merged_stats();
  const std::string table = layer_report_table(stats, "test report");
  EXPECT_NE(table.find("test report"), std::string::npos);
  EXPECT_NE(table.find("stem"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
  for (const auto& l : stats.layers) {
    EXPECT_NE(table.find(l.layer_name), std::string::npos) << l.layer_name;
  }
}

TEST(ReportTest, CsvHasHeaderEveryLayerAndTotalRow) {
  Rng rng(212);
  runtime::Engine engine;
  const runtime::Plan plan = runtime::make_plan(small_network(rng));
  const NetworkRunStats stats = engine.run(plan, {}, {.verify = false}).merged_stats();

  std::ostringstream os;
  write_layer_csv(os, stats);
  const auto lines = str::split(os.str(), '\n');
  // header + layers + total + trailing empty.
  ASSERT_EQ(lines.size(), stats.layers.size() + 3);
  EXPECT_TRUE(str::starts_with(lines[0], "layer,cin,cout,"));
  EXPECT_TRUE(str::starts_with(lines[lines.size() - 2], "total,"));
  // Every data row has the full column count.
  const std::size_t columns = str::split(lines[0], ',').size();
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(str::split(lines[i], ',').size(), columns) << "row " << i;
  }
}

TEST(ReportTest, CsvFileRejectsBadPath) {
  const NetworkRunStats stats;
  EXPECT_THROW(write_layer_csv_file("/nonexistent/dir/report.csv", stats), InvalidArgument);
}

TEST(BatchRunTest, WeightTrafficChargedOnlyOnFirstFrame) {
  Rng rng(213);
  runtime::Engine engine;
  const runtime::Plan plan = runtime::make_plan(small_network(rng));
  const int batch = 3;
  const runtime::RunReport report = engine.run(plan, runtime::FrameBatch::replay(batch));
  const NetworkRunStats stats = report.merged_stats();
  ASSERT_EQ(stats.layers.size(), plan.layer_count() * batch);

  const std::size_t per_frame = plan.layer_count();
  for (std::size_t i = 0; i < per_frame; ++i) {
    const auto& first = stats.layers[i];
    const auto& second = stats.layers[per_frame + i];
    const auto& third = stats.layers[2 * per_frame + i];
    EXPECT_EQ(first.dram_bytes_in - second.dram_bytes_in,
              plan.network.layers[i].layer.weight_bytes())
        << "layer " << i;
    EXPECT_EQ(second.dram_bytes_in, third.dram_bytes_in);
    // Compute cycles are identical across frames (same input).
    EXPECT_EQ(second.total_cycles, third.total_cycles);
  }
}

TEST(BatchRunTest, SteadyStateIsFasterPerFrame) {
  Rng rng(214);
  runtime::Engine engine;
  const runtime::Plan plan = runtime::make_plan(small_network(rng));
  const runtime::RunReport report =
      engine.run(plan, runtime::FrameBatch::replay(2), {.verify = false});
  ASSERT_EQ(report.frames.size(), 2U);
  EXPECT_LT(report.frames[1].total_seconds(), report.frames[0].total_seconds());
}

TEST(RunOptionsTest, WeightsResidentStillBitExact) {
  Rng rng(215);
  const CompiledNetwork net = small_network(rng);
  const ArchConfig cfg;
  Accelerator acc{cfg};
  RunOptions options;
  options.weights_resident = true;
  for (const auto& cl : net.layers) {
    SCOPED_TRACE(cl.layer.name());
    test::expect_closed_forms(acc.run_layer(cl.layer, *cl.geometry, options), *cl.geometry, cfg);
  }
}

}  // namespace
}  // namespace esca::core
