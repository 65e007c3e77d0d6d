// esca::Executor tests: caller participation at size 1, nested and
// concurrent fan-outs, first-exception propagation after every sibling
// partition finished, and the process-wide thread budget the compute
// engines share.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.hpp"
#include "common/rng.hpp"
#include "sparse/compute.hpp"
#include "sparse/geometry.hpp"
#include "test_util.hpp"

namespace esca {
namespace {

/// The process's live thread count from /proc/self/status ("Threads:").
int live_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = 0;
      status >> n;
      return n;
    }
  }
  return -1;
}

TEST(ExecutorTest, SizeOneRunsEveryPartitionOnTheCaller) {
  Executor executor(1);
  EXPECT_EQ(executor.size(), 1);
  std::vector<std::thread::id> ran_on(8);
  executor.parallel_for(8, [&](int part) {
    ran_on[static_cast<std::size_t>(part)] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ExecutorTest, NestedFanOutCompletes) {
  for (const int threads : {1, 2, 4}) {
    Executor executor(threads);
    std::vector<std::atomic<int>> hits(6 * 5);
    executor.parallel_for(6, [&](int outer) {
      executor.parallel_for(5, [&](int inner) {
        hits[static_cast<std::size_t>(outer * 5 + inner)].fetch_add(1);
      });
    });
    for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1) << "threads=" << threads;
  }
}

TEST(ExecutorTest, ConcurrentFanOutsAllFinishWithTheirOwnResults) {
  Executor executor(4);
  constexpr int kCallers = 8;
  constexpr int kFanOuts = 200;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int f = 0; f < kFanOuts; ++f) {
        const int parts = 1 + (c + f) % 9;
        std::vector<int> out(static_cast<std::size_t>(parts), -1);
        executor.parallel_for(parts, [&](int part) {
          out[static_cast<std::size_t>(part)] = c * 1000 + part;
        });
        for (int part = 0; part < parts; ++part) {
          if (out[static_cast<std::size_t>(part)] != c * 1000 + part) wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ExecutorTest, ThrowSurfacesAfterEverySiblingFinished) {
  Executor executor(4);
  constexpr int kParts = 8;
  std::atomic<int> finished{0};
  int finished_at_catch = -1;
  try {
    executor.parallel_for(kParts, [&](int part) {
      if (part == 3) throw std::runtime_error("part 3 failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      finished.fetch_add(1);
    });
    ADD_FAILURE() << "the partition's exception was swallowed";
  } catch (const std::runtime_error& e) {
    finished_at_catch = finished.load();
    EXPECT_STREQ(e.what(), "part 3 failed");
  }
  EXPECT_EQ(finished_at_catch, kParts - 1);

  // The executor stays usable after a failed fan-out.
  std::atomic<int> ran{0};
  executor.parallel_for(kParts, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), kParts);
}

TEST(ExecutorTest, ComputeEnginesShareTheProcessThreads) {
  Rng rng(5150);
  const auto input = test::random_sparse_tensor({16, 16, 16}, 8, 0.2, rng);
  const sparse::LayerGeometry g = sparse::build_submanifold_geometry(input, 3, {.shards = 1});
  ASSERT_GE(g.blocked.num_blocks(), 4);
  const std::vector<float> weights(27 * 8 * 8, 0.125F);

  const int before = live_threads();
  ASSERT_GT(before, 0);
  std::vector<std::unique_ptr<sparse::ComputeEngine>> engines;
  for (int e = 0; e < 4; ++e) {
    engines.push_back(
        std::make_unique<sparse::ComputeEngine>(sparse::ComputeOptions{.threads = 4}));
    sparse::SparseTensor out = input.zeros_like(8);
    engines.back()->apply(input, g.blocked, weights, out);
  }
  EXPECT_LE(live_threads() - before, Executor::global().size() - 1);
}

}  // namespace
}  // namespace esca
