// The simulator's fast paths against the loops they replaced, kept in
// sdmu_reference.hpp: site-list tile encoding against volume probing, and
// the ring-buffered, fast-forwarding SDMU against the one that steps every
// cycle. Every tile must encode to the same mask, column starts and site
// rows, and simulate to the same SdmuStats and match-group stream; and a
// geometry's match stream must not depend on any timing parameter.
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/encoding.hpp"
#include "core/sdmu.hpp"
#include "core/zero_removing.hpp"
#include "sdmu_reference.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

::testing::AssertionResult same_tile(const EncodedTile& fast, const EncodedTile& ref) {
  if (fast.tile_coord() != ref.tile_coord() || fast.padded_size() != ref.padded_size()) {
    return ::testing::AssertionFailure() << "tile " << fast.tile_coord() << " vs "
                                         << ref.tile_coord();
  }
  for (int col = 0; col < ref.columns(); ++col) {
    for (int z = 0; z < ref.depth(); ++z) {
      if (fast.mask_at(col, z) != ref.mask_at(col, z)) {
        return ::testing::AssertionFailure() << "mask bit (" << col << ", " << z << ") of tile "
                                             << ref.tile_coord();
      }
    }
  }
  if (fast.column_start() != ref.column_start()) {
    return ::testing::AssertionFailure() << "column starts of tile " << ref.tile_coord();
  }
  if (fast.site_rows() != ref.site_rows()) {
    return ::testing::AssertionFailure() << "site rows of tile " << ref.tile_coord();
  }
  if (fast.core_active_count() != ref.core_active_count()) {
    return ::testing::AssertionFailure() << "core sites of tile " << ref.tile_coord();
  }
  return ::testing::AssertionSuccess();
}

std::array<std::int64_t, 9> fields(const SdmuStats& s) {
  return {s.cycles,           s.srf_total,          s.srf_active,
          s.srf_skipped,      s.matches,            s.scan_stall_cycles,
          s.fetch_stall_cycles, s.mux_idle_cycles, static_cast<std::int64_t>(s.fifo_high_water)};
}

::testing::AssertionResult same_groups(std::span<const Match> stream,
                                       const std::vector<reference::MatchGroup>& groups) {
  std::size_t next = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const Match& m : groups[g].matches) {
      if (next == stream.size() || stream[next] != m || m.out_row != groups[g].out_row) {
        return ::testing::AssertionFailure() << "match " << next << " (group " << g << ")";
      }
      ++next;
    }
    // A group ends where the stream's out_row changes.
    if (next < stream.size() && stream[next].out_row == groups[g].out_row) {
      return ::testing::AssertionFailure() << "group " << g << " runs on in the stream";
    }
  }
  if (next != stream.size()) {
    return ::testing::AssertionFailure() << stream.size() - next << " extra matches";
  }
  return ::testing::AssertionSuccess();
}

TEST(SdmuReferenceTest, FastPathsMatchTheReferenceLoops) {
  Rng rng(2103);
  const sparse::SparseTensor inputs[] = {
      test::random_sparse_tensor({17, 18, 19}, 1, 0.03, rng, 400),
      test::clustered_tensor({20, 20, 20}, 1, rng, 5, 350),
  };
  // 4x4x70 tiles have mask columns longer than a 64-bit word.
  const Coord3 tile_sizes[] = {{8, 8, 8}, {4, 4, 4}, {2, 3, 5}, {16, 8, 4}, {1, 1, 1}, {4, 4, 70}};
  const int kernels[] = {1, 3, 5};
  struct Timing {
    int fifo_depth;
    int mask_read_cycles;
    int cycles_per_match;
  };
  std::vector<Timing> timings;
  for (const int depth : {1, 2, 16}) {
    for (const int reads : {1, 3, 9}) {
      for (const int ccpm : {1, 2, 4, 9, 16}) timings.push_back({depth, reads, ccpm});
    }
  }
  // Every geometry runs a rotating seventh of the 45 timing points, so each
  // point runs on several geometries and the test stays fast.
  constexpr std::size_t kStride = 7;

  std::size_t geometry_index = 0;
  for (const sparse::SparseTensor& sites : inputs) {
    for (const Coord3& tile_size : tile_sizes) {
      for (const int kernel : kernels) {
        ++geometry_index;
        SCOPED_TRACE(str::format("sites %zu, tile %dx%dx%d, K=%d", sites.size(), tile_size.x,
                                 tile_size.y, tile_size.z, kernel));
        ArchConfig cfg;
        cfg.tile_size = tile_size;
        cfg.kernel_size = kernel;
        const TileGrid grid = ZeroRemoving(tile_size).apply(sites);
        EncodingStats fast_stats;
        EncodingStats ref_stats;
        const std::vector<EncodedTile> fast = TileEncoder(cfg).encode(sites, grid, &fast_stats);
        const std::vector<EncodedTile> ref = reference::encode(cfg, sites, grid, &ref_stats);
        ASSERT_EQ(fast.size(), ref.size());
        for (std::size_t t = 0; t < ref.size(); ++t) ASSERT_TRUE(same_tile(fast[t], ref[t]));
        EXPECT_EQ(fast_stats.tiles, ref_stats.tiles);
        EXPECT_EQ(fast_stats.mask_bytes, ref_stats.mask_bytes);
        EXPECT_EQ(fast_stats.stored_sites, ref_stats.stored_sites);
        EXPECT_EQ(fast_stats.core_sites, ref_stats.core_sites);
        EXPECT_EQ(fast_stats.halo_duplicates, ref_stats.halo_duplicates);

        std::vector<Match> first_stream;  // the geometry's stream at its first timing
        for (std::size_t i = geometry_index % kStride; i < timings.size(); i += kStride) {
          const Timing& timing = timings[i];
          SCOPED_TRACE(str::format("FIFO %d, mask read %d, %d cycles/match", timing.fifo_depth,
                                   timing.mask_read_cycles, timing.cycles_per_match));
          cfg.fifo_depth = timing.fifo_depth;
          cfg.mask_read_cycles = timing.mask_read_cycles;
          Sdmu sdmu(cfg);
          std::vector<Match> stream;
          for (std::size_t t = 0; t < ref.size(); ++t) {
            const SdmuStats got = sdmu.simulate_tile(fast[t], timing.cycles_per_match);
            const reference::SdmuResult want =
                reference::simulate_tile(cfg, ref[t], sites, timing.cycles_per_match);
            ASSERT_EQ(fields(got), fields(want.stats)) << "tile " << ref[t].tile_coord();
            ASSERT_TRUE(same_groups(sdmu.matches(), want.groups));
            stream.insert(stream.end(), sdmu.matches().begin(), sdmu.matches().end());
          }
          if (first_stream.empty()) first_stream = std::move(stream);
          else EXPECT_EQ(stream, first_stream);
        }
      }
    }
  }
}

}  // namespace
}  // namespace esca::core
