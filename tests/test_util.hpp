// Shared helpers for the ESCA test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/accelerator.hpp"
#include "sparse/geometry.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::test {

/// Random sparse tensor: `density` fraction of sites active (at most
/// max_sites), features ~ U(-1, 1) with occasional exact zeros to exercise
/// zero-skipping paths.
inline sparse::SparseTensor random_sparse_tensor(Coord3 extent, int channels, double density,
                                                 Rng& rng, std::size_t max_sites = 4096) {
  sparse::SparseTensor t(extent, channels);
  const auto total = extent.volume();
  for (std::int64_t i = 0; i < total && t.size() < max_sites; ++i) {
    if (!rng.bernoulli(density)) continue;
    const Coord3 c = delinearize(i, extent);
    const std::int32_t row = t.add_site(c);
    for (int ch = 0; ch < channels; ++ch) {
      const float v = rng.bernoulli(0.05) ? 0.0F : rng.uniform_f(-1.0F, 1.0F);
      t.set_feature(static_cast<std::size_t>(row), ch, v);
    }
  }
  // Guarantee at least one site so downstream code has work to do.
  if (t.empty()) {
    const std::int32_t row = t.add_site(
        {extent.x / 2, extent.y / 2, extent.z / 2});
    for (int ch = 0; ch < channels; ++ch) {
      t.set_feature(static_cast<std::size_t>(row), ch, 0.5F);
    }
  }
  t.sort_canonical();
  return t;
}

/// A small clustered tensor (surface-like blob) for tile/halo tests.
inline sparse::SparseTensor clustered_tensor(Coord3 extent, int channels, Rng& rng,
                                             int cluster_radius = 6, int points = 200) {
  sparse::SparseTensor t(extent, channels);
  const Coord3 center{extent.x / 2, extent.y / 2, extent.z / 2};
  for (int i = 0; i < points; ++i) {
    const Coord3 c{
        center.x + static_cast<std::int32_t>(rng.uniform_int(-cluster_radius, cluster_radius)),
        center.y + static_cast<std::int32_t>(rng.uniform_int(-cluster_radius, cluster_radius)),
        center.z + static_cast<std::int32_t>(rng.uniform_int(-cluster_radius, cluster_radius))};
    if (!in_bounds(c, extent) || t.contains(c)) continue;
    const std::int32_t row = t.add_site(c);
    for (int ch = 0; ch < channels; ++ch) {
      t.set_feature(static_cast<std::size_t>(row), ch, rng.uniform_f(-1.0F, 1.0F));
    }
  }
  t.sort_canonical();
  return t;
}

/// The simulator's closed forms for one layer run over `geometry`: the SDMU
/// matched every rule once, and the MAC array drained each match in
/// cycles_per_match array passes of Cin x Cout effective MACs.
inline void expect_closed_forms(const core::LayerRunStats& stats,
                                const sparse::LayerGeometry& geometry,
                                const core::ArchConfig& config) {
  const std::int64_t rules = geometry.total_rules();
  EXPECT_EQ(stats.sdmu.matches, rules);
  EXPECT_EQ(stats.mac_ops, rules * stats.in_channels * stats.out_channels);
  EXPECT_EQ(stats.cc_cycles,
            rules * config.cycles_per_match(stats.in_channels, stats.out_channels));
}

/// Every match the SDMU emits over `tiles`, in the order the computing core
/// consumes them (each group's matches consecutive, sharing its out_row).
inline std::vector<core::Match> sdmu_stream(const core::ArchConfig& config,
                                            const std::vector<core::EncodedTile>& tiles,
                                            int cc_cycles_per_match = 1) {
  core::Sdmu sdmu(config);
  std::vector<core::Match> stream;
  for (const core::EncodedTile& tile : tiles) {
    (void)sdmu.simulate_tile(tile, cc_cycles_per_match);
    stream.insert(stream.end(), sdmu.matches().begin(), sdmu.matches().end());
  }
  return stream;
}

/// Match groups in a stream: runs of consecutive matches with one out_row.
inline std::int64_t group_count(const std::vector<core::Match>& stream) {
  std::int64_t groups = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i == 0 || stream[i].out_row != stream[i - 1].out_row) ++groups;
  }
  return groups;
}

}  // namespace esca::test
