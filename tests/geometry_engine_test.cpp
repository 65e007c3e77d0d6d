// Unit tests for the Morton-ordered CoordIndex and the sparse geometry
// engine: lookup semantics, shard determinism, per-scale geometry sharing
// in the U-Net trace, and the build counter the runtime caching tests key
// off.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/executor.hpp"
#include "common/rng.hpp"
#include "nn/unet.hpp"
#include "sparse/coord_index.hpp"
#include "sparse/geometry.hpp"
#include "sparse/testing/rulebook_oracle.hpp"
#include "test_util.hpp"
#include "voxel/morton.hpp"

namespace esca::sparse {
namespace {

TEST(CoordIndexTest, InsertFindAndDuplicates) {
  CoordIndex idx;
  EXPECT_TRUE(idx.insert({1, 2, 3}, 0));
  EXPECT_TRUE(idx.insert({3, 2, 1}, 1));
  EXPECT_FALSE(idx.insert({1, 2, 3}, 2));  // duplicate rejected
  EXPECT_EQ(idx.size(), 2U);
  EXPECT_EQ(idx.find({1, 2, 3}), 0);
  EXPECT_EQ(idx.find({3, 2, 1}), 1);
  EXPECT_EQ(idx.find({0, 0, 0}), -1);
  EXPECT_EQ(idx.find({-1, 0, 0}), -1);  // negative coords never match
}

TEST(CoordIndexTest, ManyInsertsStayFindable) {
  // Many inserts in random order; every row stays findable.
  Rng rng(5);
  CoordIndex idx;
  std::vector<Coord3> coords;
  std::set<Coord3> seen;
  while (coords.size() < 2000) {
    const Coord3 c{static_cast<std::int32_t>(rng.uniform_int(0, 63)),
                   static_cast<std::int32_t>(rng.uniform_int(0, 63)),
                   static_cast<std::int32_t>(rng.uniform_int(0, 63))};
    if (!seen.insert(c).second) continue;
    ASSERT_TRUE(idx.insert(c, static_cast<std::int32_t>(coords.size())));
    coords.push_back(c);
  }
  for (std::size_t i = 0; i < coords.size(); ++i) {
    EXPECT_EQ(idx.find(coords[i]), static_cast<std::int32_t>(i));
  }
  EXPECT_FALSE(idx.insert(coords.front(), 9999));
}

TEST(CoordIndexTest, RebuildDetectsDuplicates) {
  CoordIndex idx;
  const std::vector<Coord3> unique = {{0, 0, 0}, {5, 5, 5}, {1, 2, 3}};
  EXPECT_TRUE(idx.rebuild(unique));
  EXPECT_EQ(idx.find({5, 5, 5}), 1);

  const std::vector<Coord3> dup = {{0, 0, 0}, {5, 5, 5}, {0, 0, 0}};
  EXPECT_FALSE(idx.rebuild(dup));
  EXPECT_TRUE(idx.empty());
}

TEST(CoordIndexTest, EntriesAreMortonSorted) {
  Rng rng(6);
  const auto t = test::random_sparse_tensor({20, 20, 20}, 1, 0.05, rng);
  const auto entries = t.index().entries();
  ASSERT_EQ(entries.size(), t.size());
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].code, entries[i].code);
  }
  for (const auto& e : entries) {
    EXPECT_EQ(voxel::morton_encode(t.coord(static_cast<std::size_t>(e.row))), e.code);
  }
}

TEST(CoordIndexTest, InsertFindInterleavingsMatchOracle) {
  // Randomized insert/find interleavings against a map oracle, then an
  // audit of the Morton-sorted entry run.
  Rng rng(17);
  CoordIndex idx;
  std::map<Coord3, std::int32_t> oracle;
  std::vector<Coord3> universe;
  for (std::int32_t i = 0; i < 4000; ++i) {
    universe.push_back({static_cast<std::int32_t>(rng.uniform_int(0, 31)),
                        static_cast<std::int32_t>(rng.uniform_int(0, 31)),
                        static_cast<std::int32_t>(rng.uniform_int(0, 31))});
  }
  std::int32_t next_row = 0;
  for (int step = 0; step < 12000; ++step) {
    const Coord3& c = universe[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(universe.size()) - 1))];
    if (rng.bernoulli(0.5)) {
      const bool fresh = !oracle.contains(c);
      EXPECT_EQ(idx.insert(c, next_row), fresh) << "step " << step;
      if (fresh) oracle[c] = next_row++;
    } else {
      const auto it = oracle.find(c);
      EXPECT_EQ(idx.find(c), it == oracle.end() ? -1 : it->second) << "step " << step;
    }
    ASSERT_EQ(idx.size(), oracle.size());
  }
  // Full final audit, including the entries() view.
  const auto entries = idx.entries();
  ASSERT_EQ(entries.size(), oracle.size());
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].code, entries[i].code);
  }
  for (const auto& e : entries) EXPECT_EQ(oracle.at(voxel::morton_decode(e.code)), e.row);
  for (const auto& [c, row] : oracle) EXPECT_EQ(idx.find(c), row);
}

TEST(CoordIndexTest, CoordsOutsideTheMortonRangeNeverAlias) {
  // morton_encode keeps 21 bits per axis, so 2^21 would share the code of
  // 0: the index must reject such coordinates instead of aliasing them.
  const std::int32_t big = voxel::kMortonMaxCoord;
  CoordIndex idx;
  ASSERT_TRUE(idx.insert({0, 0, 0}, 0));
  EXPECT_EQ(idx.find({big, 0, 0}), -1);
  EXPECT_EQ(idx.find({0, 0, big}), -1);

  try {
    (void)idx.insert({big, 5, 0}, 1);
    ADD_FAILURE() << "insert outside the Morton range did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("(2097152,5,0)"), std::string::npos) << e.what();
  }
  EXPECT_EQ(idx.find({0, 5, 0}), -1);
  EXPECT_EQ(idx.size(), 1U);

  const std::vector<Coord3> coords = {{0, 0, 0}, {big, 0, 0}};
  EXPECT_THROW((void)idx.rebuild(coords), InvalidArgument);
  EXPECT_EQ(idx.find({0, 0, 0}), 0);  // a rejected rebuild leaves the index as it was
}

TEST(CoordIndexTest, FindNearAgreesWithFindFromAnyCursor) {
  Rng rng(7);
  const auto t = test::random_sparse_tensor({24, 24, 24}, 1, 0.04, rng);
  const CoordIndex& idx = t.index();
  const auto entries = idx.entries();
  ASSERT_FALSE(entries.empty());

  // Hits from wildly wrong cursors.
  for (std::size_t i = 0; i < entries.size(); i += 7) {
    std::size_t cursor = (i * 131) % entries.size();
    EXPECT_EQ(idx.find_near(entries[i].code, cursor), entries[i].row);
    EXPECT_EQ(cursor, i);  // cursor lands on the match
  }
  // Misses: probe codes between existing ones and beyond both ends.
  std::size_t cursor = entries.size() / 2;
  EXPECT_EQ(idx.find_near(entries.back().code + 1, cursor), -1);
  cursor = 0;
  if (entries.front().code > 0) {
    EXPECT_EQ(idx.find_near(entries.front().code - 1, cursor), -1);
  }
}

TEST(CoordIndexTest, ConcurrentReadersOfASharedIndex) {
  // Sites added one by one in random (non-Morton) order, then read through
  // a const reference from several executor partitions at once: every read
  // is pure, so no reader may observe — or cause — a change.
  Rng rng(29);
  SparseTensor t({64, 64, 64}, 1);
  std::set<Coord3> seen;
  while (t.size() < 3000) {
    const Coord3 c{static_cast<std::int32_t>(rng.uniform_int(0, 63)),
                   static_cast<std::int32_t>(rng.uniform_int(0, 63)),
                   static_cast<std::int32_t>(rng.uniform_int(0, 63))};
    if (seen.insert(c).second) t.add_site(c);
  }
  const SparseTensor& shared = t;

  constexpr int kReaders = 8;
  std::vector<std::size_t> wrong(kReaders, 0);
  Executor::global().parallel_for(kReaders, [&](int p) {
    std::size_t& bad = wrong[static_cast<std::size_t>(p)];
    const CoordIndex& index = shared.index();
    const auto entries = index.entries();
    bad += entries.size() != shared.size() ? 1 : 0;
    std::size_t cursor = static_cast<std::size_t>(p) * 97;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      // Each reader walks the run from its own offset.
      const auto& e = entries[(i + static_cast<std::size_t>(p) * 375) % entries.size()];
      bad += index.find_near(e.code, cursor) != e.row ? 1 : 0;
      const Coord3 c = shared.coord(static_cast<std::size_t>(e.row));
      bad += voxel::morton_encode(c) != e.code ? 1 : 0;
    }
    for (std::size_t row = 0; row < shared.size(); ++row) {
      bad += index.find(shared.coord(row)) != static_cast<std::int32_t>(row) ? 1 : 0;
    }
    const Coord3 absent{64, 0, 0};  // outside the tensor, never inserted
    bad += index.find(absent) != -1 ? 1 : 0;
  });
  for (int p = 0; p < kReaders; ++p) EXPECT_EQ(wrong[static_cast<std::size_t>(p)], 0U) << p;
}

TEST(GeometryEngineTest, ShardedBuildsAreBitIdentical) {
  // Not just permutation-equal: shard concatenation must reproduce the
  // serial rule sequence exactly, so results never depend on thread count.
  Rng rng(81);
  const auto t = test::clustered_tensor({24, 24, 24}, 1, rng, 8, 500);
  const LayerGeometry serial = build_submanifold_geometry(t, 3, {.shards = 1});
  for (const int shards : {2, 3, 4, 8}) {
    const LayerGeometry sharded = build_submanifold_geometry(t, 3, {.shards = shards});
    for (int o = 0; o < serial.rulebook.kernel_volume(); ++o) {
      EXPECT_EQ(serial.rulebook.rules_for(o), sharded.rulebook.rules_for(o))
          << "offset " << o << " shards " << shards;
    }
  }

  const LayerGeometry down1 = build_downsample_geometry(t, 2, 2, {.shards = 1});
  const LayerGeometry down4 = build_downsample_geometry(t, 2, 2, {.shards = 4});
  EXPECT_EQ(down1.out_coords, down4.out_coords);
  for (int o = 0; o < down1.rulebook.kernel_volume(); ++o) {
    EXPECT_EQ(down1.rulebook.rules_for(o), down4.rulebook.rules_for(o));
  }
}

TEST(GeometryEngineTest, SitesTensorPreservesInputRows) {
  Rng rng(82);
  const auto t = test::random_sparse_tensor({12, 12, 12}, 3, 0.1, rng);
  const LayerGeometry g = build_submanifold_geometry(t, 3);
  ASSERT_EQ(g.sites.size(), t.size());
  EXPECT_EQ(g.sites.channels(), 1);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(g.sites.coord(i), t.coord(i));
  }
}

TEST(GeometryEngineTest, MacsScaleWithChannels) {
  Rng rng(83);
  const auto t = test::random_sparse_tensor({10, 10, 10}, 1, 0.1, rng);
  const LayerGeometry g = build_submanifold_geometry(t, 3);
  EXPECT_EQ(g.macs(4, 8), g.total_rules() * 32);
  EXPECT_GE(g.total_rules(), static_cast<std::int64_t>(t.size()));  // center rules
}

TEST(GeometryEngineTest, BuildCounterCountsEveryBuild) {
  Rng rng(84);
  const auto t = test::random_sparse_tensor({10, 10, 10}, 1, 0.08, rng);
  const obs::CounterGuard builds(geometry_builds_counter());
  (void)build_submanifold_geometry(t, 3);
  (void)build_downsample_geometry(t, 2, 2);
  EXPECT_EQ(builds.delta(), 2);
}

TEST(GeometryEngineTest, TransposedInverseIsBitIdenticalToDirectBuild) {
  // The inverse geometry is the transpose of the forward downsample: the
  // (fine row, kernel cell, coarse row) triples the hash oracle finds from
  // coordinates, with in/out swapped, in the same emission order. No
  // coordinate search, no geometry build.
  Rng rng(86);
  for (const auto& [k, stride] : {std::pair{2, 2}, {3, 2}, {2, 3}}) {
    const auto fine = test::random_sparse_tensor({14, 14, 14}, 1, 0.05, rng);
    const LayerGeometry down = build_downsample_geometry(fine, k, stride);
    SparseTensor coarse(down.out_extent, 1);
    for (const Coord3& c : down.out_coords) coarse.add_site(c);

    const LayerGeometry direct = oracle::inverse_geometry(coarse, fine, k, stride);
    const obs::CounterGuard builds(geometry_builds_counter());
    const obs::CounterGuard transposes(geometry_transposes_counter());
    const LayerGeometry transposed = transpose_downsample_geometry(down);
    EXPECT_EQ(builds.delta(), 0);  // a transpose is not a build
    EXPECT_EQ(transposes.delta(), 1);

    EXPECT_TRUE(geometry_equal(transposed, direct)) << "k=" << k << " s=" << stride;
    EXPECT_EQ(transposed.kind, GeometryKind::kInverse);
    EXPECT_EQ(transposed.kernel_size, direct.kernel_size);
    EXPECT_EQ(transposed.stride, direct.stride);
    EXPECT_EQ(transposed.out_extent, direct.out_extent);
    ASSERT_EQ(transposed.rulebook.kernel_volume(), direct.rulebook.kernel_volume());
    for (int o = 0; o < direct.rulebook.kernel_volume(); ++o) {
      EXPECT_EQ(transposed.rulebook.rules_for(o), direct.rulebook.rules_for(o))
          << "k=" << k << " s=" << stride << " offset " << o;
    }
  }
}

TEST(GeometryEngineTest, TransposeRejectsNonDownsampleGeometry) {
  Rng rng(87);
  const auto fine = test::random_sparse_tensor({10, 10, 10}, 1, 0.08, rng);
  const LayerGeometry sub = build_submanifold_geometry(fine, 3);
  EXPECT_THROW((void)transpose_downsample_geometry(sub), InvalidArgument);
  const LayerGeometry up = transpose_downsample_geometry(build_downsample_geometry(fine, 2, 2));
  EXPECT_THROW((void)transpose_downsample_geometry(up), InvalidArgument);
}

TEST(GeometryEngineTest, UNetForwardDerivesInverseGeometryByTranspose) {
  // One forward pass builds: 1 submanifold geometry per scale (levels) and
  // 1 downsample per transition (levels - 1). The inverse-conv geometries
  // come from transposing the recorded downsample geometries — the build
  // counter must not move for them.
  Rng rng(88);
  const auto x = test::clustered_tensor({16, 16, 16}, 1, rng, 5, 120);
  nn::SSUNetConfig cfg;
  cfg.base_planes = 2;
  cfg.levels = 3;
  cfg.reps_per_level = 1;
  const nn::SSUNet net(cfg, 11);

  const obs::CounterGuard builds(geometry_builds_counter());
  const obs::CounterGuard transposes(geometry_transposes_counter());
  (void)net.forward(x);
  const auto levels = static_cast<std::int64_t>(cfg.levels);
  EXPECT_EQ(builds.delta(), levels + (levels - 1));
  EXPECT_EQ(transposes.delta(), levels - 1);
}

TEST(GeometryEngineTest, UNetTraceSharesOneGeometryPerScale) {
  // Sub-Conv never moves the active set: the stem, the encoder blocks and
  // the decoder blocks at one scale must reference the *same* LayerGeometry
  // object, not equal copies.
  Rng rng(85);
  const auto x = test::clustered_tensor({16, 16, 16}, 1, rng, 5, 120);
  nn::SSUNetConfig cfg;
  cfg.base_planes = 2;
  cfg.levels = 2;
  cfg.reps_per_level = 2;
  const nn::SSUNet net(cfg, 9);
  std::vector<nn::TraceEntry> trace;
  (void)net.forward(x, &trace);

  const LayerGeometryPtr* scale0 = nullptr;
  for (const std::size_t i : nn::subconv_entries(trace)) {
    const nn::TraceEntry& e = trace[i];
    ASSERT_NE(e.geometry, nullptr) << e.name;
    if (e.input.size() == x.size()) {
      if (scale0 == nullptr) {
        scale0 = &e.geometry;
      } else {
        EXPECT_EQ(e.geometry.get(), scale0->get()) << e.name << " rebuilt scale-0 geometry";
      }
    }
  }
  ASSERT_NE(scale0, nullptr);
  // stem + 2 encoder blocks + 2 decoder blocks share scale 0.
  EXPECT_GE(scale0->use_count(), 5);
}

}  // namespace
}  // namespace esca::sparse
