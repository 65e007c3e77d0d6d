// esca::stream tests: frame diffing, the incremental geometry patch (the
// central property: patched geometry is bit-identical to a cold rebuild,
// for any churn level and any geometry shard count), churn fallback and
// its rebuild_fraction threshold, and SequenceSession's per-scale state
// carrying over a runtime Session.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "nn/sparse_conv.hpp"
#include "runtime/engine.hpp"
#include "sparse/geometry.hpp"
#include "stream/stream.hpp"
#include "test_util.hpp"

namespace esca::stream {
namespace {

using sparse::SparseTensor;

/// The next frame of a simulated stream: every site of `prev` survives with
/// probability (1 - churn), and roughly churn * size new sites appear near
/// the old ones. Row order is insertion order — deliberately arbitrary, the
/// patch must not rely on canonical or Morton row numbering.
SparseTensor mutate_frame(const SparseTensor& prev, double churn, Rng& rng) {
  const Coord3 extent = prev.spatial_extent();
  SparseTensor next(extent, 1);
  for (std::size_t r = 0; r < prev.size(); ++r) {
    if (rng.bernoulli(churn)) continue;
    next.add_site(prev.coord(r));
  }
  const auto target_new = static_cast<std::size_t>(static_cast<double>(prev.size()) * churn);
  for (std::size_t tries = 0; tries < 20 * (target_new + 1) && target_new > 0; ++tries) {
    const std::size_t anchor =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(prev.size()) - 1));
    Coord3 c = prev.coord(anchor);
    c.x += static_cast<std::int32_t>(rng.uniform_int(-3, 3));
    c.y += static_cast<std::int32_t>(rng.uniform_int(-3, 3));
    c.z += static_cast<std::int32_t>(rng.uniform_int(-3, 3));
    if (!in_bounds(c, extent) || next.contains(c)) continue;
    next.add_site(c);
    if (next.size() >= prev.size() + target_new) break;
  }
  return next;
}

TEST(FrameDeltaTest, ClassifiesAddedRemovedRetained) {
  SparseTensor prev({8, 8, 8}, 1);
  prev.add_site({1, 1, 1});
  prev.add_site({2, 1, 1});
  prev.add_site({5, 5, 5});
  SparseTensor next({8, 8, 8}, 1);
  next.add_site({2, 1, 1});  // retained (different row than in prev)
  next.add_site({5, 5, 5});  // retained
  next.add_site({7, 0, 0});  // added

  const FrameDelta delta = diff_frames(prev, next);
  EXPECT_EQ(delta.retained, 2U);
  ASSERT_EQ(delta.removed.size(), 1U);
  EXPECT_EQ(prev.coord(static_cast<std::size_t>(delta.removed[0])), (Coord3{1, 1, 1}));
  ASSERT_EQ(delta.added.size(), 1U);
  EXPECT_EQ(next.coord(static_cast<std::size_t>(delta.added[0])), (Coord3{7, 0, 0}));
  EXPECT_EQ(delta.old_to_new[0], -1);
  EXPECT_EQ(delta.old_to_new[1], 0);
  EXPECT_EQ(delta.old_to_new[2], 1);
  EXPECT_EQ(delta.new_to_old[0], 1);
  EXPECT_EQ(delta.new_to_old[1], 2);
  EXPECT_EQ(delta.new_to_old[2], -1);
  EXPECT_EQ(delta.churn(), 2U);
  EXPECT_NEAR(delta.churn_fraction(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(delta.overlap_fraction(), 2.0 / 3.0, 1e-12);
}

TEST(FrameDeltaTest, ExtentMismatchThrows) {
  SparseTensor a({8, 8, 8}, 1);
  SparseTensor b({16, 8, 8}, 1);
  EXPECT_THROW((void)diff_frames(a, b), InvalidArgument);
}

TEST(FrameDeltaTest, EmptyAndIdenticalFrames) {
  SparseTensor empty({8, 8, 8}, 1);
  const FrameDelta none = diff_frames(empty, empty);
  EXPECT_EQ(none.churn(), 0U);
  EXPECT_EQ(none.overlap_fraction(), 1.0);

  Rng rng(3);
  const SparseTensor t = test::random_sparse_tensor({8, 8, 8}, 1, 0.05, rng);
  const FrameDelta same = diff_frames(t, t);
  EXPECT_EQ(same.retained, t.size());
  EXPECT_EQ(same.churn(), 0U);
  const FrameDelta all = diff_frames(empty, t);
  EXPECT_EQ(all.added.size(), t.size());
  EXPECT_EQ(all.removed.size(), 0U);
}

/// Field-by-field equality of two deltas (FrameDelta has no operator==; the
/// sharded-vs-serial properties compare every member).
void expect_delta_equal(const FrameDelta& a, const FrameDelta& b, const std::string& where) {
  EXPECT_EQ(a.old_to_new, b.old_to_new) << where;
  EXPECT_EQ(a.new_to_old, b.new_to_old) << where;
  EXPECT_EQ(a.added, b.added) << where;
  EXPECT_EQ(a.removed, b.removed) << where;
  EXPECT_EQ(a.retained, b.retained) << where;
}

TEST(FrameDeltaTest, ShardedDiffBitIdenticalToSerial) {
  for (const double churn : {0.02, 0.1, 0.3}) {
    Rng rng(9000 + static_cast<int>(churn * 100));
    const SparseTensor prev = test::random_sparse_tensor({24, 24, 24}, 1, 0.06, rng, 1500);
    const SparseTensor next = mutate_frame(prev, churn, rng);
    const FrameDelta serial = diff_frames(prev, next, {.shards = 1});
    for (const int shards : {2, 4}) {
      const FrameDelta sharded = diff_frames(prev, next, {.shards = shards});
      expect_delta_equal(sharded, serial,
                         str::format("shards=%d churn=%.2f", shards, churn));
    }
  }
}

TEST(FrameDeltaTest, ShardedDiffHandlesEmptyAndBoundaryFrames) {
  const Coord3 extent{6, 6, 6};
  SparseTensor empty(extent, 1);
  // A frame living entirely on the extent boundary (Morton codes cluster at
  // the run's ends — the cut-point derivation must cope with skew).
  SparseTensor shell(extent, 1);
  for (std::int32_t z = 0; z < 6; ++z) {
    for (std::int32_t y = 0; y < 6; ++y) {
      for (std::int32_t x = 0; x < 6; ++x) {
        if (x == 0 || y == 0 || z == 0 || x == 5 || y == 5 || z == 5) {
          shell.add_site({x, y, z});
        }
      }
    }
  }
  SparseTensor corner(extent, 1);
  corner.add_site({0, 0, 0});
  corner.add_site({5, 5, 5});

  const SparseTensor* frames[] = {&empty, &shell, &corner};
  for (const SparseTensor* prev : frames) {
    for (const SparseTensor* next : frames) {
      const FrameDelta serial = diff_frames(*prev, *next, {.shards = 1});
      for (const int shards : {2, 4}) {
        expect_delta_equal(diff_frames(*prev, *next, {.shards = shards}), serial,
                           str::format("shards=%d sizes=%zu->%zu", shards, prev->size(),
                                       next->size()));
      }
    }
  }
}

// Direct sharded-patch property: patch_submanifold_geometry at 2/4 shards is
// bit-identical to the serial patch AND to the cold build — rule sequences,
// row numbering, output sites and the blocked re-bucketing.
TEST(StreamGeometryEquivalenceTest, ShardedPatchBitIdenticalToSerialPatchAndCold) {
  for (const double churn : {0.02, 0.1, 0.3}) {
    Rng rng(4000 + static_cast<int>(churn * 100));
    const SparseTensor prev = test::random_sparse_tensor({20, 20, 20}, 1, 0.08, rng, 1200);
    const SparseTensor next = mutate_frame(prev, churn, rng);
    const sparse::LayerGeometry base = sparse::build_submanifold_geometry(prev, 3);
    const FrameDelta delta = diff_frames(base.sites, next);
    const sparse::LayerGeometry serial =
        patch_submanifold_geometry(base, next, delta, {.shards = 1});
    const sparse::LayerGeometry cold = sparse::build_submanifold_geometry(next, 3);
    ASSERT_TRUE(sparse::geometry_equal(serial, cold)) << "churn=" << churn;
    for (const int shards : {2, 4}) {
      const sparse::LayerGeometry sharded =
          patch_submanifold_geometry(base, next, delta, {.shards = shards});
      ASSERT_TRUE(sparse::geometry_equal(sharded, serial))
          << "shards=" << shards << " churn=" << churn;
    }
  }
}

// The tentpole property: for random streams at several churn levels and for
// every geometry shard count CI exercises, the patched geometry is
// indistinguishable from a cold rebuild of the same frame — rule sequences,
// row numbering, output sites and the blocked re-bucketing.
TEST(StreamGeometryEquivalenceTest, PatchedGeometryBitIdenticalToColdRebuild) {
  for (const int shards : {1, 2, 4}) {
    for (const double churn : {0.02, 0.1, 0.3}) {
      Rng rng(1000 + shards * 10 + static_cast<int>(churn * 100));
      SparseTensor frame = test::random_sparse_tensor({20, 20, 20}, 1, 0.08, rng, 1200);
      IncrementalGeometry inc({.kernel_size = 3,
                               .geometry = {.shards = shards},
                               .rebuild_fraction = 1.9});
      std::uint64_t patched_frames = 0;
      for (int t = 0; t < 6; ++t) {
        if (t > 0) frame = mutate_frame(frame, churn, rng);
        const GeometryUpdate upd = inc.update(frame);
        const sparse::LayerGeometry cold =
            sparse::build_submanifold_geometry(frame, 3, {.shards = shards});
        ASSERT_TRUE(sparse::geometry_equal(*upd.geometry, cold))
            << "shards=" << shards << " churn=" << churn << " frame=" << t;
        patched_frames += upd.patched ? 1 : 0;
      }
      // Everything past frame 0 must actually exercise the patch path.
      EXPECT_EQ(patched_frames, 5U) << "shards=" << shards << " churn=" << churn;
    }
  }
}

TEST(StreamGeometryEquivalenceTest, PatchedGeometryBitIdenticalForLargerKernel) {
  // k=5: 125 offsets, wider reach across the extent boundary.
  for (const int shards : {1, 4}) {
    Rng rng(500 + shards);
    SparseTensor frame = test::random_sparse_tensor({16, 16, 16}, 1, 0.08, rng, 600);
    IncrementalGeometry inc(
        {.kernel_size = 5, .geometry = {.shards = shards}, .rebuild_fraction = 1.9});
    for (int t = 0; t < 4; ++t) {
      if (t > 0) frame = mutate_frame(frame, 0.1, rng);
      const GeometryUpdate upd = inc.update(frame);
      ASSERT_TRUE(sparse::geometry_equal(
          *upd.geometry, sparse::build_submanifold_geometry(frame, 5, {.shards = shards})))
          << "shards=" << shards << " frame=" << t;
      EXPECT_EQ(upd.patched, t > 0);
    }
  }
}

TEST(StreamGeometryEquivalenceTest, PatchHandlesDegenerateFrames) {
  const Coord3 extent{10, 10, 10};
  IncrementalGeometry inc({.kernel_size = 3, .rebuild_fraction = 2.0});

  // Empty -> empty patches trivially.
  SparseTensor empty(extent, 1);
  (void)inc.update(empty);
  const GeometryUpdate still_empty = inc.update(empty);
  EXPECT_TRUE(still_empty.patched);
  EXPECT_TRUE(sparse::geometry_equal(*still_empty.geometry,
                                     sparse::build_submanifold_geometry(empty, 3)));

  // Empty -> full and full -> empty (pure insertion / pure removal).
  Rng rng(11);
  const SparseTensor full = test::random_sparse_tensor(extent, 1, 0.2, rng);
  const GeometryUpdate grew = inc.update(full);
  EXPECT_TRUE(grew.patched);
  EXPECT_TRUE(
      sparse::geometry_equal(*grew.geometry, sparse::build_submanifold_geometry(full, 3)));
  const GeometryUpdate shrank = inc.update(empty);
  EXPECT_TRUE(shrank.patched);
  EXPECT_TRUE(
      sparse::geometry_equal(*shrank.geometry, sparse::build_submanifold_geometry(empty, 3)));
}

TEST(StreamGeometryEquivalenceTest, BoundarySitesPatchCorrectly) {
  // Sites on the extent boundary exercise the in-bounds guards of the
  // fresh-rule enumeration (kernel offsets stepping outside the grid).
  const Coord3 extent{4, 4, 4};
  SparseTensor prev(extent, 1);
  for (std::int32_t z = 0; z < 4; ++z) {
    for (std::int32_t y = 0; y < 4; ++y) {
      for (std::int32_t x = 0; x < 4; ++x) {
        if ((x + y + z) % 2 == 0) prev.add_site({x, y, z});
      }
    }
  }
  SparseTensor next(extent, 1);
  for (std::size_t r = 1; r < prev.size(); ++r) next.add_site(prev.coord(r));  // drop corner
  next.add_site({1, 0, 0});
  next.add_site({3, 3, 3});

  IncrementalGeometry inc({.kernel_size = 3, .rebuild_fraction = 2.0});
  (void)inc.update(prev);
  const GeometryUpdate upd = inc.update(next);
  EXPECT_TRUE(upd.patched);
  EXPECT_TRUE(
      sparse::geometry_equal(*upd.geometry, sparse::build_submanifold_geometry(next, 3)));
}

TEST(StreamIncrementalGeometryTest, ChurnFallbackRebuildsColdly) {
  Rng rng(21);
  SparseTensor frame = test::random_sparse_tensor({16, 16, 16}, 1, 0.08, rng);
  IncrementalGeometry inc({.kernel_size = 3, .rebuild_fraction = 0.05});
  // The process-wide registry counters move in lockstep with the
  // per-instance tallies.
  const obs::CounterGuard global_patches(stream_geometry_patches_counter());
  const obs::CounterGuard global_rebuilds(stream_geometry_rebuilds_counter());
  (void)inc.update(frame);
  EXPECT_EQ(inc.rebuilds(), 1U);

  // Tiny churn (exactly one site removed) patches...
  SparseTensor trimmed(frame.spatial_extent(), 1);
  for (std::size_t r = 0; r + 1 < frame.size(); ++r) trimmed.add_site(frame.coord(r));
  frame = std::move(trimmed);
  const GeometryUpdate small = inc.update(frame);
  EXPECT_TRUE(small.patched);
  EXPECT_EQ(inc.patches(), 1U);

  // ...heavy churn falls back to a cold rebuild, and the result is still
  // exactly the cold geometry.
  frame = mutate_frame(frame, 0.5, rng);
  const GeometryUpdate heavy = inc.update(frame);
  EXPECT_FALSE(heavy.patched);
  EXPECT_EQ(inc.rebuilds(), 2U);
  EXPECT_TRUE(
      sparse::geometry_equal(*heavy.geometry, sparse::build_submanifold_geometry(frame, 3)));

  // An extent change always rebuilds.
  SparseTensor regrid({32, 32, 32}, 1);
  regrid.add_site({1, 2, 3});
  const GeometryUpdate resized = inc.update(regrid);
  EXPECT_FALSE(resized.patched);
  EXPECT_EQ(inc.rebuilds(), 3U);

  EXPECT_EQ(global_patches.delta(), static_cast<std::int64_t>(inc.patches()));
  EXPECT_EQ(global_rebuilds.delta(), static_cast<std::int64_t>(inc.rebuilds()));
}

TEST(StreamIncrementalGeometryTest, RejectsEvenKernel) {
  EXPECT_THROW((void)IncrementalGeometry({.kernel_size = 2}), InvalidArgument);
}

TEST(StreamIncrementalGeometryTest, RejectsNegativeRebuildFraction) {
  EXPECT_EQ(IncrementalGeometry{}.config().rebuild_fraction, kDefaultRebuildFraction);
  EXPECT_THROW((void)IncrementalGeometry({.rebuild_fraction = -1.0}), InvalidArgument);
}

/// A tiny single-layer Plan for SequenceSession runtime tests.
runtime::PlanPtr tiny_plan() {
  Rng rng(77);
  const SparseTensor x = test::clustered_tensor({16, 16, 16}, 2, rng, 4, 80);
  nn::SparseConv3d conv(sparse::GeometryKind::kSubmanifold, 2, 4, 3);
  conv.init_kaiming(rng);
  runtime::Engine engine;
  return runtime::share_plan(engine.compile_layer(conv, x, {.relu = true, .name = "stream"}));
}

TEST(StreamSequenceSessionTest, CarriesPerScaleStateAcrossFrames) {
  const auto check_stream = [](SparseTensor frame, Rng& rng) {
    runtime::Engine engine;
    runtime::Session session = engine.open_session(tiny_plan());
    SequenceSession stream(session, {.kernel_size = 3, .scales = 3, .rebuild_fraction = 2.0});
    for (int t = 0; t < 4; ++t) {
      if (t > 0) frame = mutate_frame(frame, 0.06, rng);
      const SequenceFrameResult r = stream.advance(frame);
      ASSERT_EQ(r.stats.scales.size(), 3U);
      ASSERT_EQ(r.geometries.size(), 3U);

      // Scale 0 must be exactly the cold geometry of the submitted frame.
      EXPECT_TRUE(sparse::geometry_equal(*r.geometries[0],
                                         sparse::build_submanifold_geometry(frame, 3)));
      // The derived coarse scales must match the coordinate sets a cold
      // downsample pyramid produces (extent and rows included).
      SparseTensor fine = frame.zeros_like(1);
      for (std::size_t s = 1; s < 3; ++s) {
        const sparse::LayerGeometry down = sparse::build_downsample_geometry(fine, 2, 2);
        const SparseTensor& coarse_sites = r.geometries[s]->sites;
        EXPECT_EQ(coarse_sites.spatial_extent(), down.out_extent) << "scale " << s;
        ASSERT_EQ(coarse_sites.size(), down.out_coords.size()) << "scale " << s;
        for (std::size_t row = 0; row < coarse_sites.size(); ++row) {
          ASSERT_EQ(coarse_sites.coord(row), down.out_coords[row]) << "scale " << s;
        }
        EXPECT_TRUE(sparse::geometry_equal(
            *r.geometries[s], sparse::build_submanifold_geometry(coarse_sites, 3)));
        fine = coarse_sites.zeros_like(1);
      }
      if (t > 0) {
        EXPECT_EQ(r.stats.patched_scales(), 3U) << "frame " << t;
      }
      ASSERT_EQ(r.run.frames.size(), 1U);
    }
    EXPECT_EQ(stream.frames_advanced(), 4U);
    EXPECT_EQ(stream.rebuilds(), 3U);  // frame 0, once per scale
    EXPECT_EQ(stream.patches(), 9U);   // frames 1-3, three scales each
    // The runtime session carried weight residency across the whole stream.
    EXPECT_TRUE(session.weights_resident());
    EXPECT_EQ(session.frames_submitted(), 4U);
  };

  {
    SCOPED_TRACE("extent 24");
    Rng rng(5);
    check_stream(test::random_sparse_tensor({24, 24, 24}, 1, 0.05, rng, 1500), rng);
  }
  {
    // Odd extent: the last coarse cell of each axis covers one fine layer,
    // so sites on the far faces land in cells the stride does not fill.
    SCOPED_TRACE("extent 23, far faces occupied");
    Rng rng(6);
    SparseTensor frame = test::random_sparse_tensor({23, 23, 23}, 1, 0.05, rng, 1500);
    for (const Coord3& c : {Coord3{22, 22, 22}, Coord3{22, 0, 7}, Coord3{3, 22, 11},
                            Coord3{16, 5, 22}, Coord3{22, 22, 0}}) {
      if (!frame.contains(c)) frame.add_site(c);
    }
    check_stream(std::move(frame), rng);
  }
}

TEST(StreamSequenceSessionTest, ResetDropsCarriedState) {
  runtime::Engine engine;
  runtime::Session session = engine.open_session(tiny_plan());
  SequenceSession stream(session, {.kernel_size = 3, .scales = 2, .rebuild_fraction = 2.0});
  Rng rng(9);
  const SparseTensor frame = test::random_sparse_tensor({16, 16, 16}, 1, 0.08, rng);
  (void)stream.advance(frame);
  (void)stream.advance(frame);
  EXPECT_EQ(stream.patches(), 2U);
  stream.reset();
  const SequenceFrameResult r = stream.advance(frame);
  EXPECT_EQ(r.stats.patched_scales(), 0U);  // cold again after reset
  EXPECT_EQ(stream.rebuilds(), 4U);
}

TEST(StreamSequenceSessionTest, RejectsBadConfiguration) {
  runtime::Engine engine;
  runtime::Session session = engine.open_session(tiny_plan());
  EXPECT_THROW((void)SequenceSession(session, {.scales = 0}), InvalidArgument);
  EXPECT_THROW((void)SequenceSession(session, {.kernel_size = 4}), InvalidArgument);
}

}  // namespace
}  // namespace esca::stream
