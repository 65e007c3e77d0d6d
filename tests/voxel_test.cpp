#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "datasets/nyu_like.hpp"
#include "datasets/sequence.hpp"
#include "datasets/shapenet_like.hpp"
#include "pointcloud/point_cloud.hpp"
#include "sparse/sparse_tensor.hpp"
#include "voxel/morton.hpp"
#include "voxel/voxelizer.hpp"

namespace esca::voxel {
namespace {

/// voxelize + from_voxel_grid against a map-based reference: each voxel's
/// intensities summed in point order, then divided by the count, the voxels
/// in canonical (z, y, x) order (std::map's order under Coord3's <=>).
/// Coordinates, row order and feature bits must all agree.
void expect_matches_map_reference(const pc::PointCloud& cloud, std::int32_t res) {
  SCOPED_TRACE(::testing::Message() << cloud.size() << " points at " << res << "^3");
  struct Cell {
    float sum{0.0F};
    std::int32_t count{0};
  };
  std::map<Coord3, Cell> cells;
  const auto axis = [res](float v) {
    return std::clamp(static_cast<std::int32_t>(std::floor(v * static_cast<float>(res))), 0,
                      res - 1);
  };
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    const geom::Vec3& p = cloud.position(i);
    Cell& cell = cells[{axis(p.x), axis(p.y), axis(p.z)}];
    cell.sum += cloud.intensity(i);
    cell.count += 1;
  }

  const sparse::SparseTensor t =
      sparse::SparseTensor::from_voxel_grid(voxelize(cloud, {.resolution = res}), 1);
  EXPECT_EQ(t.spatial_extent(), (Coord3{res, res, res}));
  ASSERT_EQ(t.size(), cells.size());
  EXPECT_TRUE(t.canonically_sorted());
  std::size_t row = 0;
  for (const auto& [c, cell] : cells) {
    ASSERT_EQ(t.coord(row), c) << "row " << row;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(t.feature(row, 0)),
              std::bit_cast<std::uint32_t>(cell.sum / static_cast<float>(cell.count)))
        << "voxel " << c;
    EXPECT_EQ(t.find(c), static_cast<std::int32_t>(row));
    ++row;
  }
}

TEST(MortonTest, RoundTripProperty) {
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const Coord3 c{static_cast<std::int32_t>(rng.uniform_int(0, (1 << 20) - 1)),
                   static_cast<std::int32_t>(rng.uniform_int(0, (1 << 20) - 1)),
                   static_cast<std::int32_t>(rng.uniform_int(0, (1 << 20) - 1))};
    EXPECT_EQ(morton_decode(morton_encode(c)), c);
  }
}

TEST(MortonTest, OrderingInterleavesAxes) {
  EXPECT_EQ(morton_encode({0, 0, 0}), 0ULL);
  EXPECT_EQ(morton_encode({1, 0, 0}), 1ULL);
  EXPECT_EQ(morton_encode({0, 1, 0}), 2ULL);
  EXPECT_EQ(morton_encode({0, 0, 1}), 4ULL);
  EXPECT_EQ(morton_encode({1, 1, 1}), 7ULL);
}

TEST(VoxelizerTest, MapsUnitCubeToResolution) {
  pc::PointCloud cloud;
  cloud.add({0.0F, 0.0F, 0.0F});
  cloud.add({0.999F, 0.999F, 0.999F});
  cloud.add({0.5F, 0.25F, 0.75F});
  const VoxelGrid g = voxelize(cloud, {.resolution = 192});
  EXPECT_EQ(g.extent, (Coord3{192, 192, 192}));
  EXPECT_EQ(g.coords, (std::vector<Coord3>{{0, 0, 0}, {96, 48, 144}, {191, 191, 191}}));
}

TEST(VoxelizerTest, ClampsOutOfRangePoints) {
  pc::PointCloud cloud;
  cloud.add({-0.5F, 1.7F, 0.5F});
  const VoxelGrid g = voxelize(cloud, {.resolution = 16});
  EXPECT_EQ(g.coords, (std::vector<Coord3>{{0, 15, 8}}));
}

TEST(VoxelizerTest, FarPointsLandInTheEdgeVoxels) {
  // Beyond 2^31 / resolution voxels the index no longer fits an int; the
  // voxelizer clamps in float before it converts, so a far point is only
  // clamped harder (and a sanitized build reports no overflow).
  pc::PointCloud cloud;
  cloud.add({1e10F, 0.5F, -1e10F});
  cloud.add({0.5F, std::numeric_limits<float>::max(), -std::numeric_limits<float>::max()});
  const VoxelGrid g = voxelize(cloud, {.resolution = 512});
  EXPECT_EQ(g.coords, (std::vector<Coord3>{{511, 256, 0}, {256, 511, 0}}));
}

TEST(VoxelizerTest, RejectsNonFiniteCoordinates) {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (const geom::Vec3& bad : {geom::Vec3{kNaN, 0.5F, 0.5F}, geom::Vec3{0.5F, kInf, 0.5F},
                                geom::Vec3{0.5F, 0.5F, -kInf}}) {
    pc::PointCloud cloud;
    cloud.add({0.5F, 0.5F, 0.5F});
    cloud.add(bad);
    EXPECT_THROW((void)voxelize(cloud, {.resolution = 512}), InvalidArgument);
  }
  // A non-finite intensity would average into a non-finite voxel feature.
  for (const float bad : {kNaN, kInf, -kInf}) {
    pc::PointCloud cloud;
    cloud.add({0.5F, 0.5F, 0.5F});
    cloud.add({0.25F, 0.5F, 0.5F}, bad);
    EXPECT_THROW((void)voxelize(cloud, {.resolution = 512}), InvalidArgument) << bad;
  }
}

TEST(VoxelizerTest, CollidingPointsMergeIntoOneVoxel) {
  pc::PointCloud cloud;
  cloud.add({0.501F, 0.501F, 0.501F}, 1.0F);
  cloud.add({0.502F, 0.502F, 0.502F}, 3.0F);
  const VoxelGrid g = voxelize(cloud, {.resolution = 4});
  EXPECT_EQ(g.coords, (std::vector<Coord3>{{2, 2, 2}}));
  EXPECT_EQ(g.features, std::vector<float>{2.0F});
}

TEST(VoxelizerTest, SparsityMatchesPaperBallpark) {
  // A surface-like cloud voxelized at 192^3 should be overwhelmingly sparse
  // (the paper quotes ~99.9 % for ShapeNet).
  pc::PointCloud cloud;
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    cloud.add({rng.uniform_f(0.2F, 0.4F), rng.uniform_f(0.2F, 0.4F),
               rng.uniform_f(0.2F, 0.4F)});
  }
  const VoxelGrid g = voxelize(cloud, {.resolution = 192});
  const double density =
      static_cast<double>(g.coords.size()) / static_cast<double>(g.extent.volume());
  EXPECT_GT(1.0 - density, 0.999);
}

TEST(VoxelizerTest, RejectsBadResolution) {
  pc::PointCloud cloud;
  cloud.add({0, 0, 0});
  EXPECT_THROW((void)voxelize(cloud, {.resolution = 0}), InvalidArgument);
  // The sort key packs 21 bits per axis, the Morton coordinate range.
  EXPECT_THROW((void)voxelize(cloud, {.resolution = 1 << 22}), InvalidArgument);
  EXPECT_THROW((void)voxelize(cloud, {.resolution = kMortonMaxCoord + 1}), InvalidArgument);
}

TEST(VoxelizerTest, LargestResolutionKeepsAxesApart) {
  // At 2^21 every axis uses all 21 bits of its key field.
  pc::PointCloud cloud;
  cloud.add({1.0F, 0.0F, 1.0F});
  cloud.add({0.0F, 1.0F, 0.0F});
  const VoxelGrid g = voxelize(cloud, {.resolution = kMortonMaxCoord});
  constexpr std::int32_t kTop = kMortonMaxCoord - 1;
  EXPECT_EQ(g.coords, (std::vector<Coord3>{{0, kTop, 0}, {kTop, 0, kTop}}));
}

TEST(VoxelizerTest, MatchesMapReferenceOnDatasetSamples) {
  const datasets::ShapeNetLikeDataset shapenet({}, 20221014);
  const datasets::NyuLikeDataset nyu({}, 20221015);
  for (const std::int32_t res : {48, 96, 192}) {
    for (std::size_t i = 0; i < 2; ++i) {
      expect_matches_map_reference(shapenet.sample(i), res);
      expect_matches_map_reference(nyu.sample(i), res);
    }
  }
}

TEST(VoxelizerTest, MatchesMapReferenceOnSequenceFrames) {
  datasets::SequenceConfig motion;
  motion.frames = 3;
  motion.yaw_per_frame = 0.05F;
  motion.translation_per_frame = {0.01F, 0.0F, 0.0F};
  const datasets::NyuLikeDataset nyu({}, 7);
  const datasets::SequenceDataset ds(nyu.sample(0), motion, 8);
  for (int t = 0; t < motion.frames; ++t) expect_matches_map_reference(ds.frame(t), 96);
}

TEST(VoxelizerTest, MatchesMapReferenceOnCollidingPoints) {
  // Thousands of points in a few voxels, with intensities whose float sum
  // depends on the order it is taken in.
  Rng rng(41);
  pc::PointCloud cloud;
  for (int i = 0; i < 5000; ++i) {
    cloud.add({rng.uniform_f(0.0F, 1.0F), rng.uniform_f(0.0F, 1.0F), rng.uniform_f(0.0F, 1.0F)},
              rng.uniform_f(1e-3F, 1e3F));
  }
  for (const std::int32_t res : {1, 2, 4}) expect_matches_map_reference(cloud, res);
}

}  // namespace
}  // namespace esca::voxel
