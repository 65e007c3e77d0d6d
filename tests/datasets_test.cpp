#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "datasets/depth_camera.hpp"
#include "datasets/nyu_like.hpp"
#include "datasets/sequence.hpp"
#include "datasets/shapenet_like.hpp"
#include "sparse/sparse_tensor.hpp"
#include "stream/frame_delta.hpp"
#include "voxel/voxelizer.hpp"

namespace esca::datasets {
namespace {

TEST(ShapeNetLikeTest, AllCategoriesProduceGeometry) {
  Rng rng(11);
  for (std::size_t i = 0; i < kNumShapeCategories; ++i) {
    const auto cat = static_cast<ShapeCategory>(i);
    const geom::Mesh mesh = make_object_mesh(cat, rng);
    EXPECT_FALSE(mesh.empty()) << to_string(cat);
    EXPECT_GT(mesh.surface_area(), 0.0F) << to_string(cat);
  }
}

TEST(ShapeNetLikeTest, CategoryNamesAreUnique) {
  EXPECT_EQ(to_string(ShapeCategory::kAirplane), "airplane");
  EXPECT_EQ(to_string(ShapeCategory::kVessel), "vessel");
}

TEST(ShapeNetLikeTest, CloudFitsConfiguredExtent) {
  ShapeNetLikeConfig cfg;
  cfg.samples_per_object = 500;
  cfg.object_extent = 0.25F;
  Rng rng(5);
  const pc::PointCloud cloud = make_object_cloud(ShapeCategory::kChair, cfg, rng);
  EXPECT_EQ(cloud.size(), 500U);
  const auto b = cloud.bounds();
  EXPECT_GE(b.lo.x, 0.0F);
  EXPECT_LT(b.hi.x, 1.0F);
  // Jitter can stretch slightly past the nominal extent; allow 20 % slack.
  EXPECT_LE(b.max_extent(), cfg.object_extent * 1.2F);
}

TEST(ShapeNetLikeTest, DatasetSamplesAreDeterministic) {
  const ShapeNetLikeDataset ds({}, 99);
  const auto a = ds.sample(3);
  const auto b = ds.sample(3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.position(i), b.position(i));
  }
}

TEST(ShapeNetLikeTest, DifferentIndicesDiffer) {
  const ShapeNetLikeDataset ds({}, 99);
  const auto a = ds.sample(0);
  const auto b = ds.sample(7);  // same category (airplane), different instance
  EXPECT_EQ(ds.category_of(0), ds.category_of(7));
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a.position(0), b.position(0));
}

TEST(ShapeNetLikeTest, InvalidConfigThrows) {
  Rng rng(1);
  ShapeNetLikeConfig bad;
  bad.samples_per_object = 0;
  EXPECT_THROW((void)make_object_cloud(ShapeCategory::kCar, bad, rng), InvalidArgument);
  bad = {};
  bad.object_extent = 0.0F;
  EXPECT_THROW((void)make_object_cloud(ShapeCategory::kCar, bad, rng), InvalidArgument);
}

TEST(DepthCameraTest, RayThroughImageCenterIsForward) {
  DepthCameraConfig cfg;
  const DepthCamera cam(cfg, {0, 0, 0}, 0.0F, 0.0F);
  const Ray r = cam.pixel_ray(cfg.width / 2, cfg.height / 2);
  EXPECT_NEAR(r.direction.x, 1.0F, 0.05F);
  EXPECT_NEAR(r.direction.y, 0.0F, 0.05F);
  EXPECT_NEAR(r.direction.norm(), 1.0F, 1e-5F);
}

TEST(DepthCameraTest, RaycastBoxNearestFace) {
  Scene scene;
  geom::Aabb box;
  box.expand({2, -1, -1});
  box.expand({4, 1, 1});
  scene.add_box(box);
  const auto t = scene.raycast({{0, 0, 0}, {1, 0, 0}});
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 2.0F, 1e-5F);
  EXPECT_FALSE(scene.raycast({{0, 0, 0}, {-1, 0, 0}}).has_value());
}

TEST(DepthCameraTest, RaycastRectRespectsBounds) {
  Scene scene;
  scene.add_rect({'x', 5.0F, {0, -1, -1}, {0, 1, 1}});
  EXPECT_TRUE(scene.raycast({{0, 0, 0}, {1, 0, 0}}).has_value());
  // A ray aimed well above the rectangle misses it.
  EXPECT_FALSE(
      scene.raycast({{0, 0, 0}, geom::Vec3{1, 0, 1}.normalized()}).has_value());
}

TEST(DepthCameraTest, NearestOfMultipleSurfaces) {
  Scene scene;
  scene.add_rect({'x', 5.0F, {0, -9, -9}, {0, 9, 9}});
  scene.add_rect({'x', 3.0F, {0, -9, -9}, {0, 9, 9}});
  const auto t = scene.raycast({{0, 0, 0}, {1, 0, 0}});
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 3.0F, 1e-5F);
}

TEST(DepthCameraTest, CaptureProducesBoundedDepthPoints) {
  Scene scene;
  scene.add_rect({'x', 4.0F, {0, -10, -10}, {0, 10, 10}});
  DepthCameraConfig cfg;
  cfg.width = 16;
  cfg.height = 12;
  cfg.max_depth = 10.0F;
  const DepthCamera cam(cfg, {0, 0, 0}, 0.0F, 0.0F);
  const pc::PointCloud cloud = cam.capture(scene);
  EXPECT_GT(cloud.size(), 0U);
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    EXPECT_NEAR(cloud.position(i).x, 4.0F, 1e-3F);
  }
}

TEST(NyuLikeTest, SceneHasFloorWallsAndFurniture) {
  Rng rng(21);
  const Scene scene = make_indoor_scene(rng);
  EXPECT_EQ(scene.rects().size(), 3U);
  EXPECT_GE(scene.boxes().size(), 3U);
  EXPECT_LE(scene.boxes().size(), 6U);
}

TEST(NyuLikeTest, CloudWithinConfiguredExtent) {
  NyuLikeConfig cfg;
  cfg.max_points = 800;
  Rng rng(8);
  const pc::PointCloud cloud = make_indoor_cloud(cfg, rng);
  EXPECT_GT(cloud.size(), 100U);
  EXPECT_LE(cloud.size(), cfg.max_points);
  const auto b = cloud.bounds();
  EXPECT_GE(b.lo.x, 0.0F);
  EXPECT_LT(b.hi.x, 1.0F);
}

TEST(NyuLikeTest, DatasetDeterministicPerIndex) {
  const NyuLikeDataset ds({}, 4);
  const auto a = ds.sample(2);
  const auto b = ds.sample(2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.position(i), b.position(i));
  }
}

TEST(NyuLikeTest, LabeledSampleMatchesUnlabeledCloud) {
  const NyuLikeDataset ds({}, 4);
  const auto labeled = ds.sample_labeled(1);
  const auto plain = ds.sample(1);
  ASSERT_EQ(labeled.cloud.size(), plain.size());
  ASSERT_EQ(labeled.labels.size(), labeled.cloud.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(labeled.cloud.position(i), plain.position(i));
  }
}

TEST(NyuLikeTest, LabelsCoverMultipleClasses) {
  const NyuLikeDataset ds({}, 4);
  const auto labeled = ds.sample_labeled(0);
  int histogram[kNumIndoorClasses] = {0, 0, 0};
  for (const IndoorClass c : labeled.labels) {
    ++histogram[static_cast<int>(c)];
  }
  // A corner-view capture always sees floor and wall; furniture is likely
  // but scene-dependent, so only require the two structural classes.
  EXPECT_GT(histogram[static_cast<int>(IndoorClass::kFloor)], 0);
  EXPECT_GT(histogram[static_cast<int>(IndoorClass::kWall)], 0);
}

TEST(SequenceDatasetTest, FramesAreDeterministicAndRandomAccess) {
  const ShapeNetLikeDataset objects({}, 31);
  SequenceConfig cfg;
  cfg.frames = 5;
  cfg.yaw_per_frame = 0.01F;
  cfg.translation_per_frame = {0.002F, 0.0F, 0.0F};
  cfg.resample_fraction = 0.1F;
  const SequenceDataset ds(objects.sample(0), cfg, 9);

  const pc::PointCloud a = ds.frame(3);
  const pc::PointCloud b = ds.frame(3);  // random access, no carried state
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.position(i), b.position(i));
    EXPECT_EQ(a.intensity(i), b.intensity(i));
  }
  EXPECT_THROW((void)ds.frame(5), InvalidArgument);
  EXPECT_THROW((void)ds.frame(-1), InvalidArgument);
}

TEST(SequenceDatasetTest, ZeroMotionZeroResampleIsTheBaseCloud) {
  const ShapeNetLikeDataset objects({}, 32);
  SequenceConfig cfg;
  cfg.frames = 2;
  cfg.resample_fraction = 0.0F;
  const SequenceDataset ds(objects.sample(1), cfg, 1);
  const pc::PointCloud frame = ds.frame(1);
  ASSERT_EQ(frame.size(), ds.base().size());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(frame.position(i), ds.base().position(i));
  }
}

TEST(SequenceDatasetTest, ResampleFractionControlsVoxelOverlap) {
  const ShapeNetLikeDataset objects({}, 33);
  const pc::PointCloud base = objects.sample(2);

  auto mean_overlap = [&](float resample_fraction) {
    SequenceConfig cfg;
    cfg.frames = 4;
    cfg.resample_fraction = resample_fraction;
    const SequenceDataset ds(base, cfg, 12);
    double overlap = 0.0;
    sparse::SparseTensor prev = sparse::SparseTensor::from_voxel_grid(
        voxel::voxelize(ds.frame(0), {.resolution = 96}), 1);
    for (int t = 1; t < cfg.frames; ++t) {
      sparse::SparseTensor next = sparse::SparseTensor::from_voxel_grid(
          voxel::voxelize(ds.frame(t), {.resolution = 96}), 1);
      overlap += stream::diff_frames(prev, next).overlap_fraction();
      prev = std::move(next);
    }
    return overlap / (cfg.frames - 1);
  };

  const double high = mean_overlap(0.025F);  // ~95% target overlap
  const double low = mean_overlap(0.25F);    // ~50% target overlap
  EXPECT_GT(high, 0.85);
  EXPECT_LT(low, 0.75);
  EXPECT_GT(high, low + 0.1);
}

TEST(SequenceDatasetTest, RejectsBadConfiguration) {
  const ShapeNetLikeDataset objects({}, 34);
  EXPECT_THROW((void)SequenceDataset(objects.sample(0), {.frames = 0}, 1), InvalidArgument);
  EXPECT_THROW((void)SequenceDataset(objects.sample(0), {.resample_fraction = 1.5F}, 1),
               InvalidArgument);
  EXPECT_THROW((void)SequenceDataset(pc::PointCloud{}, {}, 1), InvalidArgument);
}

}  // namespace
}  // namespace esca::datasets
