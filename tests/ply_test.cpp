// PLY I/O tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/check.hpp"
#include "pointcloud/ply.hpp"

namespace esca {
namespace {

pc::PointCloud test_cloud() {
  pc::PointCloud c;
  c.add({0.5F, -1.25F, 3.0F}, 0.25F);
  c.add({1e-3F, 2.5F, -7.0F}, 1.0F);
  c.add({100.0F, 0.0F, 0.125F}, 0.5F);
  return c;
}

TEST(PlyTest, AsciiRoundTrip) {
  const pc::PointCloud cloud = test_cloud();
  std::stringstream ss;
  pc::write_ply(ss, cloud, pc::PlyFormat::kAscii);
  const pc::PointCloud back = pc::read_ply(ss);
  ASSERT_EQ(back.size(), cloud.size());
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    EXPECT_EQ(back.position(i), cloud.position(i));
    EXPECT_FLOAT_EQ(back.intensity(i), cloud.intensity(i));
  }
}

TEST(PlyTest, BinaryRoundTripIsExact) {
  const pc::PointCloud cloud = test_cloud();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  pc::write_ply(ss, cloud, pc::PlyFormat::kBinaryLittleEndian);
  const pc::PointCloud back = pc::read_ply(ss);
  ASSERT_EQ(back.size(), cloud.size());
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    EXPECT_EQ(back.position(i), cloud.position(i));  // bit-exact in binary
    EXPECT_EQ(back.intensity(i), cloud.intensity(i));
  }
}

TEST(PlyTest, HeaderDeclaresVertexElement) {
  std::stringstream ss;
  pc::write_ply(ss, test_cloud(), pc::PlyFormat::kAscii);
  const std::string text = ss.str();
  EXPECT_EQ(text.rfind("ply\n", 0), 0U);
  EXPECT_NE(text.find("format ascii 1.0"), std::string::npos);
  EXPECT_NE(text.find("element vertex 3"), std::string::npos);
  EXPECT_NE(text.find("property float intensity"), std::string::npos);
}

TEST(PlyTest, ReadsForeignAsciiWithExtraProperties) {
  // x/y/z plus unknown columns; no intensity -> defaults to 1.
  std::stringstream ss(
      "ply\nformat ascii 1.0\nelement vertex 2\n"
      "property float x\nproperty float y\nproperty float z\n"
      "property uchar red\nproperty uchar green\nproperty uchar blue\n"
      "end_header\n"
      "1 2 3 255 0 0\n"
      "4 5 6 0 255 0\n");
  const pc::PointCloud cloud = pc::read_ply(ss);
  ASSERT_EQ(cloud.size(), 2U);
  EXPECT_EQ(cloud.position(1), (geom::Vec3{4, 5, 6}));
  EXPECT_FLOAT_EQ(cloud.intensity(0), 1.0F);
}

TEST(PlyTest, RejectsMalformedStreams) {
  std::stringstream not_ply("pointcloud v1\n");
  EXPECT_THROW((void)pc::read_ply(not_ply), InvalidArgument);

  std::stringstream no_xyz(
      "ply\nformat ascii 1.0\nelement vertex 1\nproperty float a\nend_header\n1\n");
  EXPECT_THROW((void)pc::read_ply(no_xyz), InvalidArgument);

  std::stringstream truncated(
      "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\n"
      "property float z\nend_header\n1 2 3\n");
  EXPECT_THROW((void)pc::read_ply(truncated), InvalidArgument);
}

TEST(PlyTest, FileRoundTrip) {
  const std::string path = "/tmp/esca_ply_test.ply";
  pc::write_ply_file(path, test_cloud(), pc::PlyFormat::kBinaryLittleEndian);
  const pc::PointCloud back = pc::read_ply_file(path);
  EXPECT_EQ(back.size(), 3U);
  std::remove(path.c_str());
  EXPECT_THROW((void)pc::read_ply_file("/nonexistent/file.ply"), InvalidArgument);
}

}  // namespace
}  // namespace esca
