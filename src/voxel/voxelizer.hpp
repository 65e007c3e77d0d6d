// Point cloud -> voxel grid conversion.
//
// Matches the paper's setup (§IV.B): clouds are normalized and voxelized to
// a cubic grid, 192^3 by default.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "pointcloud/point_cloud.hpp"

namespace esca::voxel {

struct VoxelizerConfig {
  std::int32_t resolution{192};  ///< cubic grid edge length, 1..2^21
};

/// A voxelized cloud: the occupied voxels in canonical (z, y, x) order,
/// each with the mean intensity of the points that fell in it.
struct VoxelGrid {
  Coord3 extent;
  std::vector<Coord3> coords;   ///< unique, canonically sorted
  std::vector<float> features;  ///< row-aligned with coords
};

/// Deposit every point into its voxel; feature = mean point intensity,
/// summed in point order. Positions are expected in [0, 1)^3 (callers
/// normalize first); points outside are clamped into the edge voxels.
/// Throws InvalidArgument on a non-finite coordinate or intensity, or a
/// resolution outside 1..2^21.
VoxelGrid voxelize(const pc::PointCloud& cloud, const VoxelizerConfig& config);

}  // namespace esca::voxel
