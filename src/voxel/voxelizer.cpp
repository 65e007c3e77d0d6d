#include "voxel/voxelizer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "voxel/morton.hpp"

namespace esca::voxel {

VoxelGrid voxelize(const pc::PointCloud& cloud, const VoxelizerConfig& config) {
  const std::int32_t res = config.resolution;
  ESCA_REQUIRE(res > 0 && res <= kMortonMaxCoord,
               "voxel resolution must be in [1, 2^21], got " << res);

  // Clamp in float before the cast, so a far point cannot overflow it.
  const float scale = static_cast<float>(res);
  const float top = static_cast<float>(res - 1);
  const auto axis = [scale, top](float v) {
    return static_cast<std::uint64_t>(std::clamp(std::floor(v * scale), 0.0F, top));
  };
  constexpr int kBits = 21;  // one axis of the key
  static_assert(kMortonMaxCoord == 1 << kBits);
  constexpr std::uint64_t kAxisMask = (1ULL << kBits) - 1;

  // Sorting (canonical key, point index) pairs orders the voxels by
  // (z, y, x) and each voxel's points by index.
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed(cloud.size());
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    const geom::Vec3& p = cloud.position(i);
    ESCA_REQUIRE(std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z),
                 "point " << i << " has a non-finite coordinate");
    ESCA_REQUIRE(std::isfinite(cloud.intensity(i)), "point " << i << " has a non-finite intensity");
    keyed[i] = {axis(p.z) << (2 * kBits) | axis(p.y) << kBits | axis(p.x), i};
  }
  std::sort(keyed.begin(), keyed.end());

  VoxelGrid grid{{res, res, res}, {}, {}};
  for (std::size_t begin = 0, end = 0; begin < keyed.size(); begin = end) {
    const std::uint64_t key = keyed[begin].first;
    float sum = 0.0F;
    for (end = begin; end < keyed.size() && keyed[end].first == key; ++end) {
      sum += cloud.intensity(keyed[end].second);
    }
    grid.coords.push_back({static_cast<std::int32_t>(key & kAxisMask),
                           static_cast<std::int32_t>(key >> kBits & kAxisMask),
                           static_cast<std::int32_t>(key >> (2 * kBits))});
    grid.features.push_back(sum / static_cast<float>(end - begin));
  }
  return grid;
}

}  // namespace esca::voxel
