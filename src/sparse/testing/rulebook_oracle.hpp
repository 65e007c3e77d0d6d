// Reference hash-probing rulebook builders — the pre-geometry-engine path,
// one unordered_map lookup per (site, kernel offset).
//
// FOR TESTS AND BENCHES ONLY. The property tests prove the Morton engine
// permutation-equal to these, and bench_rulebook_build times the engine
// against them; keeping one copy means both always measure/verify the same
// semantics. Production code must use sparse/geometry.hpp.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "sparse/geometry.hpp"
#include "sparse/rulebook.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::sparse::oracle {

inline RuleBook submanifold(const SparseTensor& input, int k) {
  const int volume = k * k * k;
  std::unordered_map<Coord3, std::int32_t, Coord3Hash> index;
  index.reserve(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    index.emplace(input.coord(i), static_cast<std::int32_t>(i));
  }
  RuleBook rb(volume);
  for (std::size_t j = 0; j < input.size(); ++j) {
    for (int o = 0; o < volume; ++o) {
      const auto it = index.find(input.coord(j) + kernel_offset(o, k));
      if (it != index.end()) rb.add(o, Rule{it->second, static_cast<std::int32_t>(j)});
    }
  }
  return rb;
}

/// A strided build's output: the output coordinate set (first-seen order)
/// and the rulebook whose out_rows index it.
struct StridedRules {
  std::vector<Coord3> out_coords;
  Coord3 out_extent;
  RuleBook rulebook{1};
};

inline StridedRules strided(const SparseTensor& input, int k, int stride) {
  StridedRules plan;
  const Coord3 in_extent = input.spatial_extent();
  plan.out_extent = {(in_extent.x + stride - 1) / stride, (in_extent.y + stride - 1) / stride,
                     (in_extent.z + stride - 1) / stride};
  plan.rulebook = RuleBook(k * k * k);
  std::unordered_map<Coord3, std::int32_t, Coord3Hash> out_index;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const Coord3 p = input.coord(i);
    for (int kz = 0; kz < k; ++kz) {
      for (int ky = 0; ky < k; ++ky) {
        for (int kx = 0; kx < k; ++kx) {
          const Coord3 shifted = p - Coord3{kx, ky, kz};
          if (shifted.x % stride != 0 || shifted.y % stride != 0 ||
              shifted.z % stride != 0) {
            continue;
          }
          if (shifted.x < 0 || shifted.y < 0 || shifted.z < 0) continue;
          const Coord3 c = {shifted.x / stride, shifted.y / stride, shifted.z / stride};
          if (!in_bounds(c, plan.out_extent)) continue;
          const auto [it, inserted] = out_index.try_emplace(
              c, static_cast<std::int32_t>(plan.out_coords.size()));
          if (inserted) plan.out_coords.push_back(c);
          plan.rulebook.add((kz * k + ky) * k + kx,
                            Rule{static_cast<std::int32_t>(i), it->second});
        }
      }
    }
  }
  return plan;
}

inline RuleBook inverse(const SparseTensor& input, const SparseTensor& target, int k,
                        int stride) {
  std::unordered_map<Coord3, std::int32_t, Coord3Hash> index;
  index.reserve(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    index.emplace(input.coord(i), static_cast<std::int32_t>(i));
  }
  RuleBook rb(k * k * k);
  for (std::size_t j = 0; j < target.size(); ++j) {
    const Coord3 p = target.coord(j);
    for (int kz = 0; kz < k; ++kz) {
      for (int ky = 0; ky < k; ++ky) {
        for (int kx = 0; kx < k; ++kx) {
          const Coord3 shifted = p - Coord3{kx, ky, kz};
          if (shifted.x % stride != 0 || shifted.y % stride != 0 ||
              shifted.z % stride != 0) {
            continue;
          }
          if (shifted.x < 0 || shifted.y < 0 || shifted.z < 0) continue;
          const auto it =
              index.find({shifted.x / stride, shifted.y / stride, shifted.z / stride});
          if (it == index.end()) continue;
          rb.add((kz * k + ky) * k + kx, Rule{it->second, static_cast<std::int32_t>(j)});
        }
      }
    }
  }
  return rb;
}

/// An inverse LayerGeometry over inverse()'s rules: reads `input`'s sites
/// and restores `target`'s, in `target`'s row order. For tests that need an
/// inverse geometry on a (coarse, target) pair that is not a downsample's;
/// a network derives it with transpose_downsample_geometry.
inline LayerGeometry inverse_geometry(const SparseTensor& input, const SparseTensor& target,
                                      int k, int stride) {
  LayerGeometry g(GeometryKind::kInverse, k, stride, input.zeros_like(1));
  g.out_extent = target.spatial_extent();
  g.out_coords = target.coords();
  g.out_index = target.index();
  g.rulebook = inverse(input, target, k, stride);
  g.blocked = BlockedRuleBook(g.rulebook, g.out_coords.size());
  return g;
}

}  // namespace esca::sparse::oracle
