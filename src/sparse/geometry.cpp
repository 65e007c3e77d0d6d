#include "sparse/geometry.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/executor.hpp"
#include "obs/trace.hpp"
#include "voxel/morton.hpp"

namespace esca::sparse {

namespace {

constexpr int kMaxShards = 64;

/// Concatenate per-shard per-offset rule lists into the rulebook, shard
/// order preserved (== the serial emission order).
void merge_shards(std::vector<std::vector<std::vector<Rule>>>& shard_rules, RuleBook& rulebook) {
  const int volume = rulebook.kernel_volume();
  for (int o = 0; o < volume; ++o) {
    for (auto& per_offset : shard_rules) {
      for (const Rule& r : per_offset[static_cast<std::size_t>(o)]) rulebook.add(o, r);
    }
  }
}

/// Sites below which an extra default shard isn't worth a helper wakeup.
constexpr std::size_t kMinSitesPerShard = 2048;

/// One candidate rule of a strided build: input site `in_row`
/// contributes through kernel cell `offset` to the output cell at `code`.
struct Candidate {
  std::uint64_t code;
  std::int32_t offset;
  std::int32_t in_row;
};

/// Bucket the finished rulebook for the compute engine (sparse/compute.hpp)
/// over the recorded output sites — once, at build time.
void finalize_blocked(LayerGeometry& g) {
  g.blocked = BlockedRuleBook(g.rulebook, g.out_coords.size());
}

}  // namespace

const char* to_string(GeometryKind kind) {
  switch (kind) {
    case GeometryKind::kSubmanifold: return "submanifold";
    case GeometryKind::kDownsample: return "downsample";
    case GeometryKind::kInverse: return "inverse";
  }
  return "?";
}

std::int64_t LayerGeometry::macs(int in_channels, int out_channels) const {
  return total_rules() * static_cast<std::int64_t>(in_channels) *
         static_cast<std::int64_t>(out_channels);
}

void require_geometry(const LayerGeometry& geometry, GeometryKind kind, int kernel_size,
                      int stride, std::size_t input_rows, const char* layer) {
  ESCA_REQUIRE(geometry.kind == kind && geometry.kernel_size == kernel_size &&
                   geometry.stride == stride,
               to_string(geometry.kind) << " geometry k" << geometry.kernel_size << "/s"
                                        << geometry.stride << " does not match " << layer
                                        << " (" << to_string(kind) << " k" << kernel_size
                                        << "/s" << stride << ")");
  ESCA_REQUIRE(geometry.sites.size() == input_rows,
               layer << " input has " << input_rows << " rows, geometry was built on "
                     << geometry.sites.size());
}

bool geometry_equal(const LayerGeometry& a, const LayerGeometry& b) {
  if (a.kind != b.kind || a.kernel_size != b.kernel_size || a.stride != b.stride ||
      !(a.out_extent == b.out_extent)) {
    return false;
  }
  if (a.sites.size() != b.sites.size() ||
      !(a.sites.spatial_extent() == b.sites.spatial_extent())) {
    return false;
  }
  for (std::size_t r = 0; r < a.sites.size(); ++r) {
    if (!(a.sites.coord(r) == b.sites.coord(r))) return false;
  }
  if (a.out_coords != b.out_coords) return false;
  const int volume = a.rulebook.kernel_volume();
  if (volume != b.rulebook.kernel_volume()) return false;
  for (int o = 0; o < volume; ++o) {
    if (a.rulebook.rules_for(o) != b.rulebook.rules_for(o)) return false;
  }
  // The blocked form is a deterministic function of (rulebook, out_coords),
  // but compare it anyway — it is what the compute engine executes.
  if (a.blocked.num_blocks() != b.blocked.num_blocks() ||
      a.blocked.kernel_volume() != b.blocked.kernel_volume() ||
      a.blocked.num_out_rows() != b.blocked.num_out_rows()) {
    return false;
  }
  for (int blk = 0; blk < a.blocked.num_blocks(); ++blk) {
    for (int o = 0; o < volume; ++o) {
      const auto ra = a.blocked.rules(blk, o);
      const auto rb = b.blocked.rules(blk, o);
      if (!std::equal(ra.begin(), ra.end(), rb.begin(), rb.end())) return false;
    }
  }
  return true;
}

obs::Counter& geometry_builds_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "esca_geometry_builds_total", "cold geometry builds (submanifold/downsample)");
  return counter;
}

obs::Counter& geometry_transposes_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "esca_geometry_transposes_total", "inverse geometries derived by rulebook transpose");
  return counter;
}

GeometryShardRange geometry_shard_range(std::size_t n, int shards, int s) {
  const std::size_t per = n / static_cast<std::size_t>(shards);
  const std::size_t rem = n % static_cast<std::size_t>(shards);
  const auto u = static_cast<std::size_t>(s);
  const std::size_t begin = u * per + std::min(u, rem);
  return {begin, begin + per + (u < rem ? 1 : 0)};
}

int pick_geometry_shards(const GeometryOptions& options, std::size_t n) {
  int shards = std::min(options.shards, kMaxShards);
  if (options.shards <= 0) {
    shards = std::min<int>(Executor::global().size(), static_cast<int>(n / kMinSitesPerShard) + 1);
  }
  return std::max(1, std::min<int>(shards, static_cast<int>(std::max<std::size_t>(n, 1))));
}

LayerGeometry build_submanifold_geometry(const SparseTensor& input, int kernel_size,
                                         const GeometryOptions& options) {
  ESCA_REQUIRE(kernel_size % 2 == 1, "submanifold convolution requires odd kernel size, got "
                                         << kernel_size);
  geometry_builds_counter().inc();
  obs::Span span("sparse.build_geometry");
  span.arg("kind", "submanifold");
  span.arg("sites", input.size());
  const int k = kernel_size;
  const int volume = k * k * k;
  LayerGeometry g(GeometryKind::kSubmanifold, k, 1, input.zeros_like(1));

  std::vector<Coord3> offsets(static_cast<std::size_t>(volume));
  for (int o = 0; o < volume; ++o) offsets[static_cast<std::size_t>(o)] = kernel_offset(o, k);

  const CoordIndex& index = g.sites.index();
  const auto entries = index.entries();
  const Coord3 extent = input.spatial_extent();

  const int shards = pick_geometry_shards(options, entries.size());
  std::vector<std::vector<std::vector<Rule>>> shard_rules(
      static_cast<std::size_t>(shards),
      std::vector<std::vector<Rule>>(static_cast<std::size_t>(volume)));

  // Outputs are walked in Morton order, so each offset's shifted queries
  // stay spatially local and the galloping cursor rarely moves far.
  Executor::global().parallel_for(shards, [&](int s) {
    const GeometryShardRange range = geometry_shard_range(entries.size(), shards, s);
    auto& rules = shard_rules[static_cast<std::size_t>(s)];
    std::vector<std::size_t> cursors(static_cast<std::size_t>(volume), range.begin);
    for (std::size_t e = range.begin; e < range.end; ++e) {
      const std::int32_t j = entries[e].row;
      const Coord3 out_c = voxel::morton_decode(entries[e].code);
      for (int o = 0; o < volume; ++o) {
        const Coord3 in_c = out_c + offsets[static_cast<std::size_t>(o)];
        if (!in_bounds(in_c, extent)) continue;
        const std::int32_t i =
            index.find_near(voxel::morton_encode(in_c), cursors[static_cast<std::size_t>(o)]);
        if (i >= 0) rules[static_cast<std::size_t>(o)].push_back(Rule{i, j});
      }
    }
  });
  merge_shards(shard_rules, g.rulebook);
  finalize_blocked(g);
  return g;
}

LayerGeometry build_downsample_geometry(const SparseTensor& input, int kernel_size, int stride,
                                        const GeometryOptions& options) {
  ESCA_REQUIRE(kernel_size >= 1, "kernel size must be >= 1");
  ESCA_REQUIRE(stride >= 1, "stride must be >= 1");
  geometry_builds_counter().inc();
  obs::Span span("sparse.build_geometry");
  span.arg("kind", "downsample");
  span.arg("sites", input.size());
  const int k = kernel_size;
  const int volume = k * k * k;

  LayerGeometry g(GeometryKind::kDownsample, k, stride, input.zeros_like(1));
  const Coord3 in_extent = input.spatial_extent();
  g.out_extent = {(in_extent.x + stride - 1) / stride, (in_extent.y + stride - 1) / stride,
                  (in_extent.z + stride - 1) / stride};

  const std::size_t n = input.size();
  const int shards = pick_geometry_shards(options, n);

  // Pass 1 — enumerate (input site, kernel cell) -> output cell candidates.
  // Output cell c covers input window [c*stride, c*stride + k); kernel cell
  // (kx, ky, kz) places the output at (p - kcell) / stride.
  std::vector<std::vector<Candidate>> shard_cands(static_cast<std::size_t>(shards));
  Executor::global().parallel_for(shards, [&](int s) {
    const GeometryShardRange range = geometry_shard_range(n, shards, s);
    auto& cands = shard_cands[static_cast<std::size_t>(s)];
    for (std::size_t i = range.begin; i < range.end; ++i) {
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
            if (!in_bounds(c, g.out_extent)) continue;
            const int o = (kz * k + ky) * k + kx;
            cands.push_back(Candidate{voxel::morton_encode(c), o,
                                      static_cast<std::int32_t>(i)});
          }
        }
      }
    }
  });

  // Pass 2 — the distinct output cells, Morton-ordered: row numbering is
  // canonical and independent of shard count.
  std::vector<std::uint64_t> out_codes;
  for (const auto& cands : shard_cands) {
    for (const Candidate& c : cands) out_codes.push_back(c.code);
  }
  std::sort(out_codes.begin(), out_codes.end());
  out_codes.erase(std::unique(out_codes.begin(), out_codes.end()), out_codes.end());
  g.out_coords.reserve(out_codes.size());
  for (const std::uint64_t code : out_codes) g.out_coords.push_back(voxel::morton_decode(code));
  ESCA_CHECK(g.out_index.rebuild(g.out_coords), "duplicate downsample output cell");

  // Pass 3 — resolve candidates to output rows (binary search over the
  // sorted code list) and emit rules in candidate order.
  std::vector<std::vector<std::vector<Rule>>> shard_rules(
      static_cast<std::size_t>(shards),
      std::vector<std::vector<Rule>>(static_cast<std::size_t>(volume)));
  Executor::global().parallel_for(shards, [&](int s) {
    auto& rules = shard_rules[static_cast<std::size_t>(s)];
    for (const Candidate& c : shard_cands[static_cast<std::size_t>(s)]) {
      const auto it = std::lower_bound(out_codes.begin(), out_codes.end(), c.code);
      const auto out_row = static_cast<std::int32_t>(it - out_codes.begin());
      rules[static_cast<std::size_t>(c.offset)].push_back(Rule{c.in_row, out_row});
    }
  });
  merge_shards(shard_rules, g.rulebook);
  finalize_blocked(g);
  return g;
}

LayerGeometry transpose_downsample_geometry(const LayerGeometry& down) {
  ESCA_REQUIRE(down.kind == GeometryKind::kDownsample,
               "can only transpose a downsample geometry, got " << to_string(down.kind));
  geometry_transposes_counter().inc();

  LayerGeometry g(GeometryKind::kInverse, down.kernel_size, down.stride, down.zero_output(1));
  g.out_extent = down.sites.spatial_extent();
  g.out_coords = down.sites.coords();
  g.out_index = down.sites.index();
  // The downsample builder walks fine rows in ascending order with the
  // kernel-cell loop innermost, so swapping in/out per rule keeps the rules
  // of each kernel cell in fine-row order.
  const int volume = down.rulebook.kernel_volume();
  for (int o = 0; o < volume; ++o) {
    for (const Rule& r : down.rulebook.rules_for(o)) {
      g.rulebook.add(o, Rule{r.out_row, r.in_row});
    }
  }
  finalize_blocked(g);
  return g;
}

LayerGeometryPtr make_submanifold_geometry(const SparseTensor& input, int kernel_size,
                                           const GeometryOptions& options) {
  return std::make_shared<const LayerGeometry>(
      build_submanifold_geometry(input, kernel_size, options));
}

LayerGeometryPtr make_downsample_geometry(const SparseTensor& input, int kernel_size,
                                          int stride, const GeometryOptions& options) {
  return std::make_shared<const LayerGeometry>(
      build_downsample_geometry(input, kernel_size, stride, options));
}

LayerGeometryPtr make_transposed_inverse_geometry(const LayerGeometry& down) {
  return std::make_shared<const LayerGeometry>(transpose_downsample_geometry(down));
}

}  // namespace esca::sparse
