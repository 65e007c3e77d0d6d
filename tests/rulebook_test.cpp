#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sparse/geometry.hpp"
#include "sparse/rulebook.hpp"
#include "sparse/testing/rulebook_oracle.hpp"
#include "test_util.hpp"

namespace esca::sparse {
namespace {

TEST(KernelOffsetTest, RoundTripAllOffsets) {
  for (const int k : {1, 3, 5}) {
    for (int i = 0; i < k * k * k; ++i) {
      const Coord3 off = kernel_offset(i, k);
      EXPECT_EQ(kernel_offset_index(off, k), i) << "k=" << k << " i=" << i;
    }
  }
}

TEST(KernelOffsetTest, CenterIndexIsMiddle) {
  EXPECT_EQ(kernel_offset_index({0, 0, 0}, 3), 13);
  EXPECT_EQ(kernel_offset(13, 3), (Coord3{0, 0, 0}));
  EXPECT_EQ(kernel_offset_index({0, 0, 0}, 1), 0);
}

TEST(KernelOffsetTest, ConventionIsDxFastest) {
  EXPECT_EQ(kernel_offset(0, 3), (Coord3{-1, -1, -1}));
  EXPECT_EQ(kernel_offset(1, 3), (Coord3{0, -1, -1}));
  EXPECT_EQ(kernel_offset(3, 3), (Coord3{-1, 0, -1}));
  EXPECT_EQ(kernel_offset(9, 3), (Coord3{-1, -1, 0}));
  EXPECT_EQ(kernel_offset(26, 3), (Coord3{1, 1, 1}));
}

TEST(KernelOffsetTest, OutOfRangeThrows) {
  EXPECT_THROW((void)kernel_offset(27, 3), InvalidArgument);
  EXPECT_THROW((void)kernel_offset_index({2, 0, 0}, 3), InvalidArgument);
}

using RuleTuple = std::tuple<int, std::int32_t, std::int32_t>;  // (offset, in, out)

std::set<RuleTuple> rulebook_set(const RuleBook& rb) {
  std::set<RuleTuple> s;
  for (int o = 0; o < rb.kernel_volume(); ++o) {
    for (const Rule& r : rb.rules_for(o)) {
      s.insert({o, r.in_row, r.out_row});
    }
  }
  return s;
}

std::set<RuleTuple> brute_force_submanifold(const SparseTensor& t, int k) {
  std::set<RuleTuple> s;
  for (std::size_t j = 0; j < t.size(); ++j) {
    for (int o = 0; o < k * k * k; ++o) {
      const std::int32_t i = t.find(t.coord(j) + kernel_offset(o, k));
      if (i >= 0) s.insert({o, i, static_cast<std::int32_t>(j)});
    }
  }
  return s;
}

TEST(SubmanifoldRulebookTest, MatchesBruteForceOnRandomTensors) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const auto t = test::random_sparse_tensor({12, 12, 12}, 1, 0.08, rng);
    const RuleBook rb = build_submanifold_geometry(t, 3).rulebook;
    EXPECT_EQ(rulebook_set(rb), brute_force_submanifold(t, 3)) << "trial " << trial;
  }
}

TEST(SubmanifoldRulebookTest, CenterRuleAlwaysPresent) {
  Rng rng(32);
  const auto t = test::random_sparse_tensor({10, 10, 10}, 1, 0.1, rng);
  const RuleBook rb = build_submanifold_geometry(t, 3).rulebook;
  const auto& center = rb.rules_for(13);
  ASSERT_EQ(center.size(), t.size());
  for (const Rule& r : center) EXPECT_EQ(r.in_row, r.out_row);
}

TEST(SubmanifoldRulebookTest, IsolatedSiteHasOnlyCenterRule) {
  SparseTensor t({9, 9, 9}, 1);
  t.add_site({4, 4, 4});
  const RuleBook rb = build_submanifold_geometry(t, 3).rulebook;
  EXPECT_EQ(rb.total_rules(), 1);
  EXPECT_EQ(rb.rules_for(13).size(), 1U);
}

TEST(SubmanifoldRulebookTest, EvenKernelRejected) {
  SparseTensor t({4, 4, 4}, 1);
  t.add_site({0, 0, 0});
  EXPECT_THROW((void)build_submanifold_geometry(t, 2), InvalidArgument);
}

TEST(SubmanifoldRulebookTest, KernelSize1IsIdentityPattern) {
  Rng rng(33);
  const auto t = test::random_sparse_tensor({8, 8, 8}, 1, 0.1, rng);
  const RuleBook rb = build_submanifold_geometry(t, 1).rulebook;
  EXPECT_EQ(rb.total_rules(), static_cast<std::int64_t>(t.size()));
}

TEST(StridedRulebookTest, K2S2OutputCoordsAreHalvedCells) {
  SparseTensor t({8, 8, 8}, 1);
  t.add_site({0, 0, 0});
  t.add_site({1, 1, 1});  // same output cell (0,0,0)
  t.add_site({5, 4, 2});  // cell (2,2,1)
  const LayerGeometry plan = build_downsample_geometry(t, 2, 2);
  EXPECT_EQ(plan.out_extent, (Coord3{4, 4, 4}));
  ASSERT_EQ(plan.out_coords.size(), 2U);
  std::set<Coord3> coords(plan.out_coords.begin(), plan.out_coords.end());
  EXPECT_TRUE(coords.contains({0, 0, 0}));
  EXPECT_TRUE(coords.contains({2, 2, 1}));
  // Each input contributes exactly one rule for K=2, s=2.
  EXPECT_EQ(plan.rulebook.total_rules(), 3);
}

TEST(StridedRulebookTest, RuleWeightCellMatchesPosition) {
  SparseTensor t({4, 4, 4}, 1);
  t.add_site({1, 0, 1});  // inside cell (0,0,0), kernel cell (1,0,1) -> o = 1+0+4 = 5
  const LayerGeometry plan = build_downsample_geometry(t, 2, 2);
  ASSERT_EQ(plan.rulebook.total_rules(), 1);
  int found_offset = -1;
  for (int o = 0; o < plan.rulebook.kernel_volume(); ++o) {
    if (!plan.rulebook.rules_for(o).empty()) found_offset = o;
  }
  EXPECT_EQ(found_offset, 5);  // (kz*2 + ky)*2 + kx with (kx,ky,kz)=(1,0,1)
}

TEST(StridedRulebookTest, OddExtentCeilDivision) {
  SparseTensor t({5, 5, 5}, 1);
  t.add_site({4, 4, 4});
  const LayerGeometry plan = build_downsample_geometry(t, 2, 2);
  EXPECT_EQ(plan.out_extent, (Coord3{3, 3, 3}));
  EXPECT_EQ(plan.out_coords.at(0), (Coord3{2, 2, 2}));
}

TEST(InverseRulebookTest, TransposesForwardPlan) {
  // The premise of transpose_downsample_geometry: the inverse rules, found
  // from coordinates alone (the hash oracle), are the forward rules flipped.
  Rng rng(34);
  const auto fine = test::random_sparse_tensor({12, 12, 12}, 1, 0.06, rng);
  const LayerGeometry plan = build_downsample_geometry(fine, 2, 2);

  SparseTensor coarse(plan.out_extent, 1);
  for (const Coord3& c : plan.out_coords) coarse.add_site(c);

  const RuleBook inv = oracle::inverse(coarse, fine, 2, 2);
  EXPECT_EQ(inv.total_rules(), plan.rulebook.total_rules());

  // Every forward rule (i -> j) appears flipped, with rows translated
  // through the coarse tensor's coordinate index.
  std::set<RuleTuple> inv_set = rulebook_set(inv);
  for (int o = 0; o < plan.rulebook.kernel_volume(); ++o) {
    for (const Rule& r : plan.rulebook.rules_for(o)) {
      const std::int32_t coarse_row = coarse.find(plan.out_coords[
          static_cast<std::size_t>(r.out_row)]);
      ASSERT_GE(coarse_row, 0);
      EXPECT_TRUE(inv_set.contains({o, coarse_row, r.in_row}));
    }
  }
}

TEST(RuleBookTest, TotalRulesSumsOffsets) {
  RuleBook rb(27);
  rb.add(0, {0, 0});
  rb.add(13, {1, 1});
  rb.add(13, {2, 2});
  EXPECT_EQ(rb.total_rules(), 3);
  EXPECT_EQ(rb.rules_for(13).size(), 2U);
}

// ---------------------------------------------------------------------------
// Morton engine vs. hash oracle: the rewritten builders must produce rule
// sets permutation-equal to the original hash-probing path, for any shard
// count. Downsample row numbering differs (Morton vs. first-seen), so those
// rules are compared through the output *coordinate*.
// ---------------------------------------------------------------------------

using CoordRule = std::tuple<int, std::int32_t, Coord3>;  // (offset, in_row, out_coord)

std::set<CoordRule> coord_rules(const RuleBook& rb, const std::vector<Coord3>& out_coords) {
  std::set<CoordRule> s;
  for (int o = 0; o < rb.kernel_volume(); ++o) {
    for (const Rule& r : rb.rules_for(o)) {
      const auto [it, inserted] =
          s.insert({o, r.in_row, out_coords[static_cast<std::size_t>(r.out_row)]});
      EXPECT_TRUE(inserted) << "duplicate rule";
    }
  }
  return s;
}

TEST(GeometryEquivalenceTest, SubmanifoldMatchesHashOracleAcrossShards) {
  Rng rng(71);
  for (int trial = 0; trial < 6; ++trial) {
    const auto t = test::random_sparse_tensor({16, 16, 16}, 1, 0.02 + 0.03 * trial, rng);
    const std::set<RuleTuple> expected = rulebook_set(oracle::submanifold(t, 3));
    for (const int shards : {1, 2, 4}) {
      const LayerGeometry g = build_submanifold_geometry(t, 3, {.shards = shards});
      EXPECT_EQ(rulebook_set(g.rulebook), expected)
          << "trial " << trial << " shards " << shards;
    }
  }
}

TEST(GeometryEquivalenceTest, StridedMatchesHashOracleAcrossShards) {
  Rng rng(72);
  for (const auto& [k, stride] : {std::pair{2, 2}, {3, 2}, {2, 3}, {3, 3}}) {
    const auto t = test::random_sparse_tensor({15, 15, 15}, 1, 0.06, rng);
    const oracle::StridedRules ref = oracle::strided(t, k, stride);
    const std::set<CoordRule> expected = coord_rules(ref.rulebook, ref.out_coords);
    for (const int shards : {1, 2, 4}) {
      const LayerGeometry g = build_downsample_geometry(t, k, stride, {.shards = shards});
      EXPECT_EQ(g.out_extent, ref.out_extent);
      EXPECT_EQ(std::set<Coord3>(g.out_coords.begin(), g.out_coords.end()),
                std::set<Coord3>(ref.out_coords.begin(), ref.out_coords.end()));
      EXPECT_EQ(coord_rules(g.rulebook, g.out_coords), expected)
          << "k=" << k << " s=" << stride << " shards " << shards;
    }
  }
}

TEST(StridedRulebookTest, StrideLargerThanKernelLeavesGaps) {
  // k=2, s=3: only sites with every coordinate = 0 or 1 (mod 3) fall inside
  // some output window; a site at 2 (mod 3) on any axis is dropped.
  SparseTensor t({9, 9, 9}, 1);
  t.add_site({0, 0, 0});  // window of cell (0,0,0)
  t.add_site({4, 4, 4});  // 1 (mod 3) on every axis -> cell (1,1,1)
  t.add_site({2, 0, 0});  // 2 (mod 3) on x -> in no window
  t.add_site({8, 8, 8});  // 2 (mod 3) everywhere -> dropped boundary site
  const LayerGeometry plan = build_downsample_geometry(t, 2, 3);
  EXPECT_EQ(plan.out_extent, (Coord3{3, 3, 3}));
  EXPECT_EQ(plan.rulebook.total_rules(), 2);
  const std::set<Coord3> coords(plan.out_coords.begin(), plan.out_coords.end());
  EXPECT_EQ(coords, (std::set<Coord3>{{0, 0, 0}, {1, 1, 1}}));

  // And the oracle agrees about the gap structure.
  const oracle::StridedRules ref = oracle::strided(t, 2, 3);
  EXPECT_EQ(coord_rules(plan.rulebook, plan.out_coords),
            coord_rules(ref.rulebook, ref.out_coords));
}

TEST(StridedRulebookTest, ExtentBoundarySitesClampToOutExtent) {
  // Sites on the max corner of an odd extent: the k=3 window enumeration
  // must not invent output cells beyond ceil(extent / stride).
  SparseTensor t({7, 7, 7}, 1);
  t.add_site({6, 6, 6});
  t.add_site({0, 0, 0});
  t.add_site({6, 0, 6});
  const LayerGeometry plan = build_downsample_geometry(t, 3, 2);
  EXPECT_EQ(plan.out_extent, (Coord3{4, 4, 4}));
  for (const Coord3& c : plan.out_coords) {
    EXPECT_TRUE(in_bounds(c, plan.out_extent)) << c;
  }
  const oracle::StridedRules ref = oracle::strided(t, 3, 2);
  EXPECT_EQ(coord_rules(plan.rulebook, plan.out_coords),
            coord_rules(ref.rulebook, ref.out_coords));
}

TEST(InverseRulebookTest, StrideGapsAndBoundaryMatchOracle) {
  // Fine sites that no coarse window reaches (stride > kernel) must yield
  // no rules, including at the extent boundary, and still be restored.
  SparseTensor fine({9, 9, 9}, 1);
  fine.add_site({0, 0, 0});
  fine.add_site({2, 2, 2});  // unreachable for k=2, s=3
  fine.add_site({8, 8, 8});  // unreachable boundary site

  const LayerGeometry inv = transpose_downsample_geometry(build_downsample_geometry(fine, 2, 3));
  EXPECT_EQ(inv.out_coords, fine.coords());
  EXPECT_EQ(rulebook_set(inv.rulebook), rulebook_set(oracle::inverse(inv.sites, fine, 2, 3)));
  EXPECT_EQ(inv.rulebook.total_rules(), 1);  // only (0,0,0) -> (0,0,0)
}

}  // namespace
}  // namespace esca::sparse
