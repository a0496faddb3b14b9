// Hazard-free two-level minimization: the Nowick/Dill rules on small
// hand-built functions, candidate growth, covering, and the classic
// example where plain logic minimization would produce a hazard.

#include <gtest/gtest.h>

#include "logic/cover.hpp"
#include "logic/hazard_free.hpp"

namespace adc {
namespace {

Cube cube(const std::string& pattern) {
  Cube c(pattern.size());
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i] == '0') c.set(i, Cube::V::kZero);
    if (pattern[i] == '1') c.set(i, Cube::V::kOne);
  }
  return c;
}

TEST(HazardFree, StaticOneTransitionNeedsSingleCube) {
  // f over (a, b): required 1->1 transition spanning a while b=1.
  FunctionSpec f;
  f.name = "f";
  f.vars = 2;
  f.required.push_back(cube("-1"));
  f.off.push_back(cube("00"));
  auto res = minimize_hazard_free(f);
  ASSERT_TRUE(res.feasible);
  ASSERT_EQ(res.products.size(), 1u);
  EXPECT_TRUE(res.products[0].contains(cube("-1")));
  EXPECT_TRUE(verify_cover(f, res.products).empty());
}

TEST(HazardFree, TheClassicStaticHazard) {
  // f(a,b,c) = a'b + ac with a 1->1 transition across a while b=c=1: the
  // minimal sum-of-products has a hazard; the hazard-free cover must add
  // (or grow) a product containing the whole transition cube b=c=1.
  FunctionSpec f;
  f.name = "hazard";
  f.vars = 3;
  f.required.push_back(cube("-11"));  // the 1->1 transition a: 0->1 @ b=c=1
  f.required.push_back(cube("01-"));  // a'b region
  f.required.push_back(cube("1-1"));  // ac region
  f.off.push_back(cube("00-"));
  f.off.push_back(cube("1-0"));
  auto res = minimize_hazard_free(f);
  ASSERT_TRUE(res.feasible);
  EXPECT_TRUE(verify_cover(f, res.products).empty());
  bool consensus_covered = false;
  for (const auto& p : res.products)
    if (p.contains(cube("-11"))) consensus_covered = true;
  EXPECT_TRUE(consensus_covered) << "the consensus term bc must be one product";
}

TEST(HazardFree, DynamicRiseAnchorsTheEndPoint) {
  // 0 -> 1 over a (b free): products intersecting the transition must
  // contain the end point.
  FunctionSpec f;
  f.name = "rise";
  f.vars = 2;
  Cube t = cube("--");
  Cube a = cube("0-");
  Cube b = cube("1-");
  f.dynamic.push_back(HfDynamic{t, a, b, HfType::kRise});
  f.off.push_back(a);
  f.required.push_back(b);
  auto res = minimize_hazard_free(f);
  ASSERT_TRUE(res.feasible);
  for (const auto& p : res.products) {
    EXPECT_TRUE(p.contains(b));
    EXPECT_FALSE(p.intersects(a));
  }
  EXPECT_TRUE(verify_cover(f, res.products).empty());
}

TEST(HazardFree, DynamicFallAnchorsTheStartPoint) {
  FunctionSpec f;
  f.name = "fall";
  f.vars = 2;
  Cube t = cube("--");
  Cube a = cube("1-");  // start, f=1
  Cube b = cube("0-");  // end, f=0
  f.dynamic.push_back(HfDynamic{t, a, b, HfType::kFall});
  f.off.push_back(b);
  f.required.push_back(a);
  auto res = minimize_hazard_free(f);
  ASSERT_TRUE(res.feasible);
  for (const auto& p : res.products) EXPECT_TRUE(p.contains(a));
}

TEST(HazardFree, ImplicantValidityRules) {
  FunctionSpec f;
  f.name = "v";
  f.vars = 3;
  f.off.push_back(cube("000"));
  f.dynamic.push_back(HfDynamic{cube("1--"), cube("10-"), cube("11-"), HfType::kRise});
  EXPECT_FALSE(implicant_valid(f, cube("0-0"))) << "touches OFF";
  EXPECT_FALSE(implicant_valid(f, cube("10-"))) << "intersects rise without its end";
  EXPECT_TRUE(implicant_valid(f, cube("11-"))) << "contains the anchor";
  EXPECT_TRUE(implicant_valid(f, cube("1--"))) << "contains the anchor, avoids OFF";
}

TEST(HazardFree, GrowthAbsorbsAnchors) {
  // A required cube inside a fall transition without the start point is
  // still coverable: the product grows to absorb the anchor.
  FunctionSpec f;
  f.name = "grow";
  f.vars = 2;
  f.dynamic.push_back(HfDynamic{cube("--"), cube("11"), cube("01"), HfType::kFall});
  f.required.push_back(cube("01"));  // end... of another static piece
  // No OFF region at all: growth must succeed.
  auto res = minimize_hazard_free(f);
  ASSERT_TRUE(res.feasible) << (res.issues.empty() ? "" : res.issues[0]);
  ASSERT_EQ(res.products.size(), 1u);
  EXPECT_TRUE(res.products[0].contains(cube("11"))) << "anchor absorbed";
}

TEST(HazardFree, InfeasibleSpecReported) {
  // The anchor of a fall transition lies inside OFF: contradiction.
  FunctionSpec f;
  f.name = "bad";
  f.vars = 2;
  f.dynamic.push_back(HfDynamic{cube("--"), cube("11"), cube("01"), HfType::kFall});
  f.off.push_back(cube("11"));
  f.required.push_back(cube("01"));
  auto res = minimize_hazard_free(f);
  EXPECT_FALSE(res.feasible);
  EXPECT_FALSE(res.issues.empty());
}

TEST(HazardFree, StaticZeroRegionNeverIntersected) {
  FunctionSpec f;
  f.name = "s0";
  f.vars = 3;
  f.required.push_back(cube("11-"));
  f.off.push_back(cube("0--"));  // static 0->0 over the whole a=0 half
  auto res = minimize_hazard_free(f);
  ASSERT_TRUE(res.feasible);
  for (const auto& p : res.products) EXPECT_FALSE(p.intersects(cube("0--")));
}

TEST(HazardFree, ConstantZeroFunction) {
  FunctionSpec f;
  f.name = "zero";
  f.vars = 2;
  f.off.push_back(cube("--"));
  auto res = minimize_hazard_free(f);
  EXPECT_TRUE(res.feasible);
  EXPECT_TRUE(res.products.empty());
}

TEST(HazardFree, DominatedRequiredCubesDropOut) {
  FunctionSpec f;
  f.name = "dom";
  f.vars = 2;
  f.required.push_back(cube("1-"));
  f.required.push_back(cube("11"));  // contained in the first
  auto res = minimize_hazard_free(f);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.products.size(), 1u);
}

TEST(HazardFree, CandidatesAreValidAndCoverTheirSeeds) {
  FunctionSpec f;
  f.name = "max";
  f.vars = 3;
  f.required.push_back(cube("111"));
  f.off.push_back(cube("0-0"));
  auto cands = candidate_implicants(f);
  ASSERT_FALSE(cands.empty());
  bool grown = false;
  for (const auto& cand : cands) {
    EXPECT_TRUE(implicant_valid(f, cand));
    EXPECT_TRUE(cand.contains(cube("111")));
    if (cand.literal_count() < 3) grown = true;
  }
  EXPECT_TRUE(grown) << "expansion should widen beyond the seed point";
}

}  // namespace
}  // namespace adc
