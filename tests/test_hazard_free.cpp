// Hazard-free two-level minimization: the Nowick/Dill rules on small
// hand-built functions, candidate growth, covering, and the classic
// example where plain logic minimization would produce a hazard.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

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

// Closes `c` under the anchor rules, written out here independently of the
// minimizer; false when the closure meets an OFF cube.
bool closes_clear_of_off(const FunctionSpec& f, Cube c) {
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& d : f.dynamic) {
      const Cube& anchor = d.type == HfType::kRise ? d.b : d.a;
      if (c.intersects(d.t) && !c.contains(anchor)) {
        c.supercube_with(anchor);
        changed = true;
      }
    }
  }
  for (const auto& o : f.off)
    if (c.intersects(o)) return false;
  return true;
}

// A random cube over n variables, each fixed with probability fixed_pct %.
Cube random_cube(std::size_t n, int fixed_pct, std::mt19937_64& rng) {
  Cube c(n);
  for (std::size_t v = 0; v < n; ++v)
    if (static_cast<int>(rng() % 100) < fixed_pct)
      c.set(v, rng() % 2 ? Cube::V::kOne : Cube::V::kZero);
  return c;
}

// A seeded random spec: near-point required cubes, dynamic transitions
// around some of them, and OFF cubes kept clear of every required cube and
// anchor.  `n_off` above 64 makes the per-variable cube sets multi-word.
FunctionSpec random_spec(std::size_t n, std::size_t n_off, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  FunctionSpec f;
  f.name = "random" + std::to_string(n);
  f.vars = n;
  for (int i = 0; i < 12; ++i) f.required.push_back(random_cube(n, 90, rng));
  for (int i = 0; i < 6; ++i) {
    const Cube& r = f.required[static_cast<std::size_t>(i) * 2];
    std::size_t k = rng() % n;
    if (r.get(k) == Cube::V::kFree) continue;
    Cube t = r;
    for (int j = 0; j < 3; ++j) t.set(rng() % n, Cube::V::kFree);
    t.set(k, Cube::V::kFree);
    Cube there = t.with(k, r.get(k));
    Cube away = t.with(k, r.get(k) == Cube::V::kOne ? Cube::V::kZero : Cube::V::kOne);
    if (i % 2 == 0)
      f.dynamic.push_back(HfDynamic{t, away, there, HfType::kRise});
    else
      f.dynamic.push_back(HfDynamic{t, there, away, HfType::kFall});
  }
  // OFF cubes of roughly 6 (9 variables) to 17 (129 variables) literals.
  const int off_pct = 600 / static_cast<int>(std::min<std::size_t>(n, 60)) + 3;
  while (f.off.size() < n_off) {
    Cube o = random_cube(n, off_pct, rng);
    bool clear = true;
    for (const auto& r : f.required) clear = clear && !o.intersects(r);
    for (const auto& d : f.dynamic)
      clear = clear && !o.intersects(d.type == HfType::kRise ? d.b : d.a);
    if (clear) f.off.push_back(o);
  }
  return f;
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

  // Across the word boundaries of the cube masks (and, with more than 64
  // OFF cubes, of the per-variable cube sets): every candidate is a dhf
  // implicant, holds a required cube, and is maximal — freeing any of its
  // fixed variables and re-closing meets OFF.
  for (std::size_t n : {9, 63, 64, 65, 128, 129}) {
    for (std::size_t n_off : {20, 90}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const FunctionSpec g = random_spec(n, n_off, seed * 1000 + n);
        const std::string at = g.name + " off=" + std::to_string(n_off) +
                               " seed=" + std::to_string(seed);
        const auto pool = candidate_implicants(g);
        EXPECT_FALSE(pool.empty()) << at;
        std::size_t widened = 0;
        for (const auto& c : pool) {
          EXPECT_TRUE(implicant_valid(g, c)) << at << " " << c.to_string();
          EXPECT_TRUE(CompiledSpec(g).valid(c)) << at << " " << c.to_string();
          bool holds_required = false;
          for (const auto& r : g.required) holds_required = holds_required || c.contains(r);
          EXPECT_TRUE(holds_required) << at << " " << c.to_string();
          for (std::size_t v = 0; v < n; ++v) {
            if (c.get(v) == Cube::V::kFree) continue;
            EXPECT_FALSE(closes_clear_of_off(g, c.with(v, Cube::V::kFree)))
                << at << " " << c.to_string() << " var " << v;
          }
          if (c.literal_count() + 3 < n) ++widened;
        }
        EXPECT_GT(widened, 0u) << at;
        for (const auto& r : g.required)
          EXPECT_EQ(CompiledSpec(g).valid(r), implicant_valid(g, r)) << at;
      }
    }
  }
}

}  // namespace
}  // namespace adc
