// Property-based testing over randomly generated scheduled CDFGs: the
// invariants every transform must preserve, swept across seeds and sizes.

#include <gtest/gtest.h>

#include "cdfg/analysis.hpp"
#include "cdfg/validate.hpp"
#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "ltrans/local.hpp"
#include "sim/token_sim.hpp"
#include "transforms/global.hpp"
#include "transforms/script.hpp"
#include "xbm/validate.hpp"

namespace adc {
namespace {

std::map<std::string, std::int64_t> random_init(const RandomProgramParams& p) {
  std::map<std::string, std::int64_t> init;
  for (int i = 0; i < p.regs; ++i) init["r" + std::to_string(i)] = 7 * i - 4;
  init["n"] = 5;
  init["cond"] = 1;
  return init;
}

struct Shape {
  int alus;
  int mults;
  int stmts;
  bool loop;
};

class RandomPrograms : public ::testing::TestWithParam<Shape> {};

TEST_P(RandomPrograms, GlobalPipelinePreservesSemantics) {
  Shape shape = GetParam();
  RandomProgramParams p;
  p.alus = shape.alus;
  p.mults = shape.mults;
  p.stmts = shape.stmts;
  p.with_loop = shape.loop;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Cdfg g = random_program(p, seed);
    auto init = random_init(p);
    auto gold = run_sequential(g, init);

    auto res = TransformScript::parse(kPaperRecipe).run(g);
    EXPECT_TRUE(validate(g).empty()) << "seed " << seed;
    EXPECT_TRUE(res.plan.validate(g).empty()) << "seed " << seed;

    for (std::uint64_t s = 1; s <= 3; ++s) {
      TokenSimOptions o;
      o.seed = seed * 17 + s;
      auto r = run_token_sim(g, init, o);
      EXPECT_TRUE(r.completed) << "seed " << seed << ": " << r.error;
      EXPECT_EQ(r.registers, gold) << "seed " << seed << " sim-seed " << s;
    }
  }
}

TEST_P(RandomPrograms, ExtractionAndLtStayValid) {
  Shape shape = GetParam();
  RandomProgramParams p;
  p.alus = shape.alus;
  p.mults = shape.mults;
  p.stmts = shape.stmts;
  p.with_loop = shape.loop;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Cdfg g = random_program(p, seed);
    auto res = TransformScript::parse(kPaperRecipe).run(g);
    for (auto& c : extract_controllers(g, res.plan)) {
      ASSERT_TRUE(validate(c.machine).empty())
          << "seed " << seed << " " << c.machine.name();
      ASSERT_NO_THROW(run_local_transforms(c)) << "seed " << seed;
      EXPECT_TRUE(validate(c.machine).empty())
          << "seed " << seed << " " << c.machine.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomPrograms,
    ::testing::Values(Shape{1, 1, 6, false}, Shape{2, 1, 10, false},
                      Shape{2, 2, 12, true}, Shape{3, 2, 16, true},
                      Shape{2, 0, 8, true}, Shape{4, 2, 20, false}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      const Shape& s = info.param;
      return "a" + std::to_string(s.alus) + "m" + std::to_string(s.mults) + "s" +
             std::to_string(s.stmts) + (s.loop ? "_loop" : "_line");
    });

TEST(PropertyRandom, Gt2NeverChangesReachabilityOffsets) {
  RandomProgramParams p;
  p.stmts = 14;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Cdfg g = random_program(p, seed);
    Cdfg before = g.clone();
    gt2_remove_dominated(g);
    auto nodes = before.node_ids();
    for (std::size_t i = 0; i < nodes.size(); i += 3) {
      for (std::size_t j = 0; j < nodes.size(); j += 3) {
        if (i == j) continue;
        EXPECT_EQ(min_path_offset(before, nodes[i], nodes[j]),
                  min_path_offset(g, nodes[i], nodes[j]))
            << "seed " << seed;
      }
    }
  }
}

TEST(PropertyRandom, WireDisciplineHoldsAfterFullPipeline) {
  RandomProgramParams p;
  p.stmts = 12;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Cdfg g = random_program(p, seed);
    TransformScript::parse(kPaperRecipe).run(g);
    auto init = random_init(p);
    for (std::uint64_t s = 1; s <= 3; ++s) {
      TokenSimOptions o;
      o.seed = s;
      o.check_wire_discipline = true;
      auto r = run_token_sim(g, init, o);
      EXPECT_TRUE(r.error.find("wire discipline") == std::string::npos)
          << "seed " << seed << ": " << r.error;
    }
  }
}

TEST(PropertyRandom, OverlapNeverExceedsTwoIterations) {
  RandomProgramParams p;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Cdfg g = random_program(p, seed);
    TransformScript::parse(kPaperRecipe).run(g);
    auto init = random_init(p);
    init["n"] = 8;
    TokenSimOptions o;
    o.seed = seed + 1;
    auto r = run_token_sim(g, init, o);
    if (r.completed) {
      EXPECT_LE(r.max_overlap, 2) << "seed " << seed;
    }
  }
}

TEST(PropertyRandom, TransformsOnlyRemoveInterControllerArcs) {
  RandomProgramParams p;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Cdfg g = random_program(p, seed);
    std::size_t intra_before = 0;
    for (ArcId a : g.arc_ids())
      if (g.node(g.arc(a).src).fu == g.node(g.arc(a).dst).fu) ++intra_before;
    // No gt4: merging legitimately rewrites intra arcs.
    TransformScript::parse("gt1; gt2; gt3; gt5").run(g);
    std::size_t intra_after = 0;
    for (ArcId a : g.arc_ids())
      if (g.node(g.arc(a).src).fu == g.node(g.arc(a).dst).fu) ++intra_after;
    EXPECT_EQ(intra_before, intra_after) << "seed " << seed;
  }
}

}  // namespace
}  // namespace adc
