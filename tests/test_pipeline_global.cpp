// The scripted global pipeline: stage composition, ablations, and the
// paper's end-to-end channel numbers.

#include <gtest/gtest.h>

#include "cdfg/validate.hpp"
#include "frontend/benchmarks.hpp"
#include "sim/token_sim.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

TEST(GlobalPipeline, DiffeqChannelReductionSeventeenToFive) {
  Cdfg g = diffeq();
  auto unopt = ChannelPlan::derive(g);
  EXPECT_EQ(unopt.count_all_channels(), 17u) << "paper Figure 12, unoptimized";

  auto res = TransformScript::parse(kPaperRecipe).run(g);
  EXPECT_EQ(res.plan.count_controller_channels(), 5u) << "paper Figure 12, optimized-GT";
  EXPECT_TRUE(validate(g).empty());
}

TEST(GlobalPipeline, StagesRunInOrder) {
  Cdfg g = diffeq();
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  ASSERT_EQ(res.stages.size(), 6u);
  EXPECT_NE(res.stages[0].name.find("GT1"), std::string::npos);
  EXPECT_NE(res.stages[1].name.find("GT2"), std::string::npos);
  EXPECT_NE(res.stages[2].name.find("GT3"), std::string::npos);
  EXPECT_NE(res.stages[3].name.find("GT4"), std::string::npos);
  EXPECT_NE(res.stages[5].name.find("GT5"), std::string::npos);
}

TEST(GlobalPipeline, AblationWithoutGt1KeepsEndloopSync) {
  Cdfg g = diffeq();
  TransformScript::parse("gt2; gt3; gt4; gt2; gt5").run(g);
  // Some barrier arc into ENDLOOP from another unit survives, and with it
  // the full synchronization: iterations can never overlap.
  NodeId endloop = *g.find_unique(NodeKind::kEndLoop);
  EXPECT_GT(g.in_arcs(endloop).size(), 1u);
  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 20}, {"dx", 1},
                                           {"U", 2},  {"Y", 1}, {"X1", 0}, {"C", 1}};
  for (unsigned seed = 1; seed <= 6; ++seed) {
    TokenSimOptions o;
    o.seed = seed;
    auto r = run_token_sim(g, init, o);
    ASSERT_TRUE(r.completed) << r.error;
    EXPECT_EQ(r.max_overlap, 1) << "without GT1 the barrier forbids overlap";
  }
}

TEST(GlobalPipeline, AblationWithoutGt5KeepsOneWirePerArc) {
  Cdfg g = diffeq();
  auto res = TransformScript::parse("gt1; gt2; gt3; gt4; gt2").run(g);
  EXPECT_EQ(res.plan.count_controller_channels(), 10u);
  EXPECT_EQ(res.plan.count_multiway(), 0u);
}

TEST(GlobalPipeline, EveryStagePreservesSemantics) {
  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 11}, {"dx", 1},
                                           {"U", 2},  {"Y", 1}, {"X1", 0}, {"C", 1}};
  auto gold = run_sequential(diffeq(), init);
  // The paper's recipe cut after each of its transforms.
  const char* prefixes[] = {"gt1", "gt1; gt2", "gt1; gt2; gt3", "gt1; gt2; gt3; gt4; gt2",
                            "gt1; gt2; gt3; gt4; gt2; gt5"};
  for (int stage = 0; stage < 5; ++stage) {
    Cdfg g = diffeq();
    TransformScript::parse(prefixes[stage]).run(g);
    for (unsigned seed = 1; seed <= 5; ++seed) {
      TokenSimOptions o;
      o.seed = seed;
      auto r = run_token_sim(g, init, o);
      EXPECT_TRUE(r.completed) << "stage " << stage << ": " << r.error;
      EXPECT_EQ(r.registers, gold) << "stage " << stage << " seed " << seed;
    }
  }
}

TEST(GlobalPipeline, AllBenchmarksStayValidAndCorrect) {
  struct Case {
    Cdfg (*make)();
    std::map<std::string, std::int64_t> init;
  };
  std::vector<Case> cases = {
      {diffeq, {{"X", 0}, {"a", 6}, {"dx", 1}, {"U", 3}, {"Y", 1}, {"X1", 0}, {"C", 1}}},
      {gcd, {{"A", 21}, {"B", 14}, {"C", 1}}},
      {fir4,
       {{"X0", 1}, {"X1", 2}, {"X2", 3}, {"X3", 4}, {"K0", 5}, {"K1", 6}, {"K2", 7},
        {"K3", 8}}},
      {mac_reduce,
       {{"X", 0}, {"K", 3}, {"T", 40}, {"N", 6}, {"dx", 1}, {"S", 0}, {"C", 1}}},
      {ewf_lite, {{"IN", 9}, {"S1", 1}, {"S2", 2}, {"S3", 3}, {"K1", 2}, {"K2", 3}, {"K3", 4}}},
  };
  for (auto& c : cases) {
    Cdfg ref = c.make();
    auto gold = run_sequential(ref, c.init);
    Cdfg g = c.make();
    auto res = TransformScript::parse(kPaperRecipe).run(g);
    EXPECT_TRUE(validate(g).empty()) << g.name();
    EXPECT_TRUE(res.plan.validate(g).empty()) << g.name();
    for (unsigned seed = 1; seed <= 5; ++seed) {
      TokenSimOptions o;
      o.seed = seed;
      auto r = run_token_sim(g, c.init, o);
      EXPECT_TRUE(r.completed) << g.name() << ": " << r.error;
      EXPECT_EQ(r.registers, gold) << g.name() << " seed " << seed;
    }
  }
}

TEST(GlobalPipeline, ChannelCountsNeverIncrease) {
  for (auto make : {diffeq, gcd, fir4, mac_reduce, ewf_lite}) {
    Cdfg g = make();
    std::size_t before = ChannelPlan::derive(g).count_controller_channels();
    auto res = TransformScript::parse(kPaperRecipe).run(g);
    EXPECT_LE(res.plan.count_controller_channels(), before) << g.name();
  }
}

TEST(GlobalPipeline, TotalsAggregateAcrossStages) {
  Cdfg g = diffeq();
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  EXPECT_GT(res.total_arcs_removed(), 0);
  EXPECT_GT(res.total_arcs_added(), 0);
}

}  // namespace
}  // namespace adc
