// The transform scripting language (the paper's "scripts" future work).

#include <gtest/gtest.h>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "ltrans/local.hpp"
#include "sim/token_sim.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

TEST(Script, ParsesAndRoundTrips) {
  auto s = TransformScript::parse("gt1; gt2; gt3(margin=2); gt4; gt2; gt5(broadcast=all)");
  EXPECT_EQ(s.to_string(), "gt1; gt2; gt3(margin=2); gt4; gt2; gt5(broadcast=all)");
  EXPECT_FALSE(s.has_local_step());
}

TEST(Script, PaperRecipeMatchesPipeline) {
  Cdfg via_script = diffeq();
  auto script = TransformScript::parse("gt1; gt2; gt3; gt4; gt2; gt5; lt");
  auto res = script.run(via_script);
  EXPECT_EQ(res.plan.count_controller_channels(), 5u);
  EXPECT_TRUE(script.has_local_step());
}

TEST(Script, StepsMayRepeatAndReorder) {
  Cdfg g = diffeq();
  auto script = TransformScript::parse("gt2; gt2; gt4; gt1; gt2; gt5");
  auto res = script.run(g);
  // A different order still yields a valid, correct system.
  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 6}, {"dx", 1},
                                           {"U", 3},  {"Y", 1}, {"X1", 0}, {"C", 1}};
  auto gold = run_sequential(diffeq(), init);
  auto r = run_token_sim(g, init);
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.registers, gold);
  EXPECT_LE(res.plan.count_controller_channels(), 10u);
}

TEST(Script, Gt5PolicyArguments) {
  Cdfg none = diffeq();
  TransformScript::parse("gt1; gt2; gt3; gt4; gt5(broadcast=none, no_sym)").run(none);
  Cdfg all = diffeq();
  auto res_all = TransformScript::parse("gt1; gt2; gt3; gt4; gt5(broadcast=all)").run(all);
  auto res_none = TransformScript::parse("gt5(broadcast=none, no_sym, no_mux)").run(none);
  EXPECT_LT(res_all.plan.count_controller_channels(),
            res_none.plan.count_controller_channels());
}

TEST(Script, LtOptionsParsed) {
  auto s = TransformScript::parse("gt1; lt(no_sharing, no_presel)");
  EXPECT_TRUE(s.has_local_step());
  EXPECT_FALSE(s.local_options().lt5_signal_sharing);
  EXPECT_FALSE(s.local_options().lt3_mux_preselection);
  EXPECT_TRUE(s.local_options().lt4_remove_acks);
}

TEST(Script, Gt3ArgumentsApplied) {
  // An absurd margin suppresses the timing-based removal of arc 10.
  Cdfg g = diffeq();
  TransformScript::parse("gt1; gt2; gt3(margin=100000)").run(g);
  NodeId m2a = *g.find_node_by_label("M2 := U * dx");
  NodeId a1c = *g.find_node_by_label("U := U - M1");
  EXPECT_TRUE(g.find_arc(m2a, a1c).has_value());
}

TEST(Script, EmptyScriptDerivesUnoptimizedPlan) {
  Cdfg g = diffeq();
  auto res = TransformScript::parse("").run(g);
  EXPECT_EQ(res.plan.count_all_channels(), 17u);
}

TEST(Script, RejectsMalformedInput) {
  EXPECT_THROW(TransformScript::parse("gt9"), std::invalid_argument);
  EXPECT_THROW(TransformScript::parse("gt1 gt2"), std::invalid_argument);
  EXPECT_THROW(TransformScript::parse("gt3(margin=abc)"), std::invalid_argument);
  EXPECT_THROW(TransformScript::parse("gt5(broadcast=sideways)"), std::invalid_argument);
  EXPECT_THROW(TransformScript::parse("gt3(margin"), std::invalid_argument);
  // Out of range: a sample count past int, a margin that would overflow the
  // simulated-time check.
  EXPECT_THROW(TransformScript::parse("gt3(samples=4294967296)"), std::invalid_argument);
  EXPECT_THROW(TransformScript::parse("gt3(margin=9223372036854775807)"),
               std::invalid_argument);
  EXPECT_THROW(TransformScript::parse("gt3(margin=99999999999999999999999)"),
               std::invalid_argument);
  try {
    TransformScript::parse("gt1; gt3(samples=100001)");
    ADD_FAILURE() << "samples=100001 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset 5"), std::string::npos) << e.what();
  }
  EXPECT_NO_THROW(TransformScript::parse("gt3(samples=100000, margin=1000000000)"));
  EXPECT_NO_THROW(TransformScript::parse("gt3(samples=0, margin=0000000000000000000001)"));
}

TEST(Script, FullFlowThroughScript) {
  Cdfg g = diffeq();
  auto script = TransformScript::parse("gt1; gt2; gt3; gt4; gt2; gt5; lt(no_sharing)");
  auto global = script.run(g);
  for (auto& c : extract_controllers(g, global.plan)) {
    auto lt = run_local_transforms(c, script.local_options());
    EXPECT_TRUE(lt.shared_signals.empty()) << "sharing was disabled";
  }
}

}  // namespace
}  // namespace adc
