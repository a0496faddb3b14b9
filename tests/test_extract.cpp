// Controller extraction (§4): fragment structure, ring assembly, the
// Figure 11 micro-operation protocol, back-annotation, and the paper's
// Figure 12 state counts.

#include <gtest/gtest.h>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "transforms/script.hpp"
#include "xbm/print.hpp"
#include "xbm/validate.hpp"

namespace adc {
namespace {

const ExtractedController& by_name(const std::vector<ExtractedController>& cs,
                                   const Cdfg& g, const char* name) {
  for (const auto& c : cs)
    if (g.fu(c.fu).name == name) return c;
  throw std::runtime_error("controller not found");
}

TEST(Extract, AllControllersValidate) {
  for (auto make : {diffeq, gcd, fir4, mac_reduce, ewf_lite}) {
    Cdfg g = make();
    auto plan = ChannelPlan::derive(g);
    for (auto& c : extract_controllers(g, plan))
      EXPECT_TRUE(validate(c.machine).empty()) << g.name() << "/" << c.machine.name();
  }
}

TEST(Extract, OptimizedControllersValidate) {
  for (auto make : {diffeq, gcd, fir4, mac_reduce, ewf_lite}) {
    Cdfg g = make();
    auto res = TransformScript::parse(kPaperRecipe).run(g);
    for (auto& c : extract_controllers(g, res.plan))
      EXPECT_TRUE(validate(c.machine).empty()) << g.name() << "/" << c.machine.name();
  }
}

TEST(Extract, UnoptimizedDiffeqStateCountsNearPaper) {
  // Paper Figure 12, row "unoptimized": 26/29 45/52 21/24 12/14.  Our
  // sequential expansion reproduces the shape: ALU2 largest, MUL2 smallest.
  Cdfg g = diffeq();
  auto plan = ChannelPlan::derive(g);
  auto cs = extract_controllers(g, plan);
  auto states = [&](const char* n) { return by_name(cs, g, n).machine.state_count(); };
  EXPECT_EQ(states("ALU1"), 26u);
  EXPECT_GE(states("ALU2"), 28u);
  EXPECT_GE(states("MUL1"), 12u);
  EXPECT_GE(states("MUL2"), 6u);
  EXPECT_GT(states("ALU2"), states("ALU1"));
  EXPECT_GT(states("ALU1"), states("MUL1"));
  EXPECT_GT(states("MUL1"), states("MUL2"));
}

TEST(Extract, GtReducesAlu2Controller) {
  Cdfg g0 = diffeq();
  auto plan0 = ChannelPlan::derive(g0);
  auto before = extract_controllers(g0, plan0);

  Cdfg g1 = diffeq();
  auto res = TransformScript::parse(kPaperRecipe).run(g1);
  auto after = extract_controllers(g1, res.plan);

  EXPECT_LT(by_name(after, g1, "ALU2").machine.state_count(),
            by_name(before, g0, "ALU2").machine.state_count());
}

TEST(Extract, Figure11MicroOperationSequence) {
  // The A := Y + M1 fragment: wait request / set muxes / select op / go /
  // set register mux / write / parallel reset / send dones.
  Cdfg g = diffeq();
  auto plan = ChannelPlan::derive(g);
  auto cs = extract_controllers(g, plan);
  const auto& alu1 = by_name(cs, g, "ALU1");
  std::string text = to_text(alu1.machine);
  EXPECT_NE(text.find("selL_Y+"), std::string::npos);
  EXPECT_NE(text.find("selR_M1+"), std::string::npos);
  EXPECT_NE(text.find("op_add+"), std::string::npos);
  EXPECT_NE(text.find("go+"), std::string::npos);
  EXPECT_NE(text.find("rsel_A+"), std::string::npos);
  EXPECT_NE(text.find("lat_A+"), std::string::npos);
  // The parallel reset of Figure 11 step (v):
  EXPECT_NE(text.find("selL_Y- selR_M1- op_add- go- rsel_A- lat_A-"), std::string::npos);
}

TEST(Extract, SignalRolesAreBound) {
  Cdfg g = diffeq();
  auto plan = ChannelPlan::derive(g);
  auto cs = extract_controllers(g, plan);
  const auto& alu1 = by_name(cs, g, "ALU1");
  int global = 0, sel = 0, latch = 0, fugo = 0;
  for (const auto& [sid, b] : alu1.bindings) {
    (void)sid;
    if (b.role == SignalRole::kGlobalReady || b.role == SignalRole::kEnvironment) ++global;
    if (b.role == SignalRole::kMuxSelect) ++sel;
    if (b.role == SignalRole::kLatch) ++latch;
    if (b.role == SignalRole::kFuGo) ++fugo;
  }
  EXPECT_GE(global, 4);
  EXPECT_GE(sel, 4);
  EXPECT_EQ(latch, 3) << "B, A, U";
  EXPECT_EQ(fugo, 1);
}

TEST(Extract, MultiOpUnitsGetOpSelects) {
  Cdfg g = diffeq();
  auto plan = ChannelPlan::derive(g);
  auto cs = extract_controllers(g, plan);
  EXPECT_TRUE(by_name(cs, g, "ALU1").machine.find_signal("op_add").has_value());
  EXPECT_TRUE(by_name(cs, g, "ALU1").machine.find_signal("op_sub").has_value());
  // Multipliers execute a single operation: no op-select wires.
  EXPECT_FALSE(by_name(cs, g, "MUL1").machine.find_signal("op_mul").has_value());
  EXPECT_FALSE(by_name(cs, g, "MUL1").machine.find_signal("opack").has_value());
}

TEST(Extract, LoopControllerHasIdleAndConditionals) {
  Cdfg g = diffeq();
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  auto cs = extract_controllers(g, res.plan);
  const auto& alu2 = by_name(cs, g, "ALU2");
  ASSERT_TRUE(alu2.machine.find_signal("c_C").has_value());
  bool has_taken = false, has_exit = false;
  for (TransitionId t : alu2.machine.transition_ids()) {
    for (const auto& c : alu2.machine.transition(t).conds) {
      if (c.value) has_taken = true;
      if (!c.value) has_exit = true;
    }
  }
  EXPECT_TRUE(has_taken);
  EXPECT_TRUE(has_exit);
}

TEST(Extract, BackwardArcWaitsAtRingTail) {
  // Post-GT MUL2 waits the ALU1 multi-way wire (both events) at the end of
  // its cycle: pre-enabled on the first iteration.
  Cdfg g = diffeq();
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  auto cs = extract_controllers(g, res.plan);
  const auto& mul2 = by_name(cs, g, "MUL2");
  std::string text = to_text(mul2.machine);
  EXPECT_NE(text.find("backward-arc wait"), std::string::npos);
}

TEST(Extract, BackAnnotationAddsDirectedDontCares) {
  Cdfg g = diffeq();
  auto plan = ChannelPlan::derive(g);
  ExtractOptions with, without;
  without.back_annotate = false;
  auto annotated = extract_controller(g, plan, *g.find_fu("ALU1"), with);
  auto bare = extract_controller(g, plan, *g.find_fu("ALU1"), without);
  auto count_ddc = [](const Xbm& m) {
    std::size_t n = 0;
    for (TransitionId t : m.transition_ids())
      for (const auto& e : m.transition(t).inputs)
        if (e.directed_dont_care) ++n;
    return n;
  };
  EXPECT_GT(count_ddc(annotated.machine), 0u);
  EXPECT_EQ(count_ddc(bare.machine), 0u);
  EXPECT_TRUE(validate(annotated.machine).empty());
  EXPECT_TRUE(validate(bare.machine).empty());
}

TEST(Extract, DdcWindowsEndAtCompulsoryConsumption) {
  Cdfg g = diffeq();
  auto plan = ChannelPlan::derive(g);
  auto cs = extract_controllers(g, plan);
  for (const auto& c : cs) {
    const Xbm& m = c.machine;
    for (TransitionId tid : m.transition_ids()) {
      std::set<SignalId::underlying> seen;
      for (const auto& e : m.transition(tid).inputs)
        EXPECT_TRUE(seen.insert(e.signal.value()).second)
            << m.name() << ": signal twice in one burst";
    }
  }
}

TEST(Extract, IfControllersBranchAndJoin) {
  Cdfg g = gcd();
  auto plan = ChannelPlan::derive(g);
  auto cs = extract_controllers(g, plan);
  const auto& alu1 = by_name(cs, g, "ALU1");
  EXPECT_TRUE(validate(alu1.machine).empty());
  // Two IF blocks: conditionals on D and E.
  EXPECT_TRUE(alu1.machine.find_signal("c_D").has_value());
  EXPECT_TRUE(alu1.machine.find_signal("c_E").has_value());
}

}  // namespace
}  // namespace adc
