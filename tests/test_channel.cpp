// Channel plan derivation, queries, wire naming.

#include <gtest/gtest.h>

#include "channel/naming.hpp"
#include "frontend/benchmarks.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

TEST(Channel, DeriveOneChannelPerInterControllerArc) {
  Cdfg g = diffeq();
  auto plan = ChannelPlan::derive(g);
  std::size_t inter = 0;
  for (ArcId a : g.arc_ids())
    if (g.node(g.arc(a).src).fu != g.node(g.arc(a).dst).fu) ++inter;
  EXPECT_EQ(plan.count_all_channels(), inter);
  EXPECT_TRUE(plan.validate(g).empty());
}

TEST(Channel, EnvironmentChannelsSeparated) {
  Cdfg g = diffeq();
  auto plan = ChannelPlan::derive(g);
  EXPECT_EQ(plan.count_all_channels() - plan.count_controller_channels(), 2u)
      << "START->LOOP and LOOP->END";
}

TEST(Channel, ChannelOfFindsCarrier) {
  Cdfg g = diffeq();
  auto plan = ChannelPlan::derive(g);
  for (ArcId a : g.arc_ids()) {
    bool inter = g.node(g.arc(a).src).fu != g.node(g.arc(a).dst).fu;
    EXPECT_EQ(plan.channel_of(a).has_value(), inter);
  }
}

TEST(Channel, InputsAndOutputsOfFu) {
  Cdfg g = diffeq();
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  FuId mul2 = *g.find_fu("MUL2");
  auto in = res.plan.inputs_of(mul2);
  auto out = res.plan.outputs_of(mul2);
  EXPECT_EQ(in.size(), 2u) << "LOOP broadcast + ALU1 multi-way";
  EXPECT_EQ(out.size(), 1u) << "M2 result to ALU2";
}

TEST(Channel, WireNamesAreUniqueAndDescriptive) {
  Cdfg g = diffeq();
  auto plan = ChannelPlan::derive(g);
  std::set<std::string> names;
  for (const auto& c : plan.channels()) {
    EXPECT_TRUE(names.insert(c.wire).second) << "duplicate wire " << c.wire;
    EXPECT_EQ(c.wire.rfind("rdy_", 0), 0u) << c.wire;
  }
}

TEST(Channel, ShortNamesAbbreviateFus) {
  Cdfg g = diffeq();
  EXPECT_EQ(abbreviate_fu(g, *g.find_fu("ALU1")), "A1");
  EXPECT_EQ(abbreviate_fu(g, *g.find_fu("MUL2")), "M2");
  EXPECT_EQ(abbreviate_fu(g, FuId::invalid()), "ENV");
  auto plan = ChannelPlan::derive(g);
  for (const auto& c : plan.channels()) {
    std::string s = short_wire_name(g, c);
    EXPECT_FALSE(s.empty());
  }
}

TEST(Channel, MultiwayDescribe) {
  Cdfg g = diffeq();
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  bool saw_multiway = false;
  for (const auto& c : res.plan.channels()) {
    if (!c.multiway()) continue;
    saw_multiway = true;
    EXPECT_GE(c.receivers.size(), 2u);
    std::string d = describe(c, g);
    EXPECT_NE(d.find(","), std::string::npos) << d;
  }
  EXPECT_TRUE(saw_multiway);
}

TEST(Channel, ValidateCatchesDanglingArcs) {
  Cdfg g = diffeq();
  auto plan = ChannelPlan::derive(g);
  // Kill an arc the plan still references.
  for (ArcId a : g.arc_ids()) {
    if (g.node(g.arc(a).src).fu != g.node(g.arc(a).dst).fu) {
      g.remove_arc(a);
      break;
    }
  }
  EXPECT_FALSE(plan.validate(g).empty());
}

TEST(Channel, ArcCountAggregatesEvents) {
  Cdfg g = diffeq();
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  for (const auto& c : res.plan.channels()) {
    std::size_t n = 0;
    for (const auto& e : c.events) n += e.arcs.size();
    EXPECT_EQ(c.arc_count(), n);
  }
}

}  // namespace
}  // namespace adc
