// GT5 channel elimination (§3.5): multiplexing, multi-way broadcast
// formation, symmetrization (incl. the Figure 7/8/9 mechanics) and the
// paper's 10 -> 5 result for DIFFEQ.

#include <gtest/gtest.h>

#include "frontend/benchmarks.hpp"
#include "frontend/builder.hpp"
#include "sim/token_sim.hpp"
#include "transforms/global.hpp"
#include "transforms/gt5.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

Cdfg diffeq_pre_gt5() {
  Cdfg g = diffeq();
  gt1_loop_parallelism(g);
  gt2_remove_dominated(g);
  gt3_relative_timing(g, DelayModel::typical());
  gt4_merge_assignments(g);
  gt2_remove_dominated(g);
  return g;
}

TEST(Gt5, TenChannelsBeforeEliminationAsInFigure5) {
  Cdfg g = diffeq_pre_gt5();
  auto plan = ChannelPlan::derive(g);
  EXPECT_EQ(plan.count_controller_channels(), 10u) << "Figure 5 left side";
}

TEST(Gt5, FiveChannelsAfterEliminationAsInFigure5) {
  Cdfg g = diffeq_pre_gt5();
  auto res = gt5_channel_elimination(g);
  EXPECT_EQ(res.plan.count_controller_channels(), 5u) << "Figure 5 right side";
  EXPECT_EQ(res.plan.count_multiway(), 2u) << "two multi-way channels";
  EXPECT_TRUE(res.plan.validate(g).empty());
}

TEST(Gt5, FinalChannelStructureMatchesThePaper) {
  Cdfg g = diffeq_pre_gt5();
  auto res = gt5_channel_elimination(g);
  int loop_broadcast = 0, alu1_multiway = 0, mul1_to_alu1_mux = 0;
  for (const auto& c : res.plan.channels()) {
    if (c.involves_environment()) continue;
    std::string d = describe(c, g);
    if (d == "ALU2 -> {ALU1,MUL1,MUL2} events=1") ++loop_broadcast;
    if (d == "ALU1 -> {MUL1,MUL2} events=2") ++alu1_multiway;
    if (d == "MUL1 -> {ALU1} events=2") ++mul1_to_alu1_mux;
  }
  EXPECT_EQ(loop_broadcast, 1) << "the LOOP request broadcast";
  EXPECT_EQ(alu1_multiway, 1) << "symmetrized A1b/A1c channel";
  EXPECT_EQ(mul1_to_alu1_mux, 1) << "multiplexed M1a/M1b dones";
}

TEST(Gt5, SymmetrizationAddsOnlyImpliedArcs) {
  Cdfg g = diffeq_pre_gt5();
  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 9}, {"dx", 1},
                                           {"U", 2},  {"Y", 1}, {"X1", 0}, {"C", 1}};
  auto gold = run_sequential(diffeq(), init);
  gt5_channel_elimination(g);
  // The added GT5.3 arc must not change behaviour (it was implied).
  for (unsigned seed = 1; seed <= 10; ++seed) {
    TokenSimOptions o;
    o.seed = seed;
    auto r = run_token_sim(g, init, o);
    EXPECT_TRUE(r.completed) << r.error;
    EXPECT_EQ(r.registers, gold);
  }
}

TEST(Gt5, MultiplexingFigure7Mechanics) {
  // Two channels ALU1 -> MUL1 from sequentially-ordered sources share one
  // wire; two channels MUL1 -> ALU1 likewise: four channels become two.
  ProgramBuilder b("fig7");
  FuId alu = b.fu("ALU1", "alu");
  FuId mul = b.fu("MUL1", "mul");
  b.stmt(alu, "a1 := p + q");
  b.stmt(mul, "m1 := a1 * p");
  b.stmt(alu, "a2 := m1 + q");
  b.stmt(mul, "m2 := a2 * p");
  b.stmt(alu, "z := m2 + q");
  Cdfg g = b.finish();
  auto before = ChannelPlan::derive(g);
  ASSERT_EQ(before.count_controller_channels(), 4u);
  auto res = gt5_channel_elimination(g);
  EXPECT_EQ(res.plan.count_controller_channels(), 2u);
  for (const auto& c : res.plan.channels()) {
    if (c.involves_environment()) continue;
    EXPECT_EQ(c.events.size(), 2u) << describe(c, g);
  }
}

TEST(Gt5, MultiplexRejectsOutOfOrderConsumption) {
  // Receiver waits the two events in the OPPOSITE order of emission: the
  // consumption-key check must reject sharing.
  Cdfg g("bad");
  FuId alu = g.add_fu("ALU1", "alu");
  FuId mul = g.add_fu("MUL1", "mul");
  NodeId a1 = g.add_node(NodeKind::kOperation, alu, {parse_rtl("x := p + q")});
  NodeId a2 = g.add_node(NodeKind::kOperation, alu, {parse_rtl("y := p - q")});
  NodeId m1 = g.add_node(NodeKind::kOperation, mul, {parse_rtl("u := y * p")});
  NodeId m2 = g.add_node(NodeKind::kOperation, mul, {parse_rtl("v := x * p")});
  g.set_fu_order(alu, {a1, a2});
  g.set_fu_order(mul, {m1, m2});
  g.add_arc(a1, a2, ArcRole::kScheduling);
  g.add_arc(m1, m2, ArcRole::kScheduling);
  ArcId x_arc = g.add_arc(a1, m2, ArcRole::kDataDep, false, "x");  // 1st emitted, 2nd consumed
  ArcId y_arc = g.add_arc(a2, m1, ArcRole::kDataDep, false, "y");  // 2nd emitted, 1st consumed
  (void)x_arc;
  (void)y_arc;
  ChannelPlan plan = ChannelPlan::derive(g);
  ASSERT_EQ(plan.channels().size(), 2u);
  EXPECT_FALSE(try_multiplex(g, plan, 0, 1))
      << "emission order a1,a2 but consumption order y(x later) is inconsistent";
}

TEST(Gt5, SameSourcePolicyKFirstTargetsIsConservative) {
  Cdfg g = diffeq_pre_gt5();
  Gt5Options aggressive;
  aggressive.same_source = Gt5Options::SameSource::kAll;
  Cdfg g2 = g.clone();
  auto conservative = gt5_channel_elimination(g);
  auto all = gt5_channel_elimination(g2, aggressive);
  EXPECT_LE(all.plan.count_controller_channels(),
            conservative.plan.count_controller_channels());
}

TEST(Gt5, NoneModeKeepsOneWirePerArc) {
  Cdfg g = diffeq_pre_gt5();
  Gt5Options off;
  off.same_source = Gt5Options::SameSource::kNone;
  off.multiplex = false;
  off.symmetrize = false;
  auto res = gt5_channel_elimination(g, off);
  EXPECT_EQ(res.plan.count_controller_channels(), 10u);
}

TEST(Gt5, ConcurrencyReductionFigure8Mechanics) {
  // Direct ALU1 -> ALU2 constraint rerouted through the MUL1 hub, merging
  // with the existing MUL1 -> ALU2 channel.
  ProgramBuilder b("fig8");
  FuId alu1 = b.fu("ALU1", "alu");
  FuId mul = b.fu("MUL1", "mul");
  FuId alu2 = b.fu("ALU2", "alu");
  b.stmt(alu1, "a := p + q");
  b.stmt(mul, "m := a * p");     // ALU1 -> MUL1 (the "existing arc 3")
  b.stmt(alu2, "z1 := m + q");   // MUL1 -> ALU2 ("arc 1")
  b.stmt(alu2, "z2 := z1 + a");  // ALU1 -> ALU2: the direct channel (4old)
  Cdfg g = b.finish();
  NodeId an = *g.find_node_by_label("a := p + q");
  NodeId zn = *g.find_node_by_label("z2 := z1 + a");
  ArcId direct = *g.find_arc(an, zn);

  ChannelPlan plan = ChannelPlan::derive(g);
  std::size_t before = plan.count_controller_channels();
  Gt5Options opts;
  opts.max_period_increase = 1000;  // allow the serialization
  TransformResult stats;
  bool ok = try_concurrency_reduction(g, plan, direct, opts, &stats);
  EXPECT_TRUE(ok);
  EXPECT_EQ(plan.count_controller_channels(), before - 1);
  EXPECT_FALSE(g.arc(direct).alive);
  EXPECT_TRUE(plan.validate(g).empty());

  // Behaviour must be unchanged (the chain implies the old constraint).
  std::map<std::string, std::int64_t> init{{"p", 2}, {"q", 3}};
  auto r = run_token_sim(g, init);
  EXPECT_TRUE(r.completed) << r.error;
  // a = 5, m = 10, z1 = 13, z2 = 18.
  EXPECT_EQ(r.registers.at("z2"), 18);
}

TEST(Gt5, SymmetrizationFigure9Mechanics) {
  // Figure 9: set {1,2} = a's dones to MUL1 and MUL2, set {3} = b's done to
  // MUL1 only.  Symmetrization adds the safe arc 4 (b -> some MUL2 node,
  // already implied), turns both sets into multi-way channels and
  // multiplexes them into ONE wire ALU1 -> {MUL1, MUL2}.
  ProgramBuilder builder("fig9");
  FuId alu = builder.fu("ALU1", "alu");
  FuId mul1 = builder.fu("MUL1", "mul");
  FuId mul2 = builder.fu("MUL2", "mul");
  builder.stmt(alu, "a := p + q");
  builder.stmt(mul1, "u := a * p");   // arc 1: a -> MUL1
  builder.stmt(mul2, "v := a * q");   // arc 2: a -> MUL2
  builder.stmt(alu, "b := a + v");
  builder.stmt(mul1, "w := b * u");   // arc 3: b -> MUL1
  builder.stmt(mul2, "z := v * w");   // MUL1 -> MUL2 dep; makes b -> MUL2 implied
  Cdfg g = builder.finish();

  Gt5Options opts;
  opts.same_source = Gt5Options::SameSource::kAll;  // form a's broadcast
  auto res = gt5_channel_elimination(g, opts);
  // One ALU1 -> {MUL1, MUL2} multi-way channel carrying both a's and b's
  // events.
  int alu_to_both = 0;
  for (const auto& c : res.plan.channels()) {
    if (c.involves_environment()) continue;
    if (g.fu(c.src_fu).name == "ALU1" && c.receivers.size() == 2 &&
        c.events.size() == 2)
      ++alu_to_both;
  }
  EXPECT_EQ(alu_to_both, 1) << "the pair of multi-way channels was multiplexed";
  EXPECT_TRUE(res.plan.validate(g).empty());

  // The added arc must have been safe: behaviour unchanged.
  std::map<std::string, std::int64_t> init{{"p", 2}, {"q", 3}};
  auto gold = run_sequential(g, init);  // post-transform graph, same semantics
  auto r = run_token_sim(g, init);
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.registers, gold);
}

TEST(Gt5, PlanValidatesOnAllBenchmarks) {
  for (auto make : {diffeq, gcd, fir4, mac_reduce, ewf_lite}) {
    Cdfg g = make();
    auto res = TransformScript::parse(kPaperRecipe).run(g);
    EXPECT_TRUE(res.plan.validate(g).empty()) << g.name();
  }
}

}  // namespace
}  // namespace adc
