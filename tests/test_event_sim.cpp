// Gate-level event simulation of the synthesized distributed controllers
// against the behavioural datapath — the end-to-end correctness oracle.

#include <gtest/gtest.h>

#include <limits>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "ltrans/local.hpp"
#include "sim/datapath.hpp"
#include "sim/event_sim.hpp"
#include "sim/golden.hpp"
#include "sim/token_sim.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

struct System {
  Cdfg g{"empty"};
  ChannelPlan plan;
  std::vector<ControllerInstance> instances;
};

System build(Cdfg graph, bool gt, bool lt) {
  System s;
  s.g = std::move(graph);
  if (gt) {
    auto res = TransformScript::parse(kPaperRecipe).run(s.g);
    s.plan = std::move(res.plan);
  } else {
    s.plan = ChannelPlan::derive(s.g);
  }
  for (auto& c : extract_controllers(s.g, s.plan)) {
    ControllerInstance inst;
    if (lt) inst.shared_signals = run_local_transforms(c).shared_signals;
    inst.controller = std::move(c);
    s.instances.push_back(std::move(inst));
  }
  return s;
}

std::map<std::string, std::int64_t> diffeq_init() {
  return {{"X", 0}, {"a", 6}, {"dx", 1}, {"U", 3}, {"Y", 1}, {"X1", 0}, {"C", 1}};
}

TEST(EventSim, AluComputeSemantics) {
  EXPECT_EQ(alu_compute(RtlOp::kAdd, 3, 4), 7);
  EXPECT_EQ(alu_compute(RtlOp::kSub, 3, 4), -1);
  EXPECT_EQ(alu_compute(RtlOp::kMul, 3, 4), 12);
  EXPECT_EQ(alu_compute(RtlOp::kLt, 3, 4), 1);
  EXPECT_EQ(alu_compute(RtlOp::kDiv, 8, 0), 0);
  // Overflow wraps in two's complement; INT64_MIN / -1 is defined.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(alu_compute(RtlOp::kAdd, kMax, 1), kMin);
  EXPECT_EQ(alu_compute(RtlOp::kSub, kMin, 1), kMax);
  EXPECT_EQ(alu_compute(RtlOp::kMul, kMin, -1), kMin);
  EXPECT_EQ(alu_compute(RtlOp::kDiv, kMin, -1), kMin);
  EXPECT_EQ(alu_compute(RtlOp::kDiv, 7, -1), -7);
  EXPECT_EQ(Operand::make_reg("r", 2).eval(kMax), -2) << "scaled operand wraps";
}

class EventSimVariant : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(EventSimVariant, DiffeqMatchesGoldenAcrossSeeds) {
  auto [gt, lt] = GetParam();
  System s = build(diffeq(), gt, lt);
  auto init = diffeq_init();
  auto gold = diffeq_reference_registers(init);
  for (unsigned seed = 1; seed <= 10; ++seed) {
    EventSimOptions o;
    o.seed = seed;
    auto r = run_event_sim(s.g, s.plan, s.instances, init, o);
    ASSERT_TRUE(r.completed) << "gt=" << gt << " lt=" << lt << " seed=" << seed << ": "
                             << r.error;
    EXPECT_EQ(r.registers.at("X"), gold.at("X"));
    EXPECT_EQ(r.registers.at("Y"), gold.at("Y"));
    EXPECT_EQ(r.registers.at("U"), gold.at("U"));
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, EventSimVariant,
                         ::testing::Values(std::make_pair(false, false),
                                           std::make_pair(true, false),
                                           std::make_pair(false, true),
                                           std::make_pair(true, true)));

TEST(EventSim, OptimizedSystemIsFaster) {
  auto init = diffeq_init();
  init["a"] = 12;
  EventSimOptions o;
  o.randomize_delays = false;
  System unopt = build(diffeq(), false, false);
  auto ru = run_event_sim(unopt.g, unopt.plan, unopt.instances, init, o);
  System opt = build(diffeq(), true, true);
  auto ro = run_event_sim(opt.g, opt.plan, opt.instances, init, o);
  ASSERT_TRUE(ru.completed) << ru.error;
  ASSERT_TRUE(ro.completed) << ro.error;
  EXPECT_LT(ro.finish_time, ru.finish_time)
      << "the transformed system must outperform the naive one";
}

TEST(EventSim, OperationCountMatchesIterations) {
  System s = build(diffeq(), true, true);
  auto init = diffeq_init();  // 6 iterations at a=6, dx=1 from X=0
  auto gold = diffeq_reference(DiffeqInputs{0, 1, 3, 1, 6});
  EventSimOptions o;
  auto r = run_event_sim(s.g, s.plan, s.instances, init, o);
  ASSERT_TRUE(r.completed) << r.error;
  // 7 FU operations per iteration (3 ALU1, 2 MUL1, 1 MUL2 + X/Y/C on ALU2
  // = 3) minus the merged assign: count is iterations * number of
  // operation statements executed on FUs.
  EXPECT_GE(r.operations, gold.iterations * 7);
}

TEST(EventSim, ZeroIterationRun) {
  System s = build(diffeq(), true, true);
  auto init = diffeq_init();
  init["C"] = 0;
  init["X"] = 100;  // also makes x < a false
  auto r = run_event_sim(s.g, s.plan, s.instances, init, EventSimOptions{});
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.registers.at("X"), 100);
}

TEST(EventSim, StraightLineBenchmarksRun) {
  std::map<std::string, std::int64_t> init{
      {"X0", 1}, {"X1", 2}, {"X2", 3}, {"X3", 4}, {"K0", 5}, {"K1", 6}, {"K2", 7},
      {"K3", 8}, {"IN", 9}, {"S1", 1}, {"S2", 2}, {"S3", 3}};
  for (auto make : {fir4, ewf_lite}) {
    Cdfg ref = make();
    auto gold = run_sequential(ref, init);
    System s = build(make(), true, true);
    for (unsigned seed = 1; seed <= 4; ++seed) {
      EventSimOptions o;
      o.seed = seed;
      auto r = run_event_sim(s.g, s.plan, s.instances, init, o);
      ASSERT_TRUE(r.completed) << s.g.name() << ": " << r.error;
      for (const auto& [reg, v] : gold) {
        if (r.registers.count(reg)) {
          EXPECT_EQ(r.registers.at(reg), v) << s.g.name() << " " << reg;
        }
      }
    }
  }
}

TEST(EventSim, GcdRuns) {
  Cdfg ref = gcd();
  std::map<std::string, std::int64_t> init{{"A", 21}, {"B", 14}, {"C", 1}};
  auto gold = run_sequential(ref, init);
  System s = build(gcd(), true, true);
  auto r = run_event_sim(s.g, s.plan, s.instances, init, EventSimOptions{});
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.registers.at("A"), gold.at("A"));
  EXPECT_EQ(r.registers.at("B"), gold.at("B"));
}

TEST(EventSim, MacReduceRuns) {
  Cdfg ref = mac_reduce();
  std::map<std::string, std::int64_t> init{{"X", 0}, {"K", 3}, {"T", 40},
                                           {"N", 6}, {"dx", 1}, {"S", 0}, {"C", 1}};
  auto gold = run_sequential(ref, init);
  System s = build(mac_reduce(), true, true);
  for (unsigned seed = 1; seed <= 6; ++seed) {
    EventSimOptions o;
    o.seed = seed;
    auto r = run_event_sim(s.g, s.plan, s.instances, init, o);
    ASSERT_TRUE(r.completed) << r.error;
    EXPECT_EQ(r.registers.at("S"), gold.at("S")) << "seed " << seed;
  }
}

TEST(EventSim, EventBudgetGuards) {
  System s = build(diffeq(), true, true);
  auto init = diffeq_init();
  init["a"] = 1000000;
  EventSimOptions o;
  o.max_events = 2000;
  auto r = run_event_sim(s.g, s.plan, s.instances, init, o);
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.error.empty());
}

TEST(EventSim, Lt4TimingAssumptionIsReal) {
  // LT4/LT1 bet on the latch path being faster than the done-reset and
  // wire paths.  Invert that relation in the delay model and the optimized
  // system may compute garbage — while the unoptimized (fully handshaken)
  // system must still be correct.  This documents that the paper's
  // "user-supplied timing information" is a genuine obligation.
  DelayModel broken = DelayModel::typical();
  broken.latch_write = {40, 40};  // absurdly slow register strobe path
  broken.done_reset = {1, 1};
  broken.wire = {1, 1};

  auto init = diffeq_init();
  auto gold = diffeq_reference_registers(init);

  System safe = build(diffeq(), false, false);
  bool unopt_ok = true;
  System risky = build(diffeq(), true, true);
  bool opt_ok = true;
  for (unsigned seed = 1; seed <= 6; ++seed) {
    EventSimOptions o;
    o.seed = seed;
    o.delays = broken;
    auto ru = run_event_sim(safe.g, safe.plan, safe.instances, init, o);
    unopt_ok = unopt_ok && ru.completed && ru.registers.at("U") == gold.at("U");
    auto ro = run_event_sim(risky.g, risky.plan, risky.instances, init, o);
    opt_ok = opt_ok && ro.completed && ro.registers.at("U") == gold.at("U");
  }
  EXPECT_TRUE(unopt_ok) << "the fully-acknowledged design tolerates any delays";
  EXPECT_FALSE(opt_ok) << "the relative-timing bets must visibly fail when broken";
}

TEST(EventSim, GoldenReferenceSelfCheck) {
  auto out = diffeq_reference(DiffeqInputs{0, 1, 3, 1, 3});
  // x: 0,1,2,3 -> 3 iterations.
  EXPECT_EQ(out.iterations, 3);
  EXPECT_EQ(out.x, 3);
  // Hand-computed: it1: u=3-0-3=0, y=1+3=4; it2: u=0-3*1*0-3*4=-12, y=4+0=4;
  // it3: u=-12-3*2*(-12)-3*4=48, y=4-12=-8.
  EXPECT_EQ(out.u, 48);
  EXPECT_EQ(out.y, -8);
}

}  // namespace
}  // namespace adc
