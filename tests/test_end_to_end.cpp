// Full-flow integration: raw RTL program -> scheduler -> global transforms
// -> extraction -> local transforms -> logic synthesis -> gate-level
// simulation, all stages checked.

#include <gtest/gtest.h>

#include "cdfg/validate.hpp"
#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "logic/minimize.hpp"
#include "ltrans/local.hpp"
#include "sched/scheduler.hpp"
#include "sim/event_sim.hpp"
#include "sim/golden.hpp"
#include "sim/token_sim.hpp"
#include "transforms/script.hpp"
#include "xbm/validate.hpp"

namespace adc {
namespace {

TEST(EndToEnd, DiffeqFullFlow) {
  // 1. Front end.
  Cdfg g = diffeq();
  ASSERT_TRUE(validate(g).empty());
  std::size_t arcs_before = g.live_arc_count();

  // 2. Global transforms.
  auto gres = TransformScript::parse(kPaperRecipe).run(g);
  ASSERT_TRUE(validate(g).empty());
  EXPECT_LT(g.live_arc_count(), arcs_before);
  EXPECT_EQ(gres.plan.count_controller_channels(), 5u);

  // 3. Extraction + local transforms.
  std::vector<ControllerInstance> instances;
  std::size_t total_states = 0;
  for (auto& c : extract_controllers(g, gres.plan)) {
    ASSERT_TRUE(validate(c.machine).empty());
    ControllerInstance inst;
    inst.shared_signals = run_local_transforms(c).shared_signals;
    ASSERT_TRUE(validate(c.machine).empty());
    total_states += c.machine.state_count();
    inst.controller = std::move(c);
    instances.push_back(std::move(inst));
  }
  EXPECT_LE(total_states, 30u) << "paper row 3 totals 28 states across 4 machines";

  // 4. Logic synthesis.
  for (const auto& inst : instances) {
    auto lr = synthesize_logic(inst.controller);
    EXPECT_TRUE(lr.feasible()) << inst.controller.machine.name();
  }

  // 5. Gate-level simulation against the independent golden model.
  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 8}, {"dx", 1},
                                           {"U", 3},  {"Y", 1}, {"X1", 0}, {"C", 1}};
  auto gold = diffeq_reference_registers(init);
  for (unsigned seed = 1; seed <= 6; ++seed) {
    EventSimOptions o;
    o.seed = seed;
    auto r = run_event_sim(g, gres.plan, instances, init, o);
    ASSERT_TRUE(r.completed) << r.error;
    EXPECT_EQ(r.registers.at("X"), gold.at("X"));
    EXPECT_EQ(r.registers.at("Y"), gold.at("Y"));
    EXPECT_EQ(r.registers.at("U"), gold.at("U"));
  }
}

TEST(EndToEnd, HlsFrontEndToGateLevel) {
  // From raw statements through the scheduler substrate to gates.
  HlsProgram p;
  p.name = "hls_e2e";
  p.loop_cond = "C";
  for (const char* t : {"M1 := U * X1", "A := Y + M1", "U := U - A", "X := X + dx",
                        "Y := Y + A", "X1 := X", "C := X < a"})
    p.loop_body.push_back(parse_rtl(t));
  Cdfg g = schedule_and_bind(p, Resources{2, 1, 1, 2});
  ASSERT_TRUE(validate(g).empty());

  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 5}, {"dx", 1},
                                           {"U", 9},  {"Y", 2}, {"X1", 0}, {"C", 1}};
  auto gold = run_sequential(g, init);

  auto gres = TransformScript::parse(kPaperRecipe).run(g);
  std::vector<ControllerInstance> instances;
  for (auto& c : extract_controllers(g, gres.plan)) {
    ControllerInstance inst;
    inst.shared_signals = run_local_transforms(c).shared_signals;
    inst.controller = std::move(c);
    instances.push_back(std::move(inst));
  }
  auto r = run_event_sim(g, gres.plan, instances, init, EventSimOptions{});
  ASSERT_TRUE(r.completed) << r.error;
  for (const auto& [reg, v] : gold) {
    if (r.registers.count(reg)) {
      EXPECT_EQ(r.registers.at(reg), v) << reg;
    }
  }
}

TEST(EndToEnd, TokenAndEventSimulatorsAgree) {
  // Two independently-built simulators at different abstraction levels must
  // compute identical results for the same transformed system.
  Cdfg g = diffeq();
  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 7}, {"dx", 1},
                                           {"U", 4},  {"Y", 2}, {"X1", 0}, {"C", 1}};
  auto gres = TransformScript::parse(kPaperRecipe).run(g);
  auto token = run_token_sim(g, init);
  ASSERT_TRUE(token.completed) << token.error;

  std::vector<ControllerInstance> instances;
  for (auto& c : extract_controllers(g, gres.plan)) {
    ControllerInstance inst;
    inst.shared_signals = run_local_transforms(c).shared_signals;
    inst.controller = std::move(c);
    instances.push_back(std::move(inst));
  }
  auto event = run_event_sim(g, gres.plan, instances, init, EventSimOptions{});
  ASSERT_TRUE(event.completed) << event.error;
  for (const char* reg : {"X", "Y", "U", "M1", "M2", "A", "B", "C", "X1"})
    EXPECT_EQ(event.registers.at(reg), token.registers.at(reg)) << reg;
}

TEST(EndToEnd, AblationMatrixAllCorrect) {
  // Every combination of GT on/off and LT on/off must produce a working
  // system — the transforms are independent safety-preserving layers.
  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 5}, {"dx", 1},
                                           {"U", 3},  {"Y", 1}, {"X1", 0}, {"C", 1}};
  auto gold = diffeq_reference_registers(init);
  for (bool gt : {false, true}) {
    for (bool lt : {false, true}) {
      Cdfg g = diffeq();
      ChannelPlan plan;
      if (gt) {
        auto res = TransformScript::parse(kPaperRecipe).run(g);
        plan = std::move(res.plan);
      } else {
        plan = ChannelPlan::derive(g);
      }
      std::vector<ControllerInstance> instances;
      for (auto& c : extract_controllers(g, plan)) {
        ControllerInstance inst;
        if (lt) inst.shared_signals = run_local_transforms(c).shared_signals;
        inst.controller = std::move(c);
        instances.push_back(std::move(inst));
      }
      auto r = run_event_sim(g, plan, instances, init, EventSimOptions{});
      ASSERT_TRUE(r.completed) << "gt=" << gt << " lt=" << lt << ": " << r.error;
      EXPECT_EQ(r.registers.at("U"), gold.at("U")) << "gt=" << gt << " lt=" << lt;
    }
  }
}

}  // namespace
}  // namespace adc
