// Determinism regression tests.  The event simulator's randomized delays
// are driven entirely by EventSimOptions::seed — two runs with the same
// seed must agree event for event, so DSE reports are reproducible and
// cached flow points are indistinguishable from recomputed ones.

#include <gtest/gtest.h>

#include "frontend/benchmarks.hpp"
#include "ltrans/local.hpp"
#include "runtime/flow.hpp"
#include "sim/event_sim.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

struct System {
  Cdfg g{"empty"};
  ChannelPlan plan;
  std::vector<ControllerInstance> instances;
};

System build_mac() {
  System s;
  s.g = mac_reduce();
  auto res = TransformScript::parse(kPaperRecipe).run(s.g);
  s.plan = std::move(res.plan);
  for (auto& c : extract_controllers(s.g, s.plan)) {
    ControllerInstance inst;
    inst.shared_signals = run_local_transforms(c).shared_signals;
    inst.controller = std::move(c);
    s.instances.push_back(std::move(inst));
  }
  return s;
}

std::map<std::string, std::int64_t> mac_init() {
  return {{"X", 0}, {"K", 3}, {"T", 40}, {"N", 6}, {"dx", 1}, {"S", 0}, {"C", 1}};
}

TEST(Determinism, SameSeedSameTrace) {
  System s = build_mac();
  EventSimOptions opts;
  opts.seed = 12345;
  opts.randomize_delays = true;
  EventSimResult a = run_event_sim(s.g, s.plan, s.instances, mac_init(), opts);
  EventSimResult b = run_event_sim(s.g, s.plan, s.instances, mac_init(), opts);
  ASSERT_TRUE(a.completed) << a.error;
  ASSERT_TRUE(b.completed) << b.error;
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.operations, b.operations);
  EXPECT_EQ(a.registers, b.registers);
}

TEST(Determinism, DifferentSeedsStillConverge) {
  // Different seeds reorder concurrent events (different finish times are
  // expected and fine) but the final register file — the program's result —
  // must not depend on the delay draw.
  System s = build_mac();
  EventSimOptions a_opts, b_opts;
  a_opts.seed = 1;
  b_opts.seed = 99;
  EventSimResult a = run_event_sim(s.g, s.plan, s.instances, mac_init(), a_opts);
  EventSimResult b = run_event_sim(s.g, s.plan, s.instances, mac_init(), b_opts);
  ASSERT_TRUE(a.completed) << a.error;
  ASSERT_TRUE(b.completed) << b.error;
  EXPECT_EQ(a.registers, b.registers);
}

TEST(Determinism, FlowPointIsReproducibleWithRandomizedDelays) {
  // Same request (same seed) through two independent executors — including
  // one that recomputes everything with the cache disabled — must report
  // identical simulation observables.
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"),
                                         "gt1; gt2; gt4; gt2; gt5; lt");
  req.sim.randomize_delays = true;
  req.sim.seed = 7;

  FlowExecutor warm(nullptr);
  FlowPoint p1 = warm.run(req);
  FlowPoint p2 = warm.run(req);  // cached artifacts, fresh simulation
  FlowExecutor::Options cold_opts;
  cold_opts.cache_capacity = 0;
  FlowExecutor cold(nullptr, cold_opts);
  FlowPoint p3 = cold.run(req);

  ASSERT_TRUE(p1.ok) << p1.error;
  ASSERT_TRUE(p2.ok) << p2.error;
  ASSERT_TRUE(p3.ok) << p3.error;
  EXPECT_EQ(p1.latency, p2.latency);
  EXPECT_EQ(p1.sim_events, p2.sim_events);
  EXPECT_EQ(p1.latency, p3.latency);
  EXPECT_EQ(p1.sim_events, p3.sim_events);
}

}  // namespace
}  // namespace adc
