// Flow-executor tests: parallel evaluation must be scheduling-independent
// (identical metrics to a serial run), stages must be timed and cached,
// errors must surface as failed points, and the CLI-facing helpers
// (builtin registry, ablation grid, JSON, exit codes) must hold their
// contracts.

#include "runtime/flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "report/json.hpp"

namespace adc {
namespace {

std::vector<FlowRequest> small_grid() {
  // mac_reduce is the smallest benchmark with a loop + IF, so the full
  // pipeline stays fast while every transform still has something to do.
  const BuiltinBenchmark* b = find_builtin("mac_reduce");
  std::vector<FlowRequest> reqs;
  for (const char* script :
       {"lt", "gt2; gt5; lt", "gt1; gt2; gt4; gt2; gt5; lt",
        "gt1; gt2; gt3; gt4; gt2; gt5; lt", "gt1; gt2; gt3; gt4; gt2; gt5; lt(no_acks)"})
    reqs.push_back(make_builtin_request(*b, script));
  return reqs;
}

std::vector<std::string> metric_rows(const std::vector<FlowPoint>& pts) {
  std::vector<std::string> rows;
  for (const auto& p : pts)
    rows.push_back(p.script + "|" + std::to_string(p.channels) + "/" +
                   std::to_string(p.states) + "/" + std::to_string(p.transitions) + "/" +
                   std::to_string(p.products) + "/" + std::to_string(p.literals) + "/" +
                   std::to_string(p.latency) + "/" + (p.ok ? "ok" : "bad"));
  return rows;
}

TEST(FlowExecutor, ParallelMatchesSerial) {
  auto reqs = small_grid();
  FlowExecutor serial(nullptr);
  auto serial_points = serial.run_all(reqs);
  for (const auto& p : serial_points) ASSERT_TRUE(p.ok) << p.script << ": " << p.error;

  ThreadPool pool(4);
  FlowExecutor parallel(&pool);
  auto parallel_points = parallel.run_all(reqs);
  EXPECT_EQ(metric_rows(serial_points), metric_rows(parallel_points));
}

TEST(FlowExecutor, SecondRunIsServedFromCache) {
  FlowExecutor exec(nullptr);
  FlowRequest req = small_grid().front();
  FlowPoint first = exec.run(req);
  FlowPoint second = exec.run(req);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  // Frontend and controller stages hit the cache the second time.
  for (const auto& t : second.timings) {
    if (t.stage == "frontend" || t.stage == "controllers") {
      EXPECT_TRUE(t.cached) << t.stage;
    }
  }
  EXPECT_GT(exec.cache().stats().hits, 0u);
}

TEST(FlowExecutor, PrefixSharingReusesGlobalStages) {
  FlowExecutor exec(nullptr);
  const BuiltinBenchmark* b = find_builtin("mac_reduce");
  FlowRequest shorter = make_builtin_request(*b, "gt1; gt2");
  shorter.simulate = false;
  FlowRequest longer = make_builtin_request(*b, "gt1; gt2; gt4");
  longer.simulate = false;
  exec.run(shorter);
  std::uint64_t misses_before = exec.cache().stats().misses;
  exec.run(longer);
  // Only gt4 (plus extraction) computes anew; gt1 and gt2 come from cache.
  std::uint64_t gt_steps = exec.metrics().counter("flow.gt_steps").value();
  std::uint64_t gt_cached = exec.metrics().counter("flow.gt_steps_cached").value();
  EXPECT_EQ(gt_steps, 5u);   // 2 + 3
  EXPECT_EQ(gt_cached, 2u);  // the shared gt1; gt2 prefix
  EXPECT_EQ(exec.cache().stats().misses, misses_before + 2);  // gt4 + controllers
}

TEST(FlowExecutor, StageTimingsArePopulated) {
  FlowExecutor exec(nullptr);
  FlowPoint p = exec.run(small_grid().front());
  ASSERT_TRUE(p.ok);
  std::set<std::string> stages;
  for (const auto& t : p.timings) stages.insert(t.stage);
  EXPECT_TRUE(stages.count("frontend"));
  EXPECT_TRUE(stages.count("global"));
  EXPECT_TRUE(stages.count("controllers"));
  EXPECT_TRUE(stages.count("sim"));
  EXPECT_GT(p.total_micros, 0u);
  EXPECT_GT(p.sim_events, 0);
}

TEST(FlowExecutor, BadScriptBecomesFailedPoint) {
  FlowExecutor exec(nullptr);
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"), "gt99");
  FlowPoint p = exec.run(req);
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.error.find("gt99"), std::string::npos);
  EXPECT_EQ(exec.metrics().counter("flow.errors").value(), 1u);
}

TEST(FlowExecutor, RequestWithoutProgramFails) {
  FlowExecutor exec(nullptr);
  FlowRequest req;
  req.benchmark = "ghost";
  FlowPoint p = exec.run(req);
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.error.find("ghost"), std::string::npos);
}

TEST(FlowExecutor, SourceTextRequestsWork) {
  FlowRequest req;
  req.benchmark = "inline-program";
  req.source = R"(program tiny {
    fu ALU1 : alu;
    ALU1: A := X + Y;
    ALU1: B := A + X;
  })";
  req.script = "gt2; lt";
  req.init = {{"X", 2}, {"Y", 3}};
  req.sim.randomize_delays = false;
  FlowExecutor exec(nullptr);
  FlowPoint p = exec.run(req);
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_GT(p.states, 0u);
}

TEST(FlowHelpers, GtAblationGridHas32UniqueRecipes) {
  auto grid = gt_ablation_grid(true);
  ASSERT_EQ(grid.size(), 32u);
  std::set<std::string> unique(grid.begin(), grid.end());
  EXPECT_EQ(unique.size(), 32u);
  // Mask 31 is the paper's full recipe.
  EXPECT_EQ(grid.back(), "gt1; gt2; gt3; gt4; gt2; gt5; lt");
  for (const auto& s : grid) EXPECT_NO_THROW(TransformScript::parse(s)) << s;
  auto nolt = gt_ablation_grid(false);
  EXPECT_EQ(nolt.front(), "");
  EXPECT_EQ(nolt.back(), "gt1; gt2; gt3; gt4; gt2; gt5");
}

TEST(FlowHelpers, GridEndsAtThePaperRecipe) {
  EXPECT_EQ(gt_ablation_grid(true).back(), kPaperRecipe);
  EXPECT_EQ(gt_ablation_grid(false).back() + "; lt", kPaperRecipe);
  // A tuned recipe parses and normalizes to itself.
  const std::string tuned =
      "gt1; gt2; gt3; gt4; gt2; gt5(broadcast=all, maxperiod=200); lt(no_sharing)";
  EXPECT_EQ(TransformScript::parse(tuned).to_string(), tuned);
}

TEST(FlowHelpers, StatusNamesAndBatchExitCodes) {
  using S = FlowStatus;
  for (S s : {S::kOk, S::kDeadlock, S::kTimeout, S::kCancelled, S::kFault, S::kError})
    EXPECT_EQ(parse_flow_status(to_string(s)), s);
  EXPECT_EQ(parse_flow_status("wrong_result"), std::nullopt);
  // The worst status wins: 6 fault/error > 5 timeout/cancelled > 4 deadlock.
  EXPECT_EQ(batch_exit_code({}), 0);
  EXPECT_EQ(batch_exit_code({S::kOk, S::kOk}), 0);
  EXPECT_EQ(batch_exit_code({S::kOk, S::kDeadlock}), 4);
  EXPECT_EQ(batch_exit_code({S::kDeadlock, S::kCancelled}), 5);
  EXPECT_EQ(batch_exit_code({S::kTimeout, S::kDeadlock}), 5);
  EXPECT_EQ(batch_exit_code({S::kError, S::kTimeout}), 6);
  EXPECT_EQ(batch_exit_code({S::kFault, S::kDeadlock}), 6);
}

TEST(FlowHelpers, BuiltinRegistry) {
  EXPECT_NE(find_builtin("diffeq"), nullptr);
  EXPECT_NE(find_builtin("ewf"), nullptr);
  EXPECT_EQ(find_builtin("no-such-benchmark"), nullptr);
  EXPECT_GE(builtin_benchmarks().size(), 6u);
  for (const auto& b : builtin_benchmarks()) {
    EXPECT_FALSE(b.name.empty());
    ASSERT_NE(b.make, nullptr);
  }
}

TEST(FlowHelpers, JsonReportContainsTheMetrics) {
  FlowExecutor exec(nullptr);
  FlowPoint p = exec.run(small_grid().front());
  std::string json = to_json(p);
  EXPECT_NE(json.find("\"benchmark\":\"mac_reduce\""), std::string::npos);
  EXPECT_NE(json.find("\"channels\":"), std::string::npos);
  EXPECT_NE(json.find("\"controllers\":"), std::string::npos);
  EXPECT_NE(json.find("\"stages\":"), std::string::npos);
  JsonWriter w;
  exec.metrics().write_json(w);
  std::string metrics = w.str();
  EXPECT_NE(metrics.find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics.find("flow.runs"), std::string::npos);
}

}  // namespace
}  // namespace adc
