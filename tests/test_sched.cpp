// The high-level-synthesis substrate: dependence analysis, list
// scheduling, binding, and end-to-end CDFG generation.

#include <gtest/gtest.h>

#include "cdfg/validate.hpp"
#include "frontend/benchmarks.hpp"
#include "sched/dfg.hpp"
#include "sched/scheduler.hpp"
#include "sim/token_sim.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

std::vector<RtlStatement> parse_all(const std::vector<std::string>& texts) {
  std::vector<RtlStatement> out;
  for (const auto& t : texts) out.push_back(parse_rtl(t));
  return out;
}

TEST(Sched, RawDependence) {
  auto ops = build_dfg(parse_all({"x := a + b", "y := x + c"}));
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_TRUE(ops[0].deps.empty());
  EXPECT_EQ(ops[1].deps, std::vector<std::size_t>{0u});
}

TEST(Sched, WarDependence) {
  auto ops = build_dfg(parse_all({"y := a + b", "a := c + d"}));
  EXPECT_EQ(ops[1].deps, std::vector<std::size_t>{0u})
      << "the overwrite must wait for the reader";
}

TEST(Sched, WawDependence) {
  auto ops = build_dfg(parse_all({"x := a + b", "x := c + d"}));
  EXPECT_EQ(ops[1].deps, std::vector<std::size_t>{0u});
}

TEST(Sched, IndependentOpsHaveNoDeps) {
  auto ops = build_dfg(parse_all({"x := a + b", "y := c + d"}));
  EXPECT_TRUE(ops[0].deps.empty());
  EXPECT_TRUE(ops[1].deps.empty());
}

TEST(Sched, CriticalPathPriority) {
  auto ops = build_dfg(parse_all({"x := a + b", "y := x + c", "z := y + d", "w := e + f"}));
  std::vector<int> cycles{1, 1, 1, 1};
  auto prio = critical_path_priority(ops, cycles);
  EXPECT_EQ(prio[0], 3);
  EXPECT_EQ(prio[3], 1);
}

TEST(Sched, ScheduleRespectsDependences) {
  auto ops = build_dfg(parse_all(
      {"x := a * b", "y := x + c", "z := y * d", "u := a + c", "v := u + a"}));
  Resources res;
  auto sched = list_schedule(ops, res);
  for (const auto& op : ops)
    for (std::size_t d : op.deps)
      EXPECT_GE(sched.entries[op.id].start,
                sched.entries[d].start + (needs_multiplier(ops[d].stmt) ? res.mult_cycles
                                                                        : res.alu_cycles))
          << "op " << op.id << " before dep " << d;
}

TEST(Sched, ResourceLimitsHonoured) {
  // Eight independent multiplications on two multipliers: at most two may
  // start in any cycle.
  std::vector<std::string> texts;
  for (int i = 0; i < 8; ++i)
    texts.push_back("p" + std::to_string(i) + " := a * b");
  auto ops = build_dfg(parse_all(texts));
  Resources res;
  res.mults = 2;
  auto sched = list_schedule(ops, res);
  std::map<int, int> starts;
  for (const auto& e : sched.entries) ++starts[e.start];
  for (const auto& [cycle, n] : starts) EXPECT_LE(n, 2) << "cycle " << cycle;
  EXPECT_GE(sched.makespan, 8 / 2 * res.mult_cycles);
}

TEST(Sched, BindingUsesDeclaredUnits) {
  auto ops = build_dfg(parse_all({"x := a * b", "y := c * d", "z := x + y"}));
  Resources res;
  auto sched = list_schedule(ops, res);
  for (const auto& e : sched.entries) {
    bool mul = needs_multiplier(ops[e.op].stmt);
    EXPECT_EQ(e.fu.substr(0, 3), mul ? "MUL" : "ALU");
  }
}

TEST(Sched, EndToEndDiffeqProgram) {
  // Feed the raw DIFFEQ RTL and let the substrate schedule and bind it;
  // the result must be a valid CDFG computing the same values.
  HlsProgram p;
  p.name = "diffeq_hls";
  p.loop_cond = "C";
  for (const char* t :
       {"B := 2dx + dx", "M1 := U * X1", "M2 := U * dx", "X := X + dx", "A := Y + M1",
        "M1 := A * B", "Y := Y + M2", "X1 := X", "U := U - M1", "C := X < a"})
    p.loop_body.push_back(parse_rtl(t));
  Cdfg g = schedule_and_bind(p, Resources{2, 2, 1, 2});
  EXPECT_TRUE(validate(g).empty());
  EXPECT_EQ(g.fu_count(), 4u);

  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 5}, {"dx", 1},
                                           {"U", 10}, {"Y", 3}, {"X1", 0}, {"C", 1}};
  auto gold = run_sequential(g, init);
  auto r = run_token_sim(g, init);
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.registers, gold);
}

TEST(Sched, GeneratedCdfgSurvivesTheFullPipeline) {
  HlsProgram p;
  p.name = "hls_full";
  p.loop_cond = "C";
  for (const char* t : {"M1 := U * X1", "A := Y + M1", "U := U - A", "X := X + dx",
                        "Y := Y + A", "X1 := X", "C := X < a"})
    p.loop_body.push_back(parse_rtl(t));
  Cdfg g = schedule_and_bind(p, Resources{2, 1, 1, 2});
  ASSERT_TRUE(validate(g).empty());
  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 6}, {"dx", 1},
                                           {"U", 9},  {"Y", 2}, {"X1", 0}, {"C", 1}};
  auto gold = run_sequential(g, init);
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  (void)res;
  auto r = run_token_sim(g, init);
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.registers, gold);
}

TEST(Sched, PrologueOnlyProgram) {
  HlsProgram p;
  p.name = "straight";
  for (const char* t : {"x := a * b", "y := c + d", "z := x + y"})
    p.prologue.push_back(parse_rtl(t));
  Cdfg g = schedule_and_bind(p, Resources{1, 1, 1, 2});
  EXPECT_TRUE(validate(g).empty());
  std::map<std::string, std::int64_t> init{{"a", 3}, {"b", 4}, {"c", 5}, {"d", 6}};
  auto r = run_token_sim(g, init);
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.registers.at("z"), 23);
}

TEST(Sched, MoreResourcesShortenTheSchedule) {
  std::vector<std::string> texts;
  for (int i = 0; i < 6; ++i)
    texts.push_back("p" + std::to_string(i) + " := a * b");
  auto ops = build_dfg(parse_all(texts));
  Resources narrow;
  narrow.mults = 1;
  Resources wide;
  wide.mults = 3;
  EXPECT_GT(list_schedule(ops, narrow).makespan, list_schedule(ops, wide).makespan);
}

TEST(Sched, AsapRespectsDependences) {
  auto ops = build_dfg(parse_all({"x := a * b", "y := x + c", "z := y + x"}));
  std::vector<int> cycles{2, 1, 1};
  auto asap = asap_schedule(ops, cycles);
  EXPECT_EQ(asap[0], 0);
  EXPECT_EQ(asap[1], 2);
  EXPECT_EQ(asap[2], 3);
}

TEST(Sched, AlapMeetsTheDeadlineExactly) {
  auto ops = build_dfg(parse_all({"x := a * b", "y := x + c", "w := e + f"}));
  std::vector<int> cycles{2, 1, 1};
  auto alap = alap_schedule(ops, cycles);  // deadline = ASAP makespan = 3
  EXPECT_EQ(alap[0], 0);
  EXPECT_EQ(alap[1], 2);
  EXPECT_EQ(alap[2], 2) << "the independent op floats to the end";
}

TEST(Sched, SlackZeroOnCriticalPathOnly) {
  auto ops = build_dfg(parse_all({"x := a * b", "y := x + c", "w := e + f"}));
  std::vector<int> cycles{2, 1, 1};
  auto slack = schedule_slack(ops, cycles);
  EXPECT_EQ(slack[0], 0);
  EXPECT_EQ(slack[1], 0);
  EXPECT_GT(slack[2], 0);
}

TEST(Sched, ListScheduleNeverBeatsAsap) {
  // Resource constraints can only delay operations relative to the
  // unconstrained ASAP schedule.
  auto ops = build_dfg(parse_all({"p0 := a * b", "p1 := c * d", "p2 := e * f",
                                  "s := p0 + p1", "t := s + p2"}));
  std::vector<int> cycles;
  for (const auto& op : ops) cycles.push_back(needs_multiplier(op.stmt) ? 2 : 1);
  auto asap = asap_schedule(ops, cycles);
  Resources res;
  res.mults = 1;
  auto sched = list_schedule(ops, res);
  for (const auto& e : sched.entries) EXPECT_GE(e.start, asap[e.op]) << "op " << e.op;
}

TEST(Sched, EwfBenchmarkBuildsAndValidates) {
  Cdfg g = ewf();
  EXPECT_TRUE(validate(g).empty());
  EXPECT_EQ(g.fu_count(), 5u);  // 3 ALUs + 2 MULs
  EXPECT_GE(g.live_node_count(), 34u);
}

TEST(Sched, EwfFullPipelineCorrect) {
  std::map<std::string, std::int64_t> init{
      {"IN", 5},  {"k1", 2},  {"k2", 3},  {"k3", 1},  {"k4", 2},  {"k5", 3},
      {"sv1", 1}, {"sv2", 2}, {"sv3", 3}, {"sv4", 4}, {"sv5", 5}, {"sv6", 6},
      {"sv7", 7}, {"sv8", 8}};
  Cdfg g = ewf();
  auto gold = run_sequential(g, init);
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  (void)res;
  for (unsigned seed = 1; seed <= 4; ++seed) {
    TokenSimOptions o;
    o.seed = seed;
    auto r = run_token_sim(g, init, o);
    ASSERT_TRUE(r.completed) << r.error;
    EXPECT_EQ(r.registers, gold) << "seed " << seed;
  }
}

TEST(Sched, EwfResourceSweepTradesLatencyForArea) {
  Cdfg narrow = ewf(1, 1);
  Cdfg wide = ewf(4, 3);
  EXPECT_LT(wide.fu_count() == 0 ? 1 : 0, 1);  // sanity
  EXPECT_GT(wide.fu_count(), narrow.fu_count());
}

}  // namespace
}  // namespace adc
