// CDFG-level token simulator: firing semantics, loop/IF handling, delay
// randomization, wire discipline, and agreement with the sequential model.

#include <gtest/gtest.h>

#include <limits>

#include "frontend/benchmarks.hpp"
#include "frontend/parser.hpp"
#include "sim/golden.hpp"
#include "sim/token_sim.hpp"

namespace adc {
namespace {

std::map<std::string, std::int64_t> diffeq_init() {
  return {{"X", 0}, {"a", 5}, {"dx", 1}, {"U", 10}, {"Y", 3}, {"X1", 0}, {"C", 1}};
}

TEST(TokenSim, ExecuteStatementSemantics) {
  std::map<std::string, std::int64_t> regs{{"a", 7}, {"b", 3}};
  execute_statement(parse_rtl("c := a + b"), regs);
  EXPECT_EQ(regs["c"], 10);
  execute_statement(parse_rtl("c := a - b"), regs);
  EXPECT_EQ(regs["c"], 4);
  execute_statement(parse_rtl("c := a * b"), regs);
  EXPECT_EQ(regs["c"], 21);
  execute_statement(parse_rtl("c := a < b"), regs);
  EXPECT_EQ(regs["c"], 0);
  execute_statement(parse_rtl("c := b < a"), regs);
  EXPECT_EQ(regs["c"], 1);
  execute_statement(parse_rtl("c := 2a + b"), regs);
  EXPECT_EQ(regs["c"], 17);
  execute_statement(parse_rtl("c := a / 0"), regs);
  EXPECT_EQ(regs["c"], 0) << "division by zero is defined as 0";

  // Overflow wraps in two's complement, as alu_compute does.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  regs = {{"big", kMax}, {"small", kMin}, {"one", 1}, {"neg", -1}, {"zero", 0}};
  execute_statement(parse_rtl("c := big + one"), regs);
  EXPECT_EQ(regs["c"], kMin);
  execute_statement(parse_rtl("c := small * neg"), regs);
  EXPECT_EQ(regs["c"], kMin);
  execute_statement(parse_rtl("c := small / neg"), regs);
  EXPECT_EQ(regs["c"], kMin);
  execute_statement(parse_rtl("c := 2big + zero"), regs);
  EXPECT_EQ(regs["c"], -2) << "scaled operand wraps";
}

TEST(TokenSim, SequentialMatchesIndependentGolden) {
  auto init = diffeq_init();
  Cdfg g = diffeq();
  auto seq = run_sequential(g, init);
  auto gold = diffeq_reference_registers(init);
  EXPECT_EQ(seq.at("X"), gold.at("X"));
  EXPECT_EQ(seq.at("Y"), gold.at("Y"));
  EXPECT_EQ(seq.at("U"), gold.at("U"));
}

TEST(TokenSim, DiffeqCompletesAndMatchesGolden) {
  Cdfg g = diffeq();
  auto init = diffeq_init();
  auto gold = run_sequential(g, init);
  for (unsigned seed = 1; seed <= 8; ++seed) {
    TokenSimOptions o;
    o.seed = seed;
    auto r = run_token_sim(g, init, o);
    EXPECT_TRUE(r.completed) << r.error;
    EXPECT_EQ(r.registers, gold) << "seed " << seed;
    EXPECT_EQ(r.loop_iterations, 5);
  }
}

TEST(TokenSim, ZeroIterationLoop) {
  Cdfg g = diffeq();
  auto init = diffeq_init();
  init["C"] = 0;  // condition false on entry
  auto r = run_token_sim(g, init);
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.loop_iterations, 0);
  EXPECT_EQ(r.registers.at("X"), 0);
}

TEST(TokenSim, UnoptimizedHasNoIterationOverlap) {
  Cdfg g = diffeq();
  auto init = diffeq_init();
  init["a"] = 20;
  for (unsigned seed = 1; seed <= 5; ++seed) {
    TokenSimOptions o;
    o.seed = seed;
    auto r = run_token_sim(g, init, o);
    EXPECT_EQ(r.max_overlap, 1) << "ENDLOOP synchronization forbids overlap";
  }
}

TEST(TokenSim, CornerDelaysAreDeterministic) {
  Cdfg g = diffeq();
  TokenSimOptions o;
  o.randomize_delays = false;
  auto r1 = run_token_sim(g, diffeq_init(), o);
  auto r2 = run_token_sim(g, diffeq_init(), o);
  EXPECT_EQ(r1.finish_time, r2.finish_time);
  o.all_min_delays = true;
  auto rmin = run_token_sim(g, diffeq_init(), o);
  EXPECT_LT(rmin.finish_time, r1.finish_time);
}

TEST(TokenSim, IfBlocksExecuteConditionally) {
  Cdfg g = mac_reduce();
  std::map<std::string, std::int64_t> init{{"X", 0}, {"K", 3}, {"T", 40},
                                           {"N", 6}, {"dx", 1}, {"S", 0}, {"C", 1}};
  auto gold = run_sequential(g, init);
  auto r = run_token_sim(g, init);
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.registers, gold);
  EXPECT_EQ(gold.at("S"), 5) << "the conditional reduce must have fired";
}

TEST(TokenSim, GcdBySubtraction) {
  Cdfg g = gcd();
  std::map<std::string, std::int64_t> init{{"A", 12}, {"B", 18}, {"C", 1}};
  auto r = run_token_sim(g, init);
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.registers.at("A"), 6);
  EXPECT_EQ(r.registers.at("B"), 6);
}

TEST(TokenSim, StraightLineBenchmarks) {
  std::map<std::string, std::int64_t> init{
      {"X0", 1}, {"X1", 2}, {"X2", 3}, {"X3", 4}, {"K0", 5}, {"K1", 6}, {"K2", 7},
      {"K3", 8}, {"IN", 9}, {"S1", 1}, {"S2", 2}, {"S3", 3}};
  for (auto make : {fir4, ewf_lite}) {
    Cdfg g = make();
    auto gold = run_sequential(g, init);
    for (unsigned seed = 1; seed <= 4; ++seed) {
      TokenSimOptions o;
      o.seed = seed;
      auto r = run_token_sim(g, init, o);
      EXPECT_TRUE(r.completed) << g.name() << ": " << r.error;
      EXPECT_EQ(r.registers, gold) << g.name();
    }
  }
}

TEST(TokenSim, DeadlockIsReportedNotHung) {
  // A node waiting on a wire nobody drives must be diagnosed.
  Cdfg g("dead");
  FuId a = g.add_fu("A", "alu");
  FuId b = g.add_fu("B", "alu");
  NodeId n1 = g.add_node(NodeKind::kOperation, a, {parse_rtl("x := p + q")});
  NodeId n2 = g.add_node(NodeKind::kOperation, b, {parse_rtl("y := x + q")});
  g.set_fu_order(a, {n1});
  g.set_fu_order(b, {n2});
  NodeId start = g.add_node(NodeKind::kStart, FuId::invalid());
  NodeId end = g.add_node(NodeKind::kEnd, FuId::invalid());
  g.add_arc(start, n1, ArcRole::kControl);
  g.add_arc(n1, n2, ArcRole::kDataDep, false, "x");
  g.add_arc(n2, end, ArcRole::kControl);
  // Circular wait: n2 needs `orphan`, which waits for END, which waits n2.
  NodeId orphan = g.add_node(NodeKind::kOperation, a, {parse_rtl("z := p + q")});
  g.add_arc(orphan, n2, ArcRole::kDataDep, false, "z");
  g.add_arc(end, orphan, ArcRole::kControl);
  auto r = run_token_sim(g, {});
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("deadlock"), std::string::npos) << r.error;
}

TEST(TokenSim, RunawayGuardTrips) {
  Cdfg g = diffeq();
  auto init = diffeq_init();
  init["a"] = 1000000;  // far more iterations than the firing budget allows
  TokenSimOptions o;
  o.max_firings = 500;
  auto r = run_token_sim(g, init, o);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("runaway"), std::string::npos);
}

TEST(TokenSim, TimingHarnessForcesIterations) {
  Cdfg g = diffeq();
  TokenSimOptions o;
  o.forced_loop_iterations = 3;
  auto r = run_token_sim(g, {}, o);  // no initial registers at all
  EXPECT_TRUE(r.completed) << r.error;
  EXPECT_EQ(r.loop_iterations, 3);
  EXPECT_TRUE(r.registers.empty()) << "the harness evaluates no statement";
}

// Records every firing and completion time per node through the watch.
struct TimeLog : TokenSimWatch {
  std::map<std::uint32_t, std::vector<std::int64_t>> fires, completions;
  bool on_fire(NodeId n, std::int64_t t) override {
    fires[n.value()].push_back(t);
    return true;
  }
  bool on_complete(NodeId n, std::int64_t t) override {
    completions[n.value()].push_back(t);
    return true;
  }
};

TEST(TokenSim, RecordTimesProducesMonotonicPerNodeHistory) {
  Cdfg g = diffeq();
  TimeLog log;
  auto r = TokenSimModel(g).run(diffeq_init(), {}, &log);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_FALSE(r.stopped);
  EXPECT_FALSE(log.fires.empty());
  for (const auto& [node, times] : log.fires) {
    for (std::size_t i = 1; i < times.size(); ++i)
      EXPECT_LE(times[i - 1], times[i]) << "node " << node;
    auto cit = log.completions.find(node);
    ASSERT_NE(cit, log.completions.end());
    for (std::size_t i = 0; i < cit->second.size() && i < times.size(); ++i)
      EXPECT_LT(times[i], cit->second[i]);
  }
}

TEST(TokenSim, WatchedRunMatchesUnwatchedRun) {
  Cdfg g = diffeq();
  const TokenSimModel model(g);
  for (unsigned seed = 1; seed <= 4; ++seed) {
    TokenSimOptions o;
    o.seed = seed;
    TimeLog log;
    auto watched = model.run(diffeq_init(), o, &log);
    auto plain = run_token_sim(g, diffeq_init(), o);
    EXPECT_EQ(watched.registers, plain.registers) << "seed " << seed;
    EXPECT_EQ(watched.finish_time, plain.finish_time) << "seed " << seed;
    EXPECT_EQ(watched.firings, plain.firings) << "seed " << seed;
    std::int64_t fired = 0;
    for (const auto& [node, times] : log.fires) fired += static_cast<std::int64_t>(times.size());
    EXPECT_EQ(fired, plain.firings);
  }
}

TEST(TokenSim, WatchStopsTheRunWithoutAnError) {
  // Stop at the third completion of anything: the run reports neither a
  // deadlock nor a runaway, and END has not fired.
  struct StopAtThird : TokenSimWatch {
    int completions = 0;
    bool on_complete(NodeId, std::int64_t) override { return ++completions < 3; }
  } watch;
  Cdfg g = diffeq();
  auto r = TokenSimModel(g).run(diffeq_init(), {}, &watch);
  EXPECT_TRUE(r.stopped);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(watch.completions, 3);

  // A watch that refuses the very first firing stops before any event.
  struct StopAtOnce : TokenSimWatch {
    bool on_fire(NodeId, std::int64_t) override { return false; }
  } refuse;
  auto first = TokenSimModel(g).run(diffeq_init(), {}, &refuse);
  EXPECT_TRUE(first.stopped);
  EXPECT_TRUE(first.error.empty()) << first.error;
  EXPECT_EQ(first.firings, 1);
}

TEST(TokenSim, FreeRunningGraphIsReportedAsRunaway) {
  // Nothing ever writes the loop condition: the loop spins until the
  // firing budget is spent.
  Cdfg g = parse_program(R"(program spin {
    fu ALU1 : alu;
    loop C on ALU1 {
      ALU1: x := x + 1;
    }
  })");
  TokenSimOptions o;
  o.max_firings = 2000;
  auto r = run_token_sim(g, {{"x", 0}, {"C", 1}}, o);
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.stopped);
  EXPECT_NE(r.error.find("runaway simulation"), std::string::npos) << r.error;
}

TEST(TokenSim, RandomProgramsMatchSequential) {
  RandomProgramParams p;
  for (int seed = 0; seed < 30; ++seed) {
    Cdfg g = random_program(p, static_cast<std::uint64_t>(seed));
    std::map<std::string, std::int64_t> init;
    for (int i = 0; i < p.regs; ++i) init["r" + std::to_string(i)] = 3 * i + 1;
    init["n"] = 4;
    init["cond"] = 1;
    auto gold = run_sequential(g, init);
    TokenSimOptions o;
    o.seed = static_cast<std::uint64_t>(seed) + 99;
    auto r = run_token_sim(g, init, o);
    EXPECT_TRUE(r.completed) << "seed " << seed << ": " << r.error;
    EXPECT_EQ(r.registers, gold) << "seed " << seed;
  }
}

}  // namespace
}  // namespace adc
