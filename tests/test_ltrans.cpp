// Local transformations LT1-LT5 (§5): each transform's individual effect,
// pipeline composition, the paper's Figure 12 GT+LT state counts, and
// validity after every rewrite.

#include <gtest/gtest.h>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "ltrans/local.hpp"
#include "transforms/script.hpp"
#include "xbm/print.hpp"
#include "xbm/validate.hpp"

namespace adc {
namespace {

struct System {
  Cdfg g{"empty"};
  ChannelPlan plan;
  std::vector<ExtractedController> controllers;
};

System diffeq_gt() {
  System s;
  s.g = diffeq();
  auto res = TransformScript::parse(kPaperRecipe).run(s.g);
  s.plan = std::move(res.plan);
  s.controllers = extract_controllers(s.g, s.plan);
  return s;
}

ExtractedController& by_name(System& s, const char* name) {
  for (auto& c : s.controllers)
    if (s.g.fu(c.fu).name == name) return c;
  throw std::runtime_error("controller not found");
}

TEST(Ltrans, Figure12OptimizedGtAndLtCounts) {
  // Paper row 3: ALU1 7/9, ALU2 11/13, MUL1 6/6, MUL2 4/5 — and Yun's
  // manual design: 7/9, 14/16, 4/4, 3/3.  Our pipeline lands in the same
  // band: single-digit machines, ALU2 largest.
  System s = diffeq_gt();
  std::map<std::string, std::pair<std::size_t, std::size_t>> got;
  for (auto& c : s.controllers) {
    run_local_transforms(c);
    got[s.g.fu(c.fu).name] = {c.machine.state_count(), c.machine.transition_count()};
  }
  EXPECT_EQ(got["ALU1"], (std::pair<std::size_t, std::size_t>{7u, 7u}));
  EXPECT_LE(got["ALU2"].first, 14u);
  EXPECT_GE(got["ALU2"].first, 6u);
  EXPECT_LE(got["MUL1"].first, 6u);
  EXPECT_LE(got["MUL2"].first, 5u);
}

TEST(Ltrans, EveryStageKeepsMachinesValid) {
  for (auto make : {diffeq, gcd, fir4, mac_reduce, ewf_lite}) {
    Cdfg g = make();
    auto res = TransformScript::parse(kPaperRecipe).run(g);
    for (auto& c : extract_controllers(g, res.plan)) {
      EXPECT_NO_THROW(run_local_transforms(c)) << g.name() << "/" << c.machine.name();
      EXPECT_TRUE(validate(c.machine).empty()) << g.name() << "/" << c.machine.name();
    }
  }
}

TEST(Ltrans, Lt1MovesDonesToTheLatchTransition) {
  // The paper's §5.1 example: A1M+ moves next to reg latching.
  System s = diffeq_gt();
  auto& alu1 = by_name(s, "ALU1");
  int n = lt1_move_up(alu1.machine, alu1.bindings);
  EXPECT_GT(n, 0);
  EXPECT_TRUE(validate(alu1.machine).empty());
  // Some transition now emits a latch strobe and a global done together.
  bool together = false;
  for (TransitionId t : alu1.machine.transition_ids()) {
    bool lat = false, done = false;
    for (const auto& e : alu1.machine.transition(t).outputs) {
      auto it = alu1.bindings.find(e.signal.value());
      if (it == alu1.bindings.end()) continue;
      if (it->second.role == SignalRole::kLatch) lat = true;
      if (it->second.role == SignalRole::kGlobalReady) done = true;
    }
    if (lat && done) together = true;
  }
  EXPECT_TRUE(together);
}

TEST(Ltrans, Lt4RemovesAllLocalAckEdges) {
  System s = diffeq_gt();
  auto& alu1 = by_name(s, "ALU1");
  int removed = lt4_remove_acks(alu1.machine, alu1.bindings);
  EXPECT_GT(removed, 0);
  for (TransitionId t : alu1.machine.transition_ids())
    for (const auto& e : alu1.machine.transition(t).inputs) {
      auto it = alu1.bindings.find(e.signal.value());
      if (it == alu1.bindings.end()) continue;
      SignalRole r = it->second.role;
      EXPECT_TRUE(r != SignalRole::kMuxAck && r != SignalRole::kOpAck &&
                  r != SignalRole::kRegMuxAck && r != SignalRole::kLatchAck)
          << alu1.machine.signal(e.signal).name;
    }
}

TEST(Ltrans, FuDoneWaitsSurviveLt4) {
  // Operation latency is genuinely variable: done must still be observed.
  System s = diffeq_gt();
  auto& alu1 = by_name(s, "ALU1");
  run_local_transforms(alu1);
  int done_waits = 0;
  for (TransitionId t : alu1.machine.transition_ids())
    for (const auto& e : alu1.machine.transition(t).inputs) {
      auto it = alu1.bindings.find(e.signal.value());
      if (it != alu1.bindings.end() && it->second.role == SignalRole::kFuDone &&
          !e.directed_dont_care && e.polarity == EdgePolarity::kRising)
        ++done_waits;
    }
  EXPECT_EQ(done_waits, 3) << "one rising-done wait per RTL operation";
}

TEST(Ltrans, Lt3ElidesRepeatedMuxSource) {
  // A := Y + M1 then U := U - M1: the right mux keeps M1 selected, so the
  // reset/set pair on selR_M1 disappears.
  System s = diffeq_gt();
  auto& alu1 = by_name(s, "ALU1");
  run_local_transforms(alu1);
  int selR_M1_edges = 0;
  auto sig = alu1.machine.find_signal("selR_M1");
  ASSERT_TRUE(sig.has_value());
  for (TransitionId t : alu1.machine.transition_ids())
    for (const auto& e : alu1.machine.transition(t).outputs)
      if (e.signal == *sig) ++selR_M1_edges;
  EXPECT_LE(selR_M1_edges, 2) << "at most one set and one reset per ring cycle";
}

TEST(Ltrans, Lt5SharesRegisterMuxAndLatch) {
  System s = diffeq_gt();
  auto& mul2 = by_name(s, "MUL2");
  auto res = run_local_transforms(mul2);
  bool rsel_lat_shared = false;
  for (const auto& [a, b] : res.shared_signals)
    if ((a.rfind("rsel_", 0) == 0 && b.rfind("lat_", 0) == 0) ||
        (a.rfind("lat_", 0) == 0 && b.rfind("rsel_", 0) == 0))
      rsel_lat_shared = true;
  EXPECT_TRUE(rsel_lat_shared)
      << "register mux select and latch strobe coincide after folding";
}

TEST(Ltrans, SharedSignalsReduceLiveOutputs) {
  System s = diffeq_gt();
  auto& alu1 = by_name(s, "ALU1");
  std::size_t before = live_signal_count(alu1.machine, SignalKind::kOutput);
  auto res = run_local_transforms(alu1);
  std::size_t after = live_signal_count(alu1.machine, SignalKind::kOutput);
  EXPECT_EQ(after + res.shared_signals.size(), before);
}

TEST(Ltrans, InitialStateSplitKeepsFirstIterationClean) {
  // The ring-head transition carries the previous iteration's resets; the
  // split initial state must offer a reset-free first-iteration entry.
  System s = diffeq_gt();
  auto& alu1 = by_name(s, "ALU1");
  run_local_transforms(alu1);
  StateId init = alu1.machine.initial();
  auto outs = alu1.machine.out_transitions(init);
  ASSERT_EQ(outs.size(), 1u);
  for (const auto& e : alu1.machine.transition(outs[0]).outputs)
    EXPECT_NE(e.polarity, EdgePolarity::kFalling)
        << "nothing to reset on the very first iteration";
}

TEST(Ltrans, DisabledStagesAreRespected) {
  System s = diffeq_gt();
  auto& mul1 = by_name(s, "MUL1");
  std::size_t before = mul1.machine.state_count();
  LocalTransformOptions off;
  off.lt1_move_up_dones = false;
  off.lt2_move_down_resets = false;
  off.lt3_mux_preselection = false;
  off.lt4_remove_acks = false;
  off.lt5_signal_sharing = false;
  auto res = run_local_transforms(mul1, off);
  EXPECT_EQ(mul1.machine.state_count(), before);
  EXPECT_TRUE(res.stats.notes.empty());
}

TEST(Ltrans, Lt4AloneShrinksMachines) {
  System s = diffeq_gt();
  auto& mul1 = by_name(s, "MUL1");
  std::size_t before = mul1.machine.state_count();
  LocalTransformOptions only4;
  only4.lt1_move_up_dones = false;
  only4.lt2_move_down_resets = false;
  only4.lt3_mux_preselection = false;
  only4.lt5_signal_sharing = false;
  run_local_transforms(mul1, only4);
  EXPECT_LT(mul1.machine.state_count(), before);
  EXPECT_TRUE(validate(mul1.machine).empty());
}

TEST(Ltrans, WorksOnUnoptimizedExtractionsToo) {
  Cdfg g = diffeq();
  auto plan = ChannelPlan::derive(g);
  for (auto& c : extract_controllers(g, plan)) {
    std::size_t before = c.machine.state_count();
    EXPECT_NO_THROW(run_local_transforms(c));
    EXPECT_LT(c.machine.state_count(), before) << c.machine.name();
    EXPECT_TRUE(validate(c.machine).empty());
  }
}

TEST(Ltrans, FoldIsIdempotentAfterPipeline) {
  System s = diffeq_gt();
  auto& alu1 = by_name(s, "ALU1");
  run_local_transforms(alu1);
  std::size_t states = alu1.machine.state_count();
  int more = fold_trivial_transitions(alu1.machine, &alu1.bindings);
  EXPECT_EQ(more, 0);
  EXPECT_EQ(alu1.machine.state_count(), states);
}

}  // namespace
}  // namespace adc
