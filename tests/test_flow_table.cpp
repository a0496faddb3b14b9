// Phase concretization: toggle parity tracking, state splitting, ddc
// windows, conditional tracking.

#include <gtest/gtest.h>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "logic/flow_table.hpp"
#include "ltrans/local.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

TEST(FlowTable, ToggleParityDoublesAnOddRing) {
  // One toggle per ring cycle: the wire's phase alternates, so the
  // implementation needs both phases of every state.
  Xbm m("odd");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kLatch);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  m.set_initial(s0);
  m.add_transition(s0, s1, {toggle(a)}, {rise(y)});
  m.add_transition(s1, s0, {toggle(a)}, {fall(y)});
  // Two toggles per cycle: parity closes, no doubling.
  auto cm = concretize(m);
  EXPECT_EQ(cm.states.size(), 2u);

  Xbm m2("odd2");
  SignalId b = m2.add_signal("b", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId z = m2.add_signal("z", SignalKind::kOutput, SignalRole::kGlobalReady);
  StateId t0 = m2.add_state();
  m2.set_initial(t0);
  m2.add_transition(t0, t0, {toggle(b)}, {toggle(z)});
  // One toggle per cycle: the self-loop doubles into the two phases.
  auto cm2 = concretize(m2);
  EXPECT_EQ(cm2.states.size(), 2u);
  EXPECT_EQ(cm2.transitions.size(), 2u);
}

TEST(FlowTable, ConcreteValuesTrackToggleParity) {
  Xbm m("par");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kGlobalReady);
  StateId s0 = m.add_state();
  m.set_initial(s0);
  m.add_transition(s0, s0, {toggle(a)}, {toggle(y)});
  auto cm = concretize(m);
  ASSERT_EQ(cm.states.size(), 2u);
  std::size_t var = cm.input_var(a);
  EXPECT_NE(cm.states[0].inputs.get(var), cm.states[1].inputs.get(var));
}

TEST(FlowTable, DdcWindowMakesValueUnknownUntilConsumption) {
  Xbm m("win");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId b = m.add_signal("b", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kLatch);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  m.set_initial(s0);
  // b may arrive during the first burst, compulsory in the second.
  m.add_transition(s0, s1, {toggle(a), ddc(toggle(b))}, {rise(y)});
  m.add_transition(s1, s0, {toggle(b)}, {fall(y)});
  auto cm = concretize(m);
  std::size_t vb = cm.input_var(b);
  // At the mid state, b is in its window: unknown.
  bool saw_window_state = false;
  for (const auto& st : cm.states)
    if (st.inputs.get(vb) == Cube::V::kFree) saw_window_state = true;
  EXPECT_TRUE(saw_window_state);
  // Transition cubes spanning the window leave b free; endpoints pin it.
  for (const auto& t : cm.transitions) {
    EXPECT_NE(t.start.get(vb), Cube::V::kFree) << "endpoints use pre-window values";
    EXPECT_NE(t.end.get(vb), Cube::V::kFree);
  }
}

TEST(FlowTable, OutputChangesRecorded) {
  Xbm m("out");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kLatch);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  m.set_initial(s0);
  m.add_transition(s0, s1, {toggle(a)}, {rise(y)});
  m.add_transition(s1, s0, {toggle(a)}, {fall(y)});
  auto cm = concretize(m);
  ASSERT_EQ(cm.transitions.size(), 2u);
  for (const auto& t : cm.transitions) {
    ASSERT_EQ(t.output_changes.size(), 1u);
    EXPECT_EQ(cm.states[t.from].outputs[t.output_changes[0].first],
              !t.output_changes[0].second);
  }
}

TEST(FlowTable, ConditionalsPinTransitionCubes) {
  Xbm m("cond");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId c = m.add_signal("c", SignalKind::kInput, SignalRole::kConditional);
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kLatch);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  m.set_initial(s0);
  m.add_transition(s0, s1, {toggle(a)}, {rise(y)}, {CondTerm{c, true}});
  m.add_transition(s0, s0, {toggle(a)}, {}, {CondTerm{c, false}});
  m.add_transition(s1, s0, {toggle(a)}, {fall(y)});
  auto cm = concretize(m);
  std::size_t vc = cm.input_var(c);
  int pinned = 0;
  for (const auto& t : cm.transitions)
    if (t.trans.get(vc) != Cube::V::kFree) ++pinned;
  EXPECT_GE(pinned, 2) << "sampled transitions carry the condition literal";
}

TEST(FlowTable, DiffeqControllersConcretize) {
  Cdfg g = diffeq();
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  for (auto& c : extract_controllers(g, res.plan)) {
    run_local_transforms(c);
    auto cm = concretize(c.machine, &c.bindings);
    EXPECT_GE(cm.states.size(), c.machine.state_count()) << c.machine.name();
    EXPECT_LE(cm.states.size(), 8 * c.machine.state_count())
        << c.machine.name() << ": phase splitting exploded";
    EXPECT_FALSE(cm.transitions.empty());
  }
}

TEST(FlowTable, BindingsTightenConditionalTracking) {
  // With bindings the ALU2 controller knows when C is stable, producing
  // fewer or equal concrete states and more pinned condition literals.
  Cdfg g = diffeq();
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  for (auto& c : extract_controllers(g, res.plan)) {
    if (g.fu(c.fu).name != "ALU2") continue;
    run_local_transforms(c);
    auto with = concretize(c.machine, &c.bindings);
    auto without = concretize(c.machine, nullptr);
    std::size_t vc_with = with.input_var(*c.machine.find_signal("c_C"));
    int pinned_with = 0, pinned_without = 0;
    for (const auto& t : with.transitions)
      if (t.start.get(vc_with) != Cube::V::kFree) ++pinned_with;
    for (const auto& t : without.transitions)
      if (t.start.get(vc_with) != Cube::V::kFree) ++pinned_without;
    EXPECT_GT(pinned_with, pinned_without);
  }
}

TEST(FlowTable, StateExplosionGuard) {
  // Pathological: many independent odd-parity wires would explode; the
  // concretizer must throw rather than hang.
  Xbm m("boom");
  StateId s = m.add_state();
  m.set_initial(s);
  std::vector<SignalId> wires;
  for (int i = 0; i < 16; ++i)
    wires.push_back(m.add_signal("w" + std::to_string(i), SignalKind::kInput,
                                 SignalRole::kGlobalReady));
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kGlobalReady);
  StateId cur = s;
  // A long chain where each step consumes one wire and leaves the rest in
  // ddc windows — every subset of arrivals becomes a distinct signature.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 16; ++i) {
      StateId next = m.add_state();
      std::vector<XbmEdge> in{toggle(wires[static_cast<std::size_t>(i)])};
      for (int j = 0; j < 16; ++j)
        if (j != i) in.push_back(ddc(toggle(wires[static_cast<std::size_t>(j)])));
      m.add_transition(cur, next, in, {toggle(y)});
      cur = next;
    }
  }
  m.add_transition(cur, s, {toggle(wires[0])}, {toggle(y)});
  EXPECT_NO_THROW({
    try {
      concretize(m);
    } catch (const std::runtime_error&) {
      // acceptable: the guard fired
    }
  });
}

}  // namespace
}  // namespace adc
