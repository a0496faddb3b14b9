// XBM machine IR: construction, queries, validation rules, printing.

#include <gtest/gtest.h>

#include "xbm/print.hpp"
#include "xbm/validate.hpp"
#include "xbm/xbm.hpp"

namespace adc {
namespace {

// A minimal valid two-state 4-phase machine: req+/ack+ then req-/ack-.
Xbm handshake() {
  Xbm m("hs");
  SignalId req = m.add_signal("req", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId ack = m.add_signal("ack", SignalKind::kOutput, SignalRole::kLatch);
  StateId s0 = m.add_state("s0");
  StateId s1 = m.add_state("s1");
  m.set_initial(s0);
  m.add_transition(s0, s1, {rise(req)}, {rise(ack)});
  m.add_transition(s1, s0, {fall(req)}, {fall(ack)});
  return m;
}

TEST(Xbm, HandshakeValidates) {
  Xbm m = handshake();
  EXPECT_TRUE(validate(m).empty());
  EXPECT_EQ(m.state_count(), 2u);
  EXPECT_EQ(m.transition_count(), 2u);
  EXPECT_EQ(m.input_count(), 1u);
  EXPECT_EQ(m.output_count(), 1u);
}

TEST(Xbm, DuplicateSignalNameRejected) {
  Xbm m("d");
  m.add_signal("x", SignalKind::kInput, SignalRole::kGlobalReady);
  EXPECT_THROW(m.add_signal("x", SignalKind::kOutput, SignalRole::kLatch),
               std::invalid_argument);
}

TEST(Xbm, PolarityViolationDetected) {
  Xbm m("p");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kLatch);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  m.set_initial(s0);
  m.add_transition(s0, s1, {rise(a)}, {rise(y)});
  m.add_transition(s1, s0, {rise(a)}, {fall(y)});  // a rises twice: invalid
  auto errors = validate(m);
  bool found = false;
  for (const auto& e : errors)
    if (e.find("already") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(Xbm, TogglePolarityIsPhaseFree) {
  Xbm m("t");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kGlobalReady);
  StateId s0 = m.add_state();
  m.set_initial(s0);
  m.add_transition(s0, s0, {toggle(a)}, {toggle(y)});  // odd cycle: fine for toggles
  EXPECT_TRUE(validate(m).empty());
}

TEST(Xbm, MaximalSetViolationDetected) {
  // Burst {a+} is a subset of {a+, b+} out of the same state with no
  // distinguishing conditional.
  Xbm m("ms");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId b = m.add_signal("b", SignalKind::kInput, SignalRole::kGlobalReady);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  StateId s2 = m.add_state();
  m.set_initial(s0);
  m.add_transition(s0, s1, {rise(a)}, {});
  m.add_transition(s0, s2, {rise(a), rise(b)}, {});
  auto errors = validate(m);
  bool found = false;
  for (const auto& e : errors)
    if (e.find("maximal-set") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(Xbm, ConditionalsDistinguishEqualBursts) {
  Xbm m("cond");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId c = m.add_signal("c", SignalKind::kInput, SignalRole::kConditional);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  m.set_initial(s0);
  m.add_transition(s0, s1, {toggle(a)}, {}, {CondTerm{c, true}});
  m.add_transition(s0, s0, {toggle(a)}, {}, {CondTerm{c, false}});
  EXPECT_TRUE(validate(m).empty());
}

TEST(Xbm, EmptyCompulsoryBurstRejected) {
  Xbm m("e");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  m.set_initial(s0);
  m.add_transition(s0, s1, {ddc(toggle(a))}, {});
  auto errors = validate(m);
  bool found = false;
  for (const auto& e : errors)
    if (e.find("compulsory") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(Xbm, UnreachableStateDetected) {
  Xbm m = handshake();
  m.add_state("island");
  auto errors = validate(m);
  bool found = false;
  for (const auto& e : errors)
    if (e.find("unreachable") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(Xbm, OutputInInputBurstRejected) {
  Xbm m("mix");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kLatch);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  m.set_initial(s0);
  m.add_transition(s0, s1, {rise(y)}, {rise(a)});
  auto errors = validate(m);
  EXPECT_GE(errors.size(), 2u);
}

TEST(Xbm, SweepDeadStates) {
  Xbm m = handshake();
  StateId orphan = m.add_state("orphan");
  m.sweep_dead_states();
  EXPECT_FALSE(m.state(orphan).alive);
  EXPECT_EQ(m.state_count(), 2u);
}

TEST(Xbm, InOutTransitionQueries) {
  Xbm m = handshake();
  StateId s0 = m.initial();
  EXPECT_EQ(m.out_transitions(s0).size(), 1u);
  EXPECT_EQ(m.in_transitions(s0).size(), 1u);
}

TEST(Xbm, PrintContainsSignalsAndBursts) {
  Xbm m = handshake();
  std::string text = to_text(m);
  EXPECT_NE(text.find("inputs req=0"), std::string::npos);
  EXPECT_NE(text.find("outputs ack=0"), std::string::npos);
  EXPECT_NE(text.find("req+ / ack+"), std::string::npos);
  EXPECT_NE(text.find("req- / ack-"), std::string::npos);
}

TEST(Xbm, PrintMarksDdcAndToggle) {
  Xbm m("marks");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId b = m.add_signal("b", SignalKind::kInput, SignalRole::kGlobalReady);
  StateId s0 = m.add_state();
  m.set_initial(s0);
  m.add_transition(s0, s0, {toggle(a), ddc(toggle(b))}, {});
  std::string text = to_text(m);
  EXPECT_NE(text.find("a~"), std::string::npos);
  EXPECT_NE(text.find("b~*"), std::string::npos);
}

// --- validate's exact messages --------------------------------------------
// One crafted machine per error class.  Each test asserts the whole list in
// order: per live transition in id order, then ambiguous bursts per live
// state, then the BFS from the initial state, then unreachable states.

using Errors = std::vector<std::string>;

// Inputs a, b, c and outputs y, z: global-ready (toggle-signalled) wires,
// so edges on them carry no level and only the checks under test fire.
struct Wires {
  Xbm m;
  SignalId a, b, c, y, z;
  explicit Wires(const std::string& name) : m(name) {
    a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
    b = m.add_signal("b", SignalKind::kInput, SignalRole::kGlobalReady);
    c = m.add_signal("c", SignalKind::kInput, SignalRole::kGlobalReady);
    y = m.add_signal("y", SignalKind::kOutput, SignalRole::kGlobalReady);
    z = m.add_signal("z", SignalKind::kOutput, SignalRole::kGlobalReady);
  }
};

TEST(XbmValidate, MissingInitialState) {
  Wires w("mi");
  StateId s0 = w.m.add_state();
  w.m.add_transition(s0, s0, {toggle(w.a)}, {toggle(w.y)});
  w.m.remove_state(s0);
  EXPECT_EQ(validate(w.m), (Errors{"missing initial state"}));
}

TEST(XbmValidate, DeadStateTouch) {
  Wires w("d");
  StateId s0 = w.m.add_state();
  StateId s1 = w.m.add_state();
  w.m.add_transition(s0, s1, {toggle(w.a)}, {toggle(w.y)});
  w.m.add_transition(s1, s0, {toggle(w.b)}, {toggle(w.y)});
  w.m.remove_state(s1);
  EXPECT_EQ(validate(w.m),
            (Errors{"d s0->s1: touches dead state", "d s1->s0: touches dead state"}));
}

TEST(XbmValidate, OutputInInputBurst) {
  Wires w("o");
  StateId s0 = w.m.add_state();
  w.m.add_transition(s0, s0, {toggle(w.a), toggle(w.y)}, {toggle(w.z)});
  EXPECT_EQ(validate(w.m), (Errors{"o s0->s0: output y in input burst"}));
}

TEST(XbmValidate, NoCompulsoryEdge) {
  Wires w("n");
  StateId s0 = w.m.add_state();
  StateId s1 = w.m.add_state();
  w.m.add_transition(s0, s1, {ddc(toggle(w.a))}, {toggle(w.y)});
  w.m.add_transition(s1, s0, {}, {toggle(w.y)});
  EXPECT_EQ(validate(w.m), (Errors{"n s0->s1: no compulsory edge in input burst",
                                   "n s1->s0: no compulsory edge in input burst"}));
}

TEST(XbmValidate, InputInOutputBurst) {
  Wires w("i");
  StateId s0 = w.m.add_state();
  w.m.add_transition(s0, s0, {toggle(w.a)}, {toggle(w.b), toggle(w.y)});
  EXPECT_EQ(validate(w.m), (Errors{"i s0->s0: input b in output burst"}));
}

TEST(XbmValidate, ConditionalOnNonConditionalSignal) {
  Wires w("c");
  StateId s0 = w.m.add_state();
  w.m.add_transition(s0, s0, {toggle(w.a)}, {toggle(w.y)}, {CondTerm{w.b, true}});
  EXPECT_EQ(validate(w.m), (Errors{"c s0->s0: conditional on non-conditional signal b"}));
}

TEST(XbmValidate, SignalTwiceAndThriceInABurst) {
  Wires w("t");
  StateId s0 = w.m.add_state();
  StateId s1 = w.m.add_state();
  w.m.add_transition(s0, s1, {toggle(w.a), toggle(w.b), toggle(w.a)}, {toggle(w.y)});
  w.m.add_transition(s1, s0, {toggle(w.c)},
                     {toggle(w.z), toggle(w.y), toggle(w.z), toggle(w.z)});
  EXPECT_EQ(validate(w.m), (Errors{"t s0->s1: signal twice in input burst",
                                   "t s1->s0: signal twice in output burst",
                                   "t s1->s0: signal twice in output burst"}));
}

TEST(XbmValidate, MaximalSetViolationPerPair) {
  // Out of s0, five of the six pairs are ambiguous: only {a | c+} and
  // {a | c-} are told apart, by c.  Out of s1 a don't-care edge is not
  // compulsory, so {b*, a} and {b} are not nested.
  Xbm m("ms");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId b = m.add_signal("b", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId c = m.add_signal("c", SignalKind::kInput, SignalRole::kConditional);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  m.add_transition(s0, s1, {toggle(a)}, {});
  m.add_transition(s0, s1, {toggle(a), toggle(b)}, {});
  m.add_transition(s0, s1, {toggle(a)}, {}, {CondTerm{c, true}});
  m.add_transition(s0, s1, {toggle(a)}, {}, {CondTerm{c, false}});
  m.add_transition(s1, s0, {ddc(toggle(b)), toggle(a)}, {});
  m.add_transition(s1, s0, {toggle(b)}, {});
  const std::string v = "ms state s0: ambiguous input bursts (maximal-set violation)";
  EXPECT_EQ(validate(m), (Errors{v, v, v, v, v}));
}

TEST(XbmValidate, PolarityErrorsNameTheirBurst) {
  // y starts high and b low; an edge that finds its wire already at the
  // target level leaves it there, so the values agree back at s0.
  Xbm m("p");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kLatchAck);
  SignalId b = m.add_signal("b", SignalKind::kInput, SignalRole::kMuxAck);
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kLatch, true);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  m.add_transition(s0, s1, {rise(a)}, {rise(y)});
  m.add_transition(s1, s0, {fall(a), fall(b)}, {});
  EXPECT_EQ(validate(m), (Errors{"p s0->s1 (outputs): signal y+ but it is already 1",
                                 "p s1->s0 (inputs): signal b- but it is already 0"}));
}

TEST(XbmValidate, InconsistentValuesOnDifferentPaths) {
  // Two paths into s3: one raises a, the other does not; a third path
  // reaches s3 with the same values as the first and is not reported.
  Xbm m("v");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kLatchAck);
  SignalId b = m.add_signal("b", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kGlobalReady);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  StateId s2 = m.add_state();
  StateId s3 = m.add_state();
  m.add_transition(s0, s1, {rise(a)}, {toggle(y)});
  m.add_transition(s0, s2, {toggle(b)}, {toggle(y)});
  m.add_transition(s1, s3, {toggle(b)}, {});
  m.add_transition(s2, s3, {toggle(b)}, {});
  m.add_transition(s1, s3, {toggle(y)}, {});  // y is an output: also reported
  EXPECT_EQ(validate(m), (Errors{"v s1->s3: output y in input burst",
                                 "v state s3: inconsistent signal values on different paths"}));
}

TEST(XbmValidate, ConditionalLevelsAreTrackedOnlyOnceTheyMove) {
  // A conditional wire is not part of the initial values: an edge on it on
  // one path only makes the paths disagree, even when it falls back to its
  // initial level.
  Xbm m("k");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId b = m.add_signal("b", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId k = m.add_signal("k", SignalKind::kInput, SignalRole::kConditional);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  StateId s2 = m.add_state();
  m.add_transition(s0, s1, {toggle(a), rise(k)}, {});
  m.add_transition(s1, s2, {toggle(a), fall(k)}, {});
  m.add_transition(s0, s2, {toggle(b)}, {});
  EXPECT_EQ(validate(m),
            (Errors{"k state s2: inconsistent signal values on different paths"}));
}

TEST(XbmValidate, UnreachableStates) {
  Wires w("u");
  StateId s0 = w.m.add_state();
  StateId s1 = w.m.add_state("island");
  StateId s2 = w.m.add_state();
  w.m.add_transition(s0, s0, {toggle(w.a)}, {toggle(w.y)});
  w.m.add_transition(s1, s2, {toggle(w.a)}, {toggle(w.y)});
  EXPECT_EQ(validate(w.m), (Errors{"u state island: unreachable", "u state s2: unreachable"}));
}

TEST(XbmValidate, SeveralClassesKeepTheirOrder) {
  Xbm m("all");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kLatchAck);
  SignalId b = m.add_signal("b", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kLatch);
  SignalId z = m.add_signal("z", SignalKind::kOutput, SignalRole::kGlobalReady);
  StateId s0 = m.add_state();
  StateId s1 = m.add_state();
  StateId s2 = m.add_state();
  StateId s3 = m.add_state();
  StateId s4 = m.add_state("gone");
  m.add_transition(s0, s1, {rise(a)}, {rise(y), toggle(b)});
  m.add_transition(s0, s2, {rise(a), toggle(b)}, {rise(y)}, {CondTerm{b, false}});
  m.add_transition(s1, s0, {fall(a), ddc(toggle(z))}, {rise(y), toggle(z), toggle(z)});
  m.add_transition(s2, s0, {fall(a)}, {fall(y)});
  m.add_transition(s3, s4, {toggle(b), toggle(b)}, {});
  m.remove_state(s4);
  EXPECT_EQ(validate(m), (Errors{
                             "all s0->s1: input b in output burst",
                             "all s0->s2: conditional on non-conditional signal b",
                             "all s1->s0: output z in input burst",
                             "all s1->s0: signal twice in output burst",
                             "all s3->gone: touches dead state",
                             "all s3->gone: signal twice in input burst",
                             "all state s0: ambiguous input bursts (maximal-set violation)",
                             "all s1->s0 (outputs): signal y+ but it is already 1",
                             "all state s0: inconsistent signal values on different paths",
                             "all state s3: unreachable",
                         }));
}

}  // namespace
}  // namespace adc
