// Per-controller synthesis keyed by content: the key must see every field
// of an extracted controller, and an executor that shares controllers
// between recipes and programs must produce exactly what a cacheless one
// does — point JSON, provenance and covers, byte for byte.

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "logic/minimize.hpp"
#include "logic/netlist.hpp"
#include "runtime/flow.hpp"
#include "xbm/print.hpp"

namespace adc {
namespace {

// A copy of `m` under another name (Xbm fixes its name at construction).
Xbm renamed(const Xbm& m, const std::string& name) {
  Xbm out(name);
  for (const XbmSignal& s : m.signals())
    out.add_signal(s.name, s.kind, s.role, s.initial_value);
  for (const XbmState& st : m.state_slots()) out.state(out.add_state(st.name)).alive = st.alive;
  for (const XbmTransition& t : m.transition_slots()) {
    XbmTransition& nt =
        out.transition(out.add_transition(t.from(), t.to(), t.inputs, t.outputs, t.conds));
    nt.origin = t.origin;
    nt.note = t.note;
    nt.alive = t.alive;
  }
  out.set_initial(m.initial());
  return out;
}

// The first live transition of `c` whose `pick` burst is non-empty.
XbmTransition& transition_with(ExtractedController& c,
                               const std::function<bool(const XbmTransition&)>& pick) {
  for (TransitionId id : c.machine.transition_ids())
    if (pick(c.machine.transition(id))) return c.machine.transition(id);
  throw std::logic_error("no such transition");
}

ExtractedController diffeq_alu() {
  Cdfg g = diffeq();
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  for (ExtractedController& c : extract_controllers(g, res.plan))
    if (!c.bindings.empty() && c.machine.transition_count() > 0) return std::move(c);
  throw std::logic_error("no controller");
}

TEST(ControllerKey, EveryFieldIsInTheKey) {
  const ExtractedController base = diffeq_alu();
  const Fingerprint base_fp = fingerprint(base);
  EXPECT_TRUE(fingerprint(base) == base_fp);  // deterministic
  {
    ExtractedController same = base;
    same.machine = renamed(base.machine, base.machine.name());
    EXPECT_TRUE(fingerprint(same) == base_fp) << "the renaming helper changed the machine";
  }

  using Edit = std::function<void(ExtractedController&)>;
  auto any_input = [](const XbmTransition& t) { return !t.inputs.empty(); };
  auto any_output = [](const XbmTransition& t) { return !t.outputs.empty(); };
  auto first_binding = [](ExtractedController& c) -> SignalBinding& {
    return c.bindings.begin()->second;
  };
  const std::vector<std::pair<std::string, Edit>> edits = {
      {"fu", [](auto& c) { c.fu = FuId(c.fu.value() + 1); }},
      {"machine name", [](auto& c) { c.machine = renamed(c.machine, c.machine.name() + "x"); }},
      {"initial state",
       [](auto& c) { c.machine.set_initial(StateId(c.machine.initial().value() + 1)); }},
      {"signal id", [](auto& c) { c.machine.signal(SignalId(0u)).id = SignalId(99u); }},
      {"signal name", [](auto& c) { c.machine.signal(SignalId(0u)).name += "x"; }},
      {"signal kind",
       [](auto& c) {
         auto& s = c.machine.signal(SignalId(0u));
         s.kind = s.kind == SignalKind::kInput ? SignalKind::kOutput : SignalKind::kInput;
       }},
      {"signal role",
       [](auto& c) {
         auto& s = c.machine.signal(SignalId(0u));
         s.role = s.role == SignalRole::kLatch ? SignalRole::kLatchAck : SignalRole::kLatch;
       }},
      {"signal initial value",
       [](auto& c) {
         auto& s = c.machine.signal(SignalId(0u));
         s.initial_value = !s.initial_value;
       }},
      {"state id", [](auto& c) { c.machine.state(StateId(0u)).id = StateId(99u); }},
      {"state name", [](auto& c) { c.machine.state(StateId(0u)).name += "x"; }},
      {"state alive", [](auto& c) { c.machine.remove_state(StateId(0u)); }},
      {"transition id",
       [&](auto& c) { transition_with(c, any_input).id = TransitionId(999u); }},
      {"transition from",
       [&](auto& c) {
         auto& t = transition_with(c, any_input);
         c.machine.set_from(t.id, StateId(t.from().value() + 1));
       }},
      {"transition to",
       [&](auto& c) {
         auto& t = transition_with(c, any_input);
         c.machine.set_to(t.id, StateId(t.to().value() + 1));
       }},
      {"input edge signal",
       [&](auto& c) {
         auto& e = transition_with(c, any_input).inputs.front();
         e.signal = SignalId(e.signal.value() + 1);
       }},
      {"input edge polarity",
       [&](auto& c) {
         auto& e = transition_with(c, any_input).inputs.front();
         e.polarity = e.polarity == EdgePolarity::kRising ? EdgePolarity::kFalling
                                                          : EdgePolarity::kRising;
       }},
      {"input directed don't-care",
       [&](auto& c) {
         auto& e = transition_with(c, any_input).inputs.front();
         e.directed_dont_care = !e.directed_dont_care;
       }},
      {"input burst size",
       [&](auto& c) {
         auto& t = transition_with(c, any_input);
         t.inputs.push_back(t.inputs.front());
       }},
      {"output edge polarity",
       [&](auto& c) {
         auto& e = transition_with(c, any_output).outputs.front();
         e.polarity = e.polarity == EdgePolarity::kRising ? EdgePolarity::kFalling
                                                          : EdgePolarity::kRising;
       }},
      {"output directed don't-care",
       [&](auto& c) {
         auto& e = transition_with(c, any_output).outputs.front();
         e.directed_dont_care = !e.directed_dont_care;
       }},
      {"output moved to the input burst",
       [&](auto& c) {
         auto& t = transition_with(c, any_output);
         t.inputs.push_back(t.outputs.front());
         t.outputs.erase(t.outputs.begin());
       }},
      {"cond added",
       [&](auto& c) { transition_with(c, any_input).conds.push_back({SignalId(0u), true}); }},
      {"origin",
       [&](auto& c) {
         auto& t = transition_with(c, any_input);
         t.origin = NodeId(t.origin.value() + 1);
       }},
      {"note", [&](auto& c) { transition_with(c, any_input).note += "x"; }},
      {"transition alive",
       [&](auto& c) { transition_with(c, any_input).alive = false; }},
      {"binding removed", [](auto& c) { c.bindings.erase(c.bindings.begin()); }},
      {"binding signal",
       [](auto& c) {
         auto node = c.bindings.extract(c.bindings.begin());
         node.key() += 1000;
         c.bindings.insert(std::move(node));
       }},
      {"binding role",
       [&](auto& c) {
         auto& b = first_binding(c);
         b.role = b.role == SignalRole::kLatch ? SignalRole::kLatchAck : SignalRole::kLatch;
       }},
      {"binding reg", [&](auto& c) { first_binding(c).reg += "x"; }},
      {"binding operand kind",
       [&](auto& c) {
         auto& o = first_binding(c).operand;
         o.kind = o.is_reg() ? Operand::Kind::kConst : Operand::Kind::kReg;
       }},
      {"binding operand reg", [&](auto& c) { first_binding(c).operand.reg += "x"; }},
      {"binding operand literal", [&](auto& c) { first_binding(c).operand.literal += 1; }},
      {"binding operand scale", [&](auto& c) { first_binding(c).operand.scale += 1; }},
      {"binding op",
       [&](auto& c) {
         auto& b = first_binding(c);
         b.op = b.op == RtlOp::kMove ? RtlOp::kAdd : RtlOp::kMove;
       }},
      {"binding channel",
       [&](auto& c) {
         auto& b = first_binding(c);
         b.channel = b.channel ? std::optional<ChannelId>{}
                               : std::optional<ChannelId>{ChannelId(0u)};
       }},
      {"binding channel id",
       [](auto& c) {
         for (auto& [sig, b] : c.bindings)
           if (b.channel) {
             b.channel = ChannelId(b.channel->value() + 1);
             return;
           }
         FAIL() << "no global wire";
       }},
      {"binding mux side", [&](auto& c) { first_binding(c).mux_side ^= 1; }},
  };
  for (const auto& [field, edit] : edits) {
    ExtractedController c = base;
    edit(c);
    EXPECT_FALSE(fingerprint(c) == base_fp) << field << " is not in the key";
  }

  // A sampled conditional: its signal and its value.
  ExtractedController cond = base;
  transition_with(cond, any_input).conds.push_back({SignalId(0u), true});
  ExtractedController value = cond;
  transition_with(value, any_input).conds.back().value = false;
  ExtractedController signal = cond;
  transition_with(signal, any_input).conds.back().signal = SignalId(1u);
  EXPECT_FALSE(fingerprint(value) == fingerprint(cond)) << "cond value is not in the key";
  EXPECT_FALSE(fingerprint(signal) == fingerprint(cond)) << "cond signal is not in the key";
}

// Why the key cannot be the machine's text: moving a transition to another
// CDFG node leaves the rendering as it was.
TEST(ControllerKey, OriginIsInvisibleToTheMachineText) {
  const ExtractedController base = diffeq_alu();
  ExtractedController moved = base;
  XbmTransition& t = moved.machine.transition(moved.machine.transition_ids().front());
  t.origin = NodeId(t.origin.value() + 1);
  EXPECT_EQ(to_text(moved.machine), to_text(base.machine));
  EXPECT_FALSE(fingerprint(moved) == fingerprint(base));
}

// The cold DIFFEQ grid synthesizes each distinct controller once.
TEST(ControllerCache, DiffeqGridSynthesizesItsDistinctControllersOnce) {
  std::vector<FlowRequest> reqs;
  for (const std::string& script : gt_ablation_grid(true))
    reqs.push_back(make_builtin_request(*find_builtin("diffeq"), script));
  FlowExecutor exec(nullptr);
  for (const FlowPoint& p : exec.run_all(reqs)) ASSERT_EQ(p.controllers.size(), 4u);
  const std::uint64_t total = exec.metrics().counter("flow.controllers").value();
  const std::uint64_t cached = exec.metrics().counter("flow.controllers_cached").value();
  EXPECT_EQ(total, 128u);
  EXPECT_EQ(cached, 57u);
  EXPECT_EQ(total - cached, 71u);
}

// --- differential: shared executor vs no cache ------------------------------

struct Rendered {
  std::string json;        // the point, wall-clock fields zeroed
  std::string provenance;  // the reconciled decision log; empty on error
  std::vector<std::string> covers;  // per controller: its equations
};

// Covers by controller, for points that all stay alive: a controller
// shared between them is minimized once.
using CoverCache = std::map<const SynthesizedController*, std::string>;

Rendered render(FlowPoint p, CoverCache* covers = nullptr) {
  Rendered r;
  if (p.provenance) r.provenance = p.provenance->to_json(false);
  if (p.artifacts)
    for (const auto& c : p.artifacts->controllers) {
      std::string fresh;
      std::string& text = covers ? (*covers)[c.get()] : fresh;
      if (text.empty()) text = to_equations(synthesize_logic(c->instance.controller));
      r.covers.push_back(text);
    }
  p.timings.clear();
  p.total_micros = 0;
  r.json = to_json(p);
  return r;
}

std::vector<FlowRequest> differential_requests() {
  std::vector<FlowRequest> reqs;
  for (const BuiltinBenchmark& b : builtin_benchmarks())
    for (const std::string& script : gt_ablation_grid(true))
      reqs.push_back(make_builtin_request(b, script));
  // Generated loops with moves, on a few recipes each; some are
  // unsynthesizable or deadlock, and those outcomes must match too.
  const std::vector<std::string> recipes = {kPaperRecipe, "gt1; gt2; gt4; gt2; lt",
                                            "gt1; gt2; gt3; lt"};
  for (int alus : {2, 3})
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      RandomProgramParams params;
      params.alus = alus;
      params.stmts = 8 + static_cast<int>(seed % 4) * 4;
      params.moves = true;
      const std::string name = "rand_a" + std::to_string(alus) + "_s" + std::to_string(seed);
      std::map<std::string, std::int64_t> init;
      for (int i = 0; i < params.regs; ++i)
        init[std::string("r").append(std::to_string(i))] = 3 * i + 1;
      init["n"] = 3;
      init["cond"] = 1;
      for (const std::string& script : recipes) {
        FlowRequest r;
        r.benchmark = name;
        r.make = [params, seed] { return random_program(params, seed); };
        r.script = script;
        r.init = init;
        reqs.push_back(std::move(r));
      }
    }
  for (FlowRequest& r : reqs) r.provenance = true;
  return reqs;
}

TEST(ControllerCache, SharedExecutorMatchesNoCacheByteForByte) {
  const std::vector<FlowRequest> reqs = differential_requests();
  ASSERT_GE(reqs.size(), 6u * 32u + 40u);

  FlowExecutor::Options cold_opts;
  cold_opts.cache_capacity = 0;
  FlowExecutor cold(nullptr, cold_opts);
  std::vector<Rendered> want;
  for (const FlowRequest& r : reqs) want.push_back(render(cold.run(r)));
  EXPECT_EQ(cold.metrics().counter("flow.controllers_cached").value(), 0u);

  ThreadPool pool(2);
  FlowExecutor shared(&pool);
  CoverCache shared_covers;
  const std::vector<FlowPoint> points = shared.run_all(reqs);
  // The sweep shares controllers across recipes and programs.
  EXPECT_GT(shared.metrics().counter("flow.controllers_cached").value(), 0u);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SCOPED_TRACE(reqs[i].benchmark + " [" + reqs[i].script + "]");
    const Rendered got = render(points[i], &shared_covers);
    EXPECT_EQ(got.json, want[i].json);
    EXPECT_EQ(got.provenance, want[i].provenance);
    EXPECT_EQ(got.covers, want[i].covers);
  }
}

}  // namespace
}  // namespace adc
