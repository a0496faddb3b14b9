#include <set>
#include <stdexcept>

#include "ltrans/common.hpp"
#include "xbm/validate.hpp"

namespace adc {

std::size_t live_signal_count(const Xbm& m, SignalKind kind) {
  std::set<SignalId::underlying> used;
  for (TransitionId tid : m.transition_ids()) {
    const auto& t = m.transition(tid);
    for (const auto& e : t.inputs) used.insert(e.signal.value());
    for (const auto& e : t.outputs) used.insert(e.signal.value());
    for (const auto& c : t.conds) used.insert(c.signal.value());
  }
  std::size_t n = 0;
  for (auto v : used)
    if (m.signal(SignalId{v}).kind == kind) ++n;
  return n;
}

LocalTransformResult run_local_transforms(ExtractedController& c,
                                          const LocalTransformOptions& opts) {
  LocalTransformResult res;
  res.stats.name = "LT pipeline (" + c.machine.name() + ")";
  Xbm& m = c.machine;
  const SignalBindings& b = c.bindings;
  if (m.transition_ids().empty()) return res;  // unused functional unit

  auto check = [&m](const char* stage) {
    auto errors = validate(m);
    if (!errors.empty()) {
      std::string msg = std::string("LT pipeline broke '") + m.name() + "' at " + stage + ":";
      for (const auto& e : errors) msg += "\n  - " + e;
      throw std::runtime_error(msg);
    }
  };

  if (opts.lt1_move_up_dones) {
    int n = lt1_move_up(m, b);
    if (n) {
      res.stats.note("LT1 moved " + std::to_string(n) + " done signal(s) up");
      res.stats.decide("lt1", "dones_moved_up")
          .field("controller", m.name())
          .field("count", static_cast<std::int64_t>(n));
    }
    check("LT1");
  }
  if (opts.lt4_remove_acks) {
    int n = lt4_remove_acks(m, b);
    if (n) {
      res.stats.note("LT4 removed " + std::to_string(n) + " acknowledge edge(s)");
      res.stats.decide("lt4", "ack_edges_removed")
          .field("controller", m.name())
          .field("count", static_cast<std::int64_t>(n));
    }
  }
  if (opts.lt2_move_down_resets || opts.lt4_remove_acks) {
    // After LT4 the reset phases' own handshake rounds are gone; the
    // falling edges must migrate into the next operation's start burst for
    // the orphaned transitions to fold — so LT4 implies this cleanup.
    int n = lt2_move_down(m, b);
    if (n) {
      res.stats.note("LT2 moved " + std::to_string(n) + " reset phase(s) down");
      res.stats.decide("lt2", "resets_moved_down")
          .field("controller", m.name())
          .field("count", static_cast<std::int64_t>(n));
    }
  }
  if (opts.lt4_remove_acks || opts.lt2_move_down_resets) {
    if (int n = fold_trivial_transitions(m, &b); n > 0)
      res.stats.decide("lt", "transitions_folded")
          .field("controller", m.name())
          .field("after", "LT4+LT2")
          .field("count", static_cast<std::int64_t>(n));
    check("LT4+LT2");
  }
  if (opts.lt3_mux_preselection) {
    int n = lt3_mux_preselection(m, b);
    if (n) {
      res.stats.note("LT3 preselected/elided " + std::to_string(n) + " select edge(s)");
      res.stats.decide("lt3", "selects_preselected")
          .field("controller", m.name())
          .field("count", static_cast<std::int64_t>(n));
    }
    check("LT3");
  }
  // Folding opportunities opened by LT2/LT3 migrations.
  if (int n = fold_trivial_transitions(m, &b); n > 0) {
    res.stats.note("folded " + std::to_string(n) + " trivial transition(s)");
    res.stats.decide("lt", "transitions_folded")
        .field("controller", m.name())
        .field("after", "LT2+LT3")
        .field("count", static_cast<std::int64_t>(n));
  }
  check("fold");
  if (opts.lt5_signal_sharing) {
    std::size_t first_new = res.shared_signals.size();
    int n = lt5_signal_sharing(m, b, res.shared_signals);
    if (n) res.stats.note("LT5 shared " + std::to_string(n) + " output wire(s)");
    for (std::size_t i = first_new; i < res.shared_signals.size(); ++i)
      res.stats.decide("lt5", "signals_shared")
          .field("controller", m.name())
          .field("kept", res.shared_signals[i].first)
          .field("dropped", res.shared_signals[i].second);
    check("LT5");
  }
  m.sweep_dead_states();
  return res;
}

}  // namespace adc
