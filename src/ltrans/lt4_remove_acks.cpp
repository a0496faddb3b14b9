// LT4 "remove acknowledgments" (paper §5.4): local acknowledge wires whose
// handshakes are covered by user-supplied timing assumptions (bounded mux /
// register / latch response, prompt FU-done reset) are deleted, and the
// transitions left without a trigger are folded away.  The FU's *rising*
// done edge is always kept — operation latency is genuinely variable —
// but becomes a transition-signalled (pulse) edge once its reset phase is
// no longer observed.

#include <set>

#include "ltrans/common.hpp"

namespace adc {

using namespace detail;

namespace {

// Appends an input edge, deduplicating by signal: a compulsory edge
// upgrades an existing directed don't-care mark.
void append_input(std::vector<XbmEdge>& burst, const XbmEdge& e) {
  for (auto& have : burst) {
    if (have.signal != e.signal) continue;
    if (have.directed_dont_care && !e.directed_dont_care) have = e;
    return;
  }
  burst.push_back(e);
}

void append_cond(std::vector<CondTerm>& conds, const CondTerm& c) {
  for (const auto& have : conds)
    if (have.signal == c.signal) return;
  conds.push_back(c);
}

}  // namespace

int fold_trivial_transitions(Xbm& m, const SignalBindings* bindings) {
  int folded = 0;
  bool changed = true;
  while (changed) {
    changed = false;

    // (a) No trigger left: fold outputs into the predecessors and splice.
    for (TransitionId tid : m.transition_ids()) {
      XbmTransition& t = m.transition(tid);
      bool compulsory = false;
      for (const auto& e : t.inputs)
        if (!e.directed_dont_care) compulsory = true;
      if (compulsory || !t.conds.empty()) continue;
      StateId s = t.from();
      if (s == m.initial()) continue;
      if (m.out_transitions(s).size() != 1) continue;
      auto preds = m.in_transitions(s);
      if (preds.empty()) continue;
      bool conflict = false;
      for (TransitionId pid : preds)
        for (const auto& e : t.outputs)
          if (burst_has_signal(m.transition(pid).outputs, e.signal)) conflict = true;
      if (conflict) {
        // Partial fold: falling local edges that do not conflict may still
        // retire onto the predecessors (e.g. withdrawing the go request on
        // the completion burst); the rest stays for LT2 to move forward.
        for (const auto& e : t.outputs) {
          if (e.polarity != EdgePolarity::kFalling) continue;
          bool edge_conflict = false;
          for (TransitionId pid : preds)
            if (burst_has_signal(m.transition(pid).outputs, e.signal)) edge_conflict = true;
          if (edge_conflict) continue;
          for (TransitionId pid : preds) m.transition(pid).outputs.push_back(e);
          erase_edge(t.outputs, e.signal);
          ++folded;
          changed = true;
          break;  // t.outputs changed; restart scan
        }
        continue;
      }
      for (TransitionId pid : preds) {
        XbmTransition& p = m.transition(pid);
        for (const auto& e : t.outputs) p.outputs.push_back(e);
        for (const auto& e : t.inputs) append_input(p.inputs, e);  // remaining ddc marks
        m.set_to(pid, t.to());
      }
      m.remove_transition(tid);
      m.remove_state(s);
      ++folded;
      changed = true;
    }

    // (b) No outputs: merge the trigger into the successor transitions.
    for (TransitionId tid : m.transition_ids()) {
      XbmTransition& t = m.transition(tid);
      if (!t.outputs.empty()) continue;
      StateId s = t.to();
      if (s == m.initial() || s == t.from()) continue;
      if (m.in_transitions(s).size() != 1) continue;
      auto succs = m.out_transitions(s);
      if (succs.empty()) continue;
      // Only two *compulsory* waits on one wire clash; don't-care marks
      // merge freely (append_input dedupes them).
      bool conflict = false;
      for (TransitionId uid : succs)
        for (const auto& e : t.inputs) {
          if (e.directed_dont_care) continue;
          for (const auto& ue : m.transition(uid).inputs)
            if (ue.signal == e.signal && !ue.directed_dont_care) conflict = true;
        }
      if (conflict) continue;
      for (TransitionId uid : succs) {
        XbmTransition& u = m.transition(uid);
        for (const auto& e : t.inputs) append_input(u.inputs, e);
        for (const auto& c : t.conds) append_cond(u.conds, c);
        m.set_from(uid, t.from());
      }
      m.remove_transition(tid);
      m.remove_state(s);
      ++folded;
      changed = true;
    }

    // (c) Branch absorption: a conditional split whose alternatives lost
    // their trigger rides on the unique incoming transition instead (the
    // test samples its conditionals on that burst).
    for (StateId s : m.state_ids()) {
      if (s == m.initial()) continue;
      auto ins = m.in_transitions(s);
      auto outs = m.out_transitions(s);
      if (ins.size() != 1 || outs.size() < 2) continue;
      bool all_triggerless = true;
      for (TransitionId uid : outs) {
        for (const auto& e : m.transition(uid).inputs)
          if (!e.directed_dont_care) all_triggerless = false;
        if (m.transition(uid).conds.empty()) all_triggerless = false;
      }
      if (!all_triggerless) continue;
      XbmTransition p = m.transition(ins.front());  // snapshot
      bool conflict = false;
      for (TransitionId uid : outs)
        for (const auto& e : m.transition(uid).outputs)
          if (burst_has_signal(p.outputs, e.signal)) conflict = true;
      if (conflict) continue;
      for (TransitionId uid : outs) {
        XbmTransition u = m.transition(uid);  // snapshot
        TransitionId nid = m.add_transition(p.from(), u.to(), p.inputs, p.outputs, p.conds);
        XbmTransition& fused = m.transition(nid);
        for (const auto& e : u.inputs) append_input(fused.inputs, e);
        for (const auto& e : u.outputs) fused.outputs.push_back(e);
        for (const auto& c : u.conds) append_cond(fused.conds, c);
        fused.origin = u.origin;
        fused.note = p.note + " + " + u.note;
        m.remove_transition(uid);
      }
      m.remove_transition(ins.front());
      m.remove_state(s);
      ++folded;
      changed = true;
      break;  // containers changed; restart the scan
    }

    // (e) Deferred assignment: when an assignment's strobes ride the FU
    // done-reset right after another write to the same register, the reset
    // between the two writes has no separating event.  Defer the strobes
    // (and any dones accompanying them) to the next request transition —
    // the assignment executes in parallel with the next operation, which
    // GT4 already establishes is safe — freeing the done-reset event for
    // the stuck reset transition.
    if (!changed && bindings) {
      for (TransitionId uid : m.transition_ids()) {
        XbmTransition& u = m.transition(uid);
        if (u.outputs.empty() || !u.conds.empty()) continue;
        int compulsory = 0;
        bool done_reset_only = true;
        for (const auto& e : u.inputs) {
          if (e.directed_dont_care) continue;
          ++compulsory;
          auto it = bindings->find(e.signal.value());
          if (it == bindings->end() || it->second.role != SignalRole::kFuDone ||
              e.polarity != EdgePolarity::kFalling)
            done_reset_only = false;
        }
        if (compulsory != 1 || !done_reset_only) continue;
        // Only act when a stuck triggerless transition precedes us.
        auto preds = m.in_transitions(u.from());
        bool stuck_before = false;
        for (TransitionId pid : preds) {
          bool pc = false;
          for (const auto& e : m.transition(pid).inputs)
            if (!e.directed_dont_care) pc = true;
          if (!pc) stuck_before = true;
        }
        if (!stuck_before) continue;
        auto succ = chain_succ(m, uid);
        if (!succ) continue;
        XbmTransition& s = m.transition(*succ);
        bool s_has_request = false;
        for (const auto& e : s.inputs) {
          if (e.directed_dont_care) continue;
          auto it = bindings->find(e.signal.value());
          if (it != bindings->end() && (it->second.role == SignalRole::kGlobalReady ||
                                        it->second.role == SignalRole::kEnvironment))
            s_has_request = true;
        }
        if (!s_has_request) continue;
        // Resolve conflicts: the strobes' own falling edges sitting in the
        // successor move one transition further first.
        bool blocked = false;
        std::vector<SignalId> displaced;
        for (const auto& e : u.outputs)
          if (burst_has_signal(s.outputs, e.signal)) displaced.push_back(e.signal);
        std::optional<TransitionId> succ2;
        if (!displaced.empty()) {
          succ2 = chain_succ(m, *succ);
          if (!succ2) blocked = true;
          for (SignalId d : displaced)
            if (succ2 && burst_has_signal(m.transition(*succ2).outputs, d)) blocked = true;
        }
        if (blocked) continue;
        for (SignalId d : displaced) {
          for (auto& e : s.outputs) {
            if (e.signal != d) continue;
            m.transition(*succ2).outputs.push_back(e);
          }
          erase_edge(s.outputs, d);
        }
        for (const auto& e : u.outputs) s.outputs.push_back(e);
        u.outputs.clear();
        ++folded;
        changed = true;
        break;
      }
    }

    // (d) Re-trigger: a transition stuck without a compulsory edge whose
    // predecessors withdraw the FU go request is legitimately triggered by
    // the done indicator's reset (it falls once go is withdrawn).
    if (!changed && bindings) {
      for (TransitionId tid : m.transition_ids()) {
        XbmTransition& t = m.transition(tid);
        bool compulsory = false;
        for (const auto& e : t.inputs)
          if (!e.directed_dont_care) compulsory = true;
        if (compulsory) continue;
        auto preds = m.in_transitions(t.from());
        if (preds.empty()) continue;
        std::optional<SignalId> fudone;
        bool all_withdraw_go = true;
        for (TransitionId pid : preds) {
          bool withdraws = false;
          for (const auto& e : m.transition(pid).outputs) {
            auto it = bindings->find(e.signal.value());
            if (it == bindings->end()) continue;
            if (it->second.role == SignalRole::kFuGo &&
                e.polarity == EdgePolarity::kFalling)
              withdraws = true;
          }
          if (!withdraws) all_withdraw_go = false;
        }
        for (const auto& [sid, binding] : *bindings)
          if (binding.role == SignalRole::kFuDone) fudone = SignalId{sid};
        if (!all_withdraw_go || !fudone) {
          // (g) Last resort — assign-only sequencing: nothing but the latch
          // handshake separates the strobe from its reset, so that one
          // acknowledge is restored (LT4 keeps it).  The rising phase
          // triggers the stuck reset; the falling phase is consumed by the
          // successor bursts.
          std::optional<SignalId> ack;
          for (const auto& e : t.outputs) {
            if (e.polarity != EdgePolarity::kFalling) continue;
            auto eb = bindings->find(e.signal.value());
            if (eb == bindings->end() || eb->second.role != SignalRole::kLatch) continue;
            for (const auto& [sid, sb] : *bindings)
              if (sb.role == SignalRole::kLatchAck && sb.reg == eb->second.reg)
                ack = SignalId{sid};
          }
          if (!ack) continue;
          auto succs2 = m.out_transitions(t.to());
          bool all_ok = !succs2.empty();
          for (TransitionId uid : succs2) {
            bool has_compulsory = false;
            for (const auto& e : m.transition(uid).inputs)
              if (!e.directed_dont_care && e.signal != *ack) has_compulsory = true;
            if (!has_compulsory || burst_has_signal(m.transition(uid).inputs, *ack))
              all_ok = false;
          }
          if (!all_ok) continue;
          t.inputs.push_back(rise(*ack));
          for (TransitionId uid : succs2) m.transition(uid).inputs.push_back(fall(*ack));
          ++folded;
          changed = true;
          continue;
        }
        // If a successor already consumes the done reset, the wait migrates
        // here (one wire event, consumed once, just earlier) — provided the
        // successor keeps another compulsory trigger.
        bool can_take = true;
        std::vector<TransitionId> donors;
        for (TransitionId uid : m.out_transitions(t.to())) {
          XbmTransition& u = m.transition(uid);
          bool waits = false;
          int compulsory_count = 0;
          for (const auto& e : u.inputs) {
            if (e.directed_dont_care) continue;
            ++compulsory_count;
            if (e.signal == *fudone && e.polarity == EdgePolarity::kFalling) waits = true;
          }
          if (!waits) continue;
          if (compulsory_count < 2) {
            can_take = false;
            break;
          }
          donors.push_back(uid);
        }
        if (!can_take) continue;
        for (TransitionId uid : donors) erase_edge(m.transition(uid).inputs, *fudone);
        t.inputs.push_back(fall(*fudone));
        ++folded;
        changed = true;
      }
    }
  }
  m.sweep_dead_states();
  return folded;
}

int lt4_remove_acks(Xbm& m, const SignalBindings& b) {
  int removed_edges = 0;
  for (TransitionId tid : m.transition_ids()) {
    XbmTransition& t = m.transition(tid);
    std::vector<XbmEdge> kept;
    for (auto e : t.inputs) {
      SignalRole r = role_of(b, e.signal);
      if (is_local_ack(r)) {
        ++removed_edges;
        continue;
      }
      // The FU done indicator is never removed: operation latency is the
      // one genuinely unbounded handshake.  Its reset-phase wait typically
      // migrates into the next operation's request burst during folding.
      kept.push_back(e);
    }
    t.inputs = std::move(kept);
  }
  // Note: the FU-done re-trigger (fold step d) is not used here — LT2 must
  // first get the chance to migrate the orphaned reset phases forward; the
  // pipeline's later fold passes supply the bindings.
  fold_trivial_transitions(m);
  return removed_edges;
}

}  // namespace adc
