// LT2 "move-down" (paper §5.2): reset phases of local signals migrate to
// later bursts, where they ride along with the next operation's start
// instead of occupying their own handshake round trip.  A falling edge may
// not move past a transition that waits its own acknowledge response, and
// rests once it has joined a burst triggered by a global request, a
// conditional test or the FU completion.

#include "ltrans/common.hpp"

namespace adc {

using namespace detail;

namespace {

bool is_resting_place(const SignalBindings& b, const XbmTransition& t) {
  if (!t.conds.empty()) return true;
  for (const auto& e : t.inputs) {
    if (e.directed_dont_care) continue;
    SignalRole r = role_of(b, e.signal);
    if (is_global(r)) return true;
    if (r == SignalRole::kFuDone && e.polarity != EdgePolarity::kFalling) return true;
  }
  return false;
}

}  // namespace

namespace {

// A reset that belongs at the head of the ring cannot simply join the
// initial state's outgoing transition: on the very first execution the
// signal is still low and the falling edge would be inconsistent.  The
// classic fix is to split the initial state: a fresh initial state gets
// copies of the ring-entry transitions *without* the migrated resets (the
// first iteration), while the original state becomes the steady-state ring
// head that does carry them.
StateId split_initial(Xbm& m) {
  StateId old = m.initial();
  StateId fresh = m.add_state(m.state(old).name + "_first");
  for (TransitionId tid : m.out_transitions(old)) {
    XbmTransition t = m.transition(tid);  // snapshot
    TransitionId nid = m.add_transition(fresh, t.to(), t.inputs, t.outputs, t.conds);
    m.transition(nid).origin = t.origin;
    m.transition(nid).note = t.note + " (first iteration)";
  }
  m.set_initial(fresh);
  return old;
}

}  // namespace

int lt2_move_down(Xbm& m, const SignalBindings& b) {
  int moved = 0;
  bool split_done = false;
  bool changed = true;
  while (changed) {
    changed = false;
    for (TransitionId tid : m.transition_ids()) {
      // Falling local resets (never the FU go: its withdrawal must precede
      // any wait for the done indicator to reset).
      std::vector<XbmEdge> resets;
      for (const auto& e : m.transition(tid).outputs)
        if (e.polarity == EdgePolarity::kFalling && is_local_set(role_of(b, e.signal)))
          resets.push_back(e);
      if (resets.empty()) continue;
      if (is_resting_place(b, m.transition(tid))) continue;
      // Ring closure: splitting the initial state turns its successor into
      // an ordinary ring-head transition that can accept the resets.
      if (m.transition(tid).to() == m.initial() && !split_done &&
          m.in_transitions(m.initial()).size() == 1 &&
          m.out_transitions(m.initial()).size() == 1) {
        split_initial(m);
        split_done = true;
        changed = true;
        break;  // transition ids shifted; rescan
      }
      // Successor transitions: the unique chain successor, or — at a
      // conditional branch point — all alternatives (the reset is then
      // emitted on whichever branch fires).
      std::vector<TransitionId> succs;
      if (auto succ = chain_succ(m, tid)) {
        succs.push_back(*succ);
      } else {
        StateId sto = m.transition(tid).to();
        if (sto != m.initial() && m.in_transitions(sto).size() == 1) {
          auto outs = m.out_transitions(sto);
          if (outs.size() > 1) succs = outs;
        }
      }
      if (succs.empty()) continue;
      for (const auto& e : resets) {
        // No successor may wait this signal's acknowledge response or
        // already toggle the signal.
        SignalRole out_role = role_of(b, e.signal);
        auto caused = caused_role(out_role);
        bool blocked = false;
        for (TransitionId sid : succs) {
          const XbmTransition& s = m.transition(sid);
          if (burst_has_signal(s.outputs, e.signal)) blocked = true;
          for (const auto& in : s.inputs) {
            if (in.directed_dont_care) continue;
            if (caused && role_of(b, in.signal) == *caused &&
                in.polarity == EdgePolarity::kFalling)
              blocked = true;
          }
        }
        if (blocked) continue;
        erase_edge(m.transition(tid).outputs, e.signal);
        for (TransitionId sid : succs) m.transition(sid).outputs.push_back(e);
        ++moved;
        changed = true;
      }
    }
  }
  return moved;
}

}  // namespace adc
