// Back-annotation of early request arrivals (paper §4.2, step 4).
//
// The stitched fragments assume every ready signal arrives exactly when its
// wait transition needs it.  In the real system senders run concurrently
// and may toggle a request wire much earlier.  XBM expresses this with
// directed don't-cares: the edge is marked on every transition between its
// previous consumption and its compulsory wait, telling the synthesizer the
// signal may change anywhere in that window.

#include <deque>
#include <set>

#include "extract/extract.hpp"

namespace adc {

namespace {

bool mentions(const XbmTransition& t, SignalId s) {
  for (const auto& e : t.inputs)
    if (e.signal == s) return true;
  return false;
}

}  // namespace

void back_annotate_early_requests(Xbm& m,
                                  const std::map<SignalId::underlying, SignalBinding>& bindings) {
  for (TransitionId tid : m.transition_ids()) {
    // Snapshot: we extend input bursts while iterating.
    const auto inputs = m.transition(tid).inputs;
    for (const auto& e : inputs) {
      if (e.directed_dont_care) continue;
      auto it = bindings.find(e.signal.value());
      if (it == bindings.end()) continue;
      if (it->second.role != SignalRole::kGlobalReady &&
          it->second.role != SignalRole::kEnvironment)
        continue;

      // Reverse walk from the wait transition, marking the window.
      std::deque<StateId> queue{m.transition(tid).from()};
      std::set<StateId::underlying> visited;
      while (!queue.empty()) {
        StateId s = queue.front();
        queue.pop_front();
        if (!visited.insert(s.value()).second) continue;
        for (TransitionId pid : m.in_transitions(s)) {
          XbmTransition& p = m.transition(pid);
          if (mentions(p, e.signal)) continue;  // previous consumption: stop
          p.inputs.push_back(ddc(toggle(e.signal)));
          queue.push_back(p.from());
        }
      }
    }
  }
}

}  // namespace adc
