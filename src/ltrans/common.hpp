#pragma once
// Shared helpers for the local transformations.

#include <algorithm>
#include <optional>

#include "ltrans/local.hpp"

namespace adc::detail {

inline SignalRole role_of(const SignalBindings& b, SignalId s) {
  auto it = b.find(s.value());
  return it == b.end() ? SignalRole::kGlobalReady : it->second.role;
}

inline bool is_local_ack(SignalRole r) {
  return r == SignalRole::kMuxAck || r == SignalRole::kOpAck ||
         r == SignalRole::kRegMuxAck || r == SignalRole::kLatchAck;
}

inline bool is_local_set(SignalRole r) {
  return r == SignalRole::kMuxSelect || r == SignalRole::kOpSelect ||
         r == SignalRole::kRegMuxSelect || r == SignalRole::kLatch;
}

inline bool is_global(SignalRole r) {
  return r == SignalRole::kGlobalReady || r == SignalRole::kEnvironment;
}

// The input-edge role a local output edge causes (its handshake response).
inline std::optional<SignalRole> caused_role(SignalRole out) {
  switch (out) {
    case SignalRole::kMuxSelect: return SignalRole::kMuxAck;
    case SignalRole::kOpSelect: return SignalRole::kOpAck;
    case SignalRole::kRegMuxSelect: return SignalRole::kRegMuxAck;
    case SignalRole::kLatch: return SignalRole::kLatchAck;
    case SignalRole::kFuGo: return SignalRole::kFuDone;
    default: return std::nullopt;
  }
}

inline bool burst_has_signal(const std::vector<XbmEdge>& burst, SignalId s) {
  return std::any_of(burst.begin(), burst.end(),
                     [s](const XbmEdge& e) { return e.signal == s; });
}

inline void erase_edge(std::vector<XbmEdge>& burst, SignalId s) {
  burst.erase(std::remove_if(burst.begin(), burst.end(),
                             [s](const XbmEdge& e) { return e.signal == s; }),
              burst.end());
}

// Unique predecessor transition of t, requiring a clean chain: t.from has
// exactly one incoming and one outgoing transition and is not the initial
// state.  Edges may only migrate across such states.
inline std::optional<TransitionId> chain_pred(const Xbm& m, TransitionId t) {
  StateId s = m.transition(t).from();
  if (s == m.initial()) return std::nullopt;
  if (m.out_transitions(s).size() != 1) return std::nullopt;
  auto ins = m.in_transitions(s);
  if (ins.size() != 1) return std::nullopt;
  if (ins.front() == t) return std::nullopt;  // self loop
  return ins.front();
}

inline std::optional<TransitionId> chain_succ(const Xbm& m, TransitionId t) {
  StateId s = m.transition(t).to();
  if (s == m.initial()) return std::nullopt;
  if (m.in_transitions(s).size() != 1) return std::nullopt;
  auto outs = m.out_transitions(s);
  if (outs.size() != 1) return std::nullopt;
  if (outs.front() == t) return std::nullopt;
  return outs.front();
}

}  // namespace adc::detail
