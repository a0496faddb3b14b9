#include "xbm/xbm.hpp"

#include <stdexcept>

namespace adc {

const char* to_string(SignalRole role) {
  switch (role) {
    case SignalRole::kGlobalReady: return "global-ready";
    case SignalRole::kEnvironment: return "environment";
    case SignalRole::kMuxSelect: return "mux-select";
    case SignalRole::kMuxAck: return "mux-ack";
    case SignalRole::kOpSelect: return "op-select";
    case SignalRole::kOpAck: return "op-ack";
    case SignalRole::kFuGo: return "fu-go";
    case SignalRole::kFuDone: return "fu-done";
    case SignalRole::kRegMuxSelect: return "regmux-select";
    case SignalRole::kRegMuxAck: return "regmux-ack";
    case SignalRole::kLatch: return "latch";
    case SignalRole::kLatchAck: return "latch-ack";
    case SignalRole::kConditional: return "conditional";
  }
  return "?";
}

SignalId Xbm::add_signal(std::string name, SignalKind kind, SignalRole role,
                         bool initial_value) {
  if (find_signal(name)) throw std::invalid_argument("xbm: duplicate signal " + name);
  SignalId id(signals_.size());
  signals_.push_back(XbmSignal{id, std::move(name), kind, role, initial_value});
  return id;
}

StateId Xbm::add_state(std::string name) {
  StateId id(states_.size());
  if (name.empty()) name = "s" + std::to_string(id.value());
  XbmState& st = states_.emplace_back();
  st.id = id;
  st.name = std::move(name);
  if (!initial_.valid()) initial_ = id;
  return id;
}

TransitionId Xbm::add_transition(StateId from, StateId to, std::vector<XbmEdge> inputs,
                                 std::vector<XbmEdge> outputs, std::vector<CondTerm> conds) {
  TransitionId id(transitions_.size());
  check_state(from);
  check_state(to);
  XbmTransition& t = transitions_.emplace_back();
  t.id = id;
  t.inputs = std::move(inputs);
  t.outputs = std::move(outputs);
  t.conds = std::move(conds);
  set_from(id, from);
  set_to(id, to);
  return id;
}

void Xbm::set_from(TransitionId t, StateId s) {
  XbmTransition& tr = transitions_.at(t.index());
  check_state(s);
  if (tr.from_ == s) return;
  if (tr.from_.valid()) unlink(tr.from_, t, true);
  tr.from_ = s;
  link(s, t, true);
}

void Xbm::set_to(TransitionId t, StateId s) {
  XbmTransition& tr = transitions_.at(t.index());
  check_state(s);
  if (tr.to_ == s) return;
  if (tr.to_.valid()) unlink(tr.to_, t, false);
  tr.to_ = s;
  link(s, t, false);
}

void Xbm::check_state(StateId s) const {
  if (s.index() >= states_.size())
    throw std::out_of_range("xbm: no state " + std::to_string(s.value()));
}

TransitionId& Xbm::head(StateId s, bool out) {
  XbmState& st = states_[s.index()];
  return out ? st.first_out_ : st.first_in_;
}

TransitionId& Xbm::next(TransitionId t, bool out) {
  XbmTransition& tr = transitions_[t.index()];
  return out ? tr.next_out_ : tr.next_in_;
}

void Xbm::link(StateId s, TransitionId t, bool out) {
  TransitionId* at = &head(s, out);
  while (at->valid() && *at < t) at = &next(*at, out);
  next(t, out) = *at;
  *at = t;
}

void Xbm::unlink(StateId s, TransitionId t, bool out) {
  TransitionId* at = &head(s, out);
  while (*at != t) at = &next(*at, out);
  *at = next(t, out);
  next(t, out) = TransitionId();
}

std::vector<TransitionId> Xbm::incident(StateId s, bool out) const {
  std::vector<TransitionId> ids;
  if (s.index() >= states_.size()) return ids;
  const XbmState& st = states_[s.index()];
  for (TransitionId t = out ? st.first_out_ : st.first_in_; t.valid();) {
    const XbmTransition& tr = transitions_[t.index()];
    if (tr.alive) ids.push_back(t);
    t = out ? tr.next_out_ : tr.next_in_;
  }
  return ids;
}

std::optional<SignalId> Xbm::find_signal(const std::string& name) const {
  for (const auto& s : signals_)
    if (s.name == name) return s.id;
  return std::nullopt;
}

std::vector<SignalId> Xbm::signal_ids() const {
  std::vector<SignalId> out;
  for (const auto& s : signals_) out.push_back(s.id);
  return out;
}

std::vector<StateId> Xbm::state_ids() const {
  std::vector<StateId> out;
  for (const auto& s : states_)
    if (s.alive) out.push_back(s.id);
  return out;
}

std::vector<TransitionId> Xbm::transition_ids() const {
  std::vector<TransitionId> out;
  for (const auto& t : transitions_)
    if (t.alive) out.push_back(t.id);
  return out;
}

std::vector<TransitionId> Xbm::out_transitions(StateId s) const { return incident(s, true); }
std::vector<TransitionId> Xbm::in_transitions(StateId s) const { return incident(s, false); }

std::size_t Xbm::state_count() const { return state_ids().size(); }
std::size_t Xbm::transition_count() const { return transition_ids().size(); }

std::size_t Xbm::input_count() const {
  std::size_t n = 0;
  for (const auto& s : signals_)
    if (s.kind == SignalKind::kInput) ++n;
  return n;
}

std::size_t Xbm::output_count() const {
  std::size_t n = 0;
  for (const auto& s : signals_)
    if (s.kind == SignalKind::kOutput) ++n;
  return n;
}

void Xbm::sweep_dead_states() {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    XbmState& s = states_[i];
    if (!s.alive || StateId(i) == initial_) continue;
    if (incident(StateId(i), true).empty() && incident(StateId(i), false).empty())
      s.alive = false;
  }
}

XbmEdge rise(SignalId s) { return XbmEdge{s, EdgePolarity::kRising, false}; }
XbmEdge fall(SignalId s) { return XbmEdge{s, EdgePolarity::kFalling, false}; }
XbmEdge toggle(SignalId s) { return XbmEdge{s, EdgePolarity::kToggle, false}; }
XbmEdge ddc(XbmEdge e) {
  e.directed_dont_care = true;
  return e;
}

}  // namespace adc
