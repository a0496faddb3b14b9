#pragma once
// Extended Burst-Mode (XBM) asynchronous finite state machines — the
// controller specification produced by extraction (paper §4) and rewritten
// by the local transformations (paper §5).
//
// A transition fires when its *input burst* (a set of signal edges) has
// completely arrived while its *conditionals* (level-sampled signals, the
// XBM extension) hold; it then emits its *output burst*.  Edges may be
// marked as directed don't-cares (the other XBM extension): the edge may
// arrive anywhere from where it is first mentioned up to the transition
// where it appears compulsorily.
//
// Edge polarity: local controller-datapath handshakes use concrete rising /
// falling phases of a 4-phase protocol.  Global ready wires use *transition
// signalling* (a single toggle, no acknowledgment; paper §2.2) and are
// written with kToggle polarity; the implementation phase (+ or -) is
// assigned per instance when the two-level logic is synthesized, exactly
// as the paper's Figure 11 shows assigned phases like A1M+.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cdfg/ids.hpp"

namespace adc {

enum class SignalKind { kInput, kOutput };

// What the wire is for; drives naming, LT applicability and area reports.
enum class SignalRole {
  kGlobalReady,   // inter-controller ready wire (either direction)
  kEnvironment,   // environment request/done
  kMuxSelect,     // FU input mux select (local req)
  kMuxAck,        // FU input mux acknowledge
  kOpSelect,      // FU operation select
  kOpAck,         // FU operation-select acknowledge
  kFuGo,          // FU activation request
  kFuDone,        // FU completion (genuinely variable latency)
  kRegMuxSelect,  // register input mux select
  kRegMuxAck,
  kLatch,         // register latch strobe
  kLatchAck,
  kConditional,   // level-sampled condition register bit
};

const char* to_string(SignalRole role);

struct XbmSignal {
  SignalId id;
  std::string name;
  SignalKind kind = SignalKind::kInput;
  SignalRole role = SignalRole::kGlobalReady;
  bool initial_value = false;
};

enum class EdgePolarity { kRising, kFalling, kToggle };

struct XbmEdge {
  SignalId signal;
  EdgePolarity polarity = EdgePolarity::kToggle;
  bool directed_dont_care = false;

  friend bool operator==(const XbmEdge&, const XbmEdge&) = default;
};

struct CondTerm {
  SignalId signal;
  bool value = true;  // <s+> or <s->

  friend bool operator==(const CondTerm&, const CondTerm&) = default;
};

// State and transition slots are never assigned whole: that would
// overwrite the incidence links below.  The links sit in what would be
// padding (after a state's id and alive; after a transition's alive, with
// origin moved beside id), so neither slot is larger than it would be
// without them: cached controllers keep every slot, removed ones included.
struct XbmState {
  StateId id;

 private:
  friend class Xbm;
  TransitionId first_out_;  // head of the state's out-list (see Xbm)

 public:
  std::string name;
  bool alive = true;

  XbmState() = default;
  XbmState(const XbmState&) = default;
  XbmState(XbmState&&) = default;
  XbmState& operator=(const XbmState&) = delete;
  XbmState& operator=(XbmState&&) = delete;

 private:
  TransitionId first_in_;  // head of its in-list
};

// A transition's endpoints are read-only here: only its Xbm moves them
// (add_transition, set_from, set_to), so the machine's incidence lists
// cannot go stale.
struct XbmTransition {
  TransitionId id;
  NodeId origin;                  // CDFG node this belongs to (diagnostics)
  std::vector<XbmEdge> inputs;    // the input burst
  std::vector<CondTerm> conds;    // sampled conditionals
  std::vector<XbmEdge> outputs;   // the output burst
  std::string note;               // micro-operation label, e.g. "do operation"
  bool alive = true;

  XbmTransition() = default;
  XbmTransition(const XbmTransition&) = default;
  XbmTransition(XbmTransition&&) = default;
  XbmTransition& operator=(const XbmTransition&) = delete;
  XbmTransition& operator=(XbmTransition&&) = delete;

  StateId from() const { return from_; }
  StateId to() const { return to_; }

 private:
  friend class Xbm;
  StateId from_;
  StateId to_;
  // Next transition slot in from_'s out-list and to_'s in-list.
  TransitionId next_out_, next_in_;
};

class Xbm {
 public:
  explicit Xbm(std::string name = "ctrl") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  SignalId add_signal(std::string name, SignalKind kind, SignalRole role,
                      bool initial_value = false);
  StateId add_state(std::string name = {});
  TransitionId add_transition(StateId from, StateId to, std::vector<XbmEdge> inputs,
                              std::vector<XbmEdge> outputs,
                              std::vector<CondTerm> conds = {});
  // The only ways to move an existing transition's endpoints.
  void set_from(TransitionId t, StateId s);
  void set_to(TransitionId t, StateId s);

  void set_initial(StateId s) { initial_ = s; }
  StateId initial() const { return initial_; }

  const XbmSignal& signal(SignalId id) const { return signals_.at(id.index()); }
  XbmSignal& signal(SignalId id) { return signals_.at(id.index()); }
  const XbmState& state(StateId id) const { return states_.at(id.index()); }
  XbmState& state(StateId id) { return states_.at(id.index()); }
  const XbmTransition& transition(TransitionId id) const { return transitions_.at(id.index()); }
  XbmTransition& transition(TransitionId id) { return transitions_.at(id.index()); }

  std::optional<SignalId> find_signal(const std::string& name) const;

  // Every slot, removed states and transitions included (alive == false),
  // in id order: what a whole-machine digest reads.
  const std::vector<XbmSignal>& signals() const { return signals_; }
  const std::vector<XbmState>& state_slots() const { return states_; }
  const std::vector<XbmTransition>& transition_slots() const { return transitions_; }

  std::vector<SignalId> signal_ids() const;
  std::vector<StateId> state_ids() const;          // live states
  std::vector<TransitionId> transition_ids() const;  // live transitions
  // Live transitions leaving / entering `s`, in id order.  Read from the
  // incidence lists, so O(degree) rather than a scan of every slot.
  std::vector<TransitionId> out_transitions(StateId s) const;
  std::vector<TransitionId> in_transitions(StateId s) const;

  std::size_t state_count() const;       // live
  std::size_t transition_count() const;  // live
  std::size_t input_count() const;
  std::size_t output_count() const;

  void remove_transition(TransitionId id) { transitions_.at(id.index()).alive = false; }
  void remove_state(StateId id) { states_.at(id.index()).alive = false; }

  // Removes states with no live transitions and merges trivial chains is
  // left to the local transforms; this only drops fully dead states.
  void sweep_dead_states();

 private:
  // Incidence: every transition slot, removed ones included, is linked
  // into its from-state's out-list and its to-state's in-list, each kept
  // in id order.  Removal only clears `alive`, so the lists never depend
  // on it; the queries above skip removed slots.
  void check_state(StateId s) const;
  TransitionId& head(StateId s, bool out);
  TransitionId& next(TransitionId t, bool out);
  void link(StateId s, TransitionId t, bool out);
  void unlink(StateId s, TransitionId t, bool out);
  std::vector<TransitionId> incident(StateId s, bool out) const;

  std::string name_;
  std::vector<XbmSignal> signals_;
  std::vector<XbmState> states_;
  std::vector<XbmTransition> transitions_;
  StateId initial_;
};

// Helpers for building bursts.
XbmEdge rise(SignalId s);
XbmEdge fall(SignalId s);
XbmEdge toggle(SignalId s);
XbmEdge ddc(XbmEdge e);  // marks the edge as a directed don't-care

}  // namespace adc
