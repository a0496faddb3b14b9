#include "logic/flow_table.hpp"

#include <deque>
#include <set>
#include <stdexcept>

namespace adc {

namespace {

// Per-wire tracking along a path: current definite value (via toggle
// parity) plus whether a don't-care window is open.
struct WireState {
  bool value = false;
  bool in_window = false;
};

using Signature = std::vector<WireState>;

struct Key {
  StateId::underlying spec;
  std::vector<std::pair<bool, bool>> sig;
  std::vector<bool> outs;
  bool operator<(const Key& o) const {
    if (spec != o.spec) return spec < o.spec;
    if (sig != o.sig) return sig < o.sig;
    return outs < o.outs;
  }
};

Key make_key(StateId s, const Signature& sig, const std::vector<bool>& outs) {
  Key k;
  k.spec = s.value();
  for (const auto& w : sig) k.sig.emplace_back(w.value, w.in_window);
  k.outs = outs;
  return k;
}

}  // namespace

std::size_t ConcreteMachine::input_var(SignalId s) const {
  for (std::size_t i = 0; i < input_signals.size(); ++i)
    if (input_signals[i] == s) return i;
  throw std::out_of_range("not an input signal");
}

std::size_t ConcreteMachine::output_var(SignalId s) const {
  for (std::size_t i = 0; i < output_signals.size(); ++i)
    if (output_signals[i] == s) return i;
  throw std::out_of_range("not an output signal");
}

ConcreteMachine concretize(const Xbm& m, const SignalBindings* bindings) {
  ConcreteMachine out;

  // Collect referenced signals in stable order.
  std::set<SignalId::underlying> used;
  for (TransitionId tid : m.transition_ids()) {
    const auto& t = m.transition(tid);
    for (const auto& e : t.inputs) used.insert(e.signal.value());
    for (const auto& e : t.outputs) used.insert(e.signal.value());
    for (const auto& c : t.conds) used.insert(c.signal.value());
  }
  std::vector<SignalId> conds;  // conditionals are always-X level inputs
  for (auto v : used) {
    SignalId s{v};
    if (m.signal(s).kind == SignalKind::kInput) {
      out.input_signals.push_back(s);
      out.input_names.push_back(m.signal(s).name);
      out.input_is_conditional.push_back(m.signal(s).role == SignalRole::kConditional);
      if (m.signal(s).role == SignalRole::kConditional) conds.push_back(s);
    } else {
      out.output_signals.push_back(s);
      out.output_names.push_back(m.signal(s).name);
    }
  }
  const std::size_t ni = out.input_signals.size();

  std::vector<bool> is_cond(ni, false);
  for (std::size_t i = 0; i < ni; ++i)
    is_cond[i] = m.signal(out.input_signals[i]).role == SignalRole::kConditional;

  // State signature: open don't-care windows and unknown conditionals are X
  // (the wire may change while the machine rests here).
  auto window_cube = [&](const Signature& sig) {
    Cube c(ni);
    for (std::size_t i = 0; i < ni; ++i) {
      if (sig[i].in_window) continue;  // X
      c.set(i, sig[i].value ? Cube::V::kOne : Cube::V::kZero);
    }
    return c;
  };
  // Burst endpoint: every wire pinned to its last *consumed* value — a wire
  // inside a don't-care window keeps its pre-window value at the start
  // point; the window itself is expanded into the transition cube instead.
  // Conditionals have no pre-window value: unknown stays X.
  auto point_cube = [&](const Signature& sig) {
    Cube c(ni);
    for (std::size_t i = 0; i < ni; ++i) {
      if (is_cond[i] && sig[i].in_window) continue;  // X
      c.set(i, sig[i].value ? Cube::V::kOne : Cube::V::kZero);
    }
    return c;
  };

  // Initial signature: conditionals start unknown.
  Signature init_sig(ni);
  for (std::size_t i = 0; i < ni; ++i) {
    init_sig[i].value = m.signal(out.input_signals[i]).initial_value;
    init_sig[i].in_window = is_cond[i];
  }
  std::vector<bool> init_outs;
  for (SignalId s : out.output_signals) init_outs.push_back(m.signal(s).initial_value);

  std::map<Key, std::size_t> ids;
  std::deque<std::tuple<std::size_t, StateId, Signature, std::vector<bool>>> queue;

  auto intern = [&](StateId spec, const Signature& sig, const std::vector<bool>& outs) {
    Key k = make_key(spec, sig, outs);
    auto it = ids.find(k);
    if (it != ids.end()) return it->second;
    std::size_t id = out.states.size();
    out.states.push_back(ConcreteState{window_cube(sig), outs, spec});
    ids.emplace(std::move(k), id);
    queue.emplace_back(id, spec, sig, outs);
    return id;
  };

  out.initial = intern(m.initial(), init_sig, init_outs);

  while (!queue.empty()) {
    auto [id, spec, sig, outs] = queue.front();
    queue.pop_front();
    if (out.states.size() > 4096)
      throw std::runtime_error("concretize: state explosion in " + m.name());

    for (TransitionId tid : m.out_transitions(spec)) {
      const XbmTransition& t = m.transition(tid);
      ConcreteTransition ct;
      ct.from = id;
      ct.origin = tid;
      ct.start = point_cube(sig);

      Signature nsig = sig;
      for (const auto& e : t.inputs) {
        std::size_t var = out.input_var(e.signal);
        if (e.directed_dont_care) {
          nsig[var].in_window = true;
          continue;
        }
        nsig[var].in_window = false;
        switch (e.polarity) {
          case EdgePolarity::kToggle: nsig[var].value = !sig[var].value; break;
          case EdgePolarity::kRising: nsig[var].value = true; break;
          case EdgePolarity::kFalling: nsig[var].value = false; break;
        }
      }
      // Conditionals: sampling fixes the value; the paper's fundamental-
      // mode assumption keeps it stable until the controller relatches the
      // condition register or synchronizes with another controller.  The
      // invalidation below runs FIRST: when the sampling transition itself
      // synchronizes (it usually consumes the producer's ready wire), the
      // sample happens after the synchronization and must win.
      if (bindings) {
        auto invalidates = [&](const std::string& reg) {
          for (std::size_t i = 0; i < ni; ++i) {
            if (!is_cond[i]) continue;
            auto bit = bindings->find(out.input_signals[i].value());
            if (bit != bindings->end() && bit->second.reg == reg)
              nsig[i].in_window = true;
          }
        };
        for (const auto& e : t.outputs) {
          auto it = bindings->find(e.signal.value());
          if (it == bindings->end()) continue;
          if (it->second.role == SignalRole::kLatch && e.polarity == EdgePolarity::kRising)
            invalidates(it->second.reg);
        }
        for (const auto& e : t.inputs) {
          if (e.directed_dont_care) continue;
          auto it = bindings->find(e.signal.value());
          if (it == bindings->end()) continue;
          if (it->second.role == SignalRole::kGlobalReady ||
              it->second.role == SignalRole::kEnvironment) {
            // Synchronization: other controllers may have rewritten any
            // condition register this controller does not latch itself.
            for (std::size_t i = 0; i < ni; ++i) {
              if (!is_cond[i]) continue;
              bool self_latched = false;
              auto cb = bindings->find(out.input_signals[i].value());
              if (cb != bindings->end()) {
                for (const auto& entry : *bindings)
                  if (entry.second.role == SignalRole::kLatch &&
                      entry.second.reg == cb->second.reg)
                    self_latched = true;
              }
              if (!self_latched) nsig[i].in_window = true;
            }
          }
        }
      }
      for (const auto& c : t.conds) {
        std::size_t var = out.input_var(c.signal);
        nsig[var].value = c.value;
        nsig[var].in_window = false;
      }
      if (!bindings) {
        // Without bindings, a sampled value is forgotten immediately after
        // the transition (the endpoint cubes below still pin it).
        for (std::size_t i = 0; i < ni; ++i)
          if (is_cond[i]) nsig[i].in_window = true;
      }

      ct.end = point_cube(nsig);
      ct.trans = ct.start.supercube(ct.end);
      // Open don't-care windows span both values inside the transition.
      for (std::size_t i = 0; i < ni; ++i)
        if (!is_cond[i] && (sig[i].in_window || nsig[i].in_window))
          ct.trans.set(i, Cube::V::kFree);
      // The sampled level pins the whole burst.
      for (const auto& c : t.conds) {
        std::size_t var = out.input_var(c.signal);
        auto v = c.value ? Cube::V::kOne : Cube::V::kZero;
        ct.trans.set(var, v);
        ct.start.set(var, v);
        ct.end.set(var, v);
      }

      std::vector<bool> nouts = outs;
      for (const auto& e : t.outputs) {
        std::size_t var = out.output_var(e.signal);
        bool nv = false;
        switch (e.polarity) {
          case EdgePolarity::kToggle: nv = !nouts[var]; break;
          case EdgePolarity::kRising: nv = true; break;
          case EdgePolarity::kFalling: nv = false; break;
        }
        nouts[var] = nv;
        ct.output_changes.emplace_back(var, nv);
      }

      ct.to = intern(t.to(), nsig, nouts);
      out.transitions.push_back(std::move(ct));
    }
  }
  return out;
}

}  // namespace adc
