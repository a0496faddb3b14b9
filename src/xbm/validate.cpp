#include "xbm/validate.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace adc {

namespace {

// A signal's level at a state, one byte per signal.  Concrete-phase wires
// start at their initial value; conditional wires stay untracked until an
// edge moves them, and toggle-signalled edges never change a level (they
// carry no level semantics at spec time).  Two rows compare equal exactly
// when the same signals are tracked at the same levels.
enum Level : std::uint8_t { kUntracked = 0, kLow = 1, kHigh = 2 };

bool conds_distinguish(const XbmTransition& a, const XbmTransition& b) {
  for (const auto& ca : a.conds)
    for (const auto& cb : b.conds)
      if (ca.signal == cb.signal && ca.value != cb.value) return true;
  return false;
}

}  // namespace

std::vector<std::string> validate(const Xbm& m) {
  std::vector<std::string> errors;

  if (!m.initial().valid() || !m.state(m.initial()).alive) {
    errors.push_back("missing initial state");
    return errors;
  }

  const auto& slots = m.transition_slots();
  const std::size_t n_states = m.state_slots().size();
  const std::size_t n_signals = m.signals().size();
  auto where = [&m](const XbmTransition& t) {
    return m.name() + " " + m.state(t.from()).name + "->" + m.state(t.to()).name;
  };

  // Burst sanity per live transition.  Each transition's compulsory input
  // signals are kept sorted and unique for the distinguishability check.
  std::vector<std::uint32_t> stamp(n_signals, 0);
  std::uint32_t burst = 0;
  std::vector<std::size_t> comp_begin(slots.size() + 1, 0);
  std::vector<SignalId::underlying> comp;
  std::vector<std::size_t> out_count(n_states + 1, 0);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const XbmTransition& t = slots[i];
    comp_begin[i] = comp.size();
    if (!t.alive) continue;
    if (!m.state(t.from()).alive || !m.state(t.to()).alive)
      errors.push_back(where(t) + ": touches dead state");
    ++out_count[t.from().index() + 1];
    bool any_compulsory = false;
    for (const auto& e : t.inputs) {
      if (m.signal(e.signal).kind != SignalKind::kInput)
        errors.push_back(where(t) + ": output " + m.signal(e.signal).name + " in input burst");
      if (!e.directed_dont_care) {
        any_compulsory = true;
        comp.push_back(e.signal.value());
      }
    }
    std::sort(comp.begin() + comp_begin[i], comp.end());
    comp.erase(std::unique(comp.begin() + comp_begin[i], comp.end()), comp.end());
    if (!any_compulsory) errors.push_back(where(t) + ": no compulsory edge in input burst");
    for (const auto& e : t.outputs)
      if (m.signal(e.signal).kind != SignalKind::kOutput)
        errors.push_back(where(t) + ": input " + m.signal(e.signal).name + " in output burst");
    for (const auto& c : t.conds)
      if (m.signal(c.signal).role != SignalRole::kConditional)
        errors.push_back(where(t) + ": conditional on non-conditional signal " +
                         m.signal(c.signal).name);
    for (const auto* edges : {&t.inputs, &t.outputs}) {
      ++burst;
      for (const auto& e : *edges) {
        if (stamp[e.signal.index()] == burst)
          errors.push_back(where(t) + (edges == &t.inputs ? ": signal twice in input burst"
                                                          : ": signal twice in output burst"));
        stamp[e.signal.index()] = burst;
      }
    }
  }
  comp_begin[slots.size()] = comp.size();

  // Out-lists of every state in transition id order (CSR), built from the
  // slots so that the check does not rest on the machine's own incidence.
  for (std::size_t s = 0; s < n_states; ++s) out_count[s + 1] += out_count[s];
  std::vector<std::uint32_t> outs(out_count[n_states]);
  {
    std::vector<std::size_t> next(out_count.begin(), out_count.end() - 1);
    for (std::size_t i = 0; i < slots.size(); ++i)
      if (slots[i].alive) outs[next[slots[i].from().index()]++] = i;
  }

  // Distinguishability: out of one state, no transition's compulsory input
  // set may contain another's unless mutually exclusive conditionals tell
  // them apart (the XBM generalization of the maximal-set property).
  auto compulsory_begin = [&](std::uint32_t t) { return comp.begin() + comp_begin[t]; };
  auto compulsory_end = [&](std::uint32_t t) { return comp.begin() + comp_begin[t + 1]; };
  for (std::size_t s = 0; s < n_states; ++s) {
    if (!m.state_slots()[s].alive) continue;
    for (std::size_t i = out_count[s]; i < out_count[s + 1]; ++i) {
      for (std::size_t j = i + 1; j < out_count[s + 1]; ++j) {
        const std::uint32_t a = outs[i], b = outs[j];
        if (conds_distinguish(slots[a], slots[b])) continue;
        if (std::includes(compulsory_begin(b), compulsory_end(b), compulsory_begin(a),
                          compulsory_end(a)) ||
            std::includes(compulsory_begin(a), compulsory_end(a), compulsory_begin(b),
                          compulsory_end(b)))
          errors.push_back(m.name() + " state " + m.state_slots()[s].name +
                           ": ambiguous input bursts (maximal-set violation)");
      }
    }
  }

  // Reachability and polarity consistency: a BFS from the initial state
  // that gives every state the levels of the first path reaching it and
  // compares every later path against them.
  std::vector<std::uint8_t> levels(n_states * n_signals, kUntracked);
  std::vector<char> reached(n_states, 0);
  std::vector<std::uint8_t> cur(n_signals);
  for (std::size_t i = 0; i < n_signals; ++i)
    if (m.signals()[i].role != SignalRole::kConditional)
      levels[m.initial().index() * n_signals + i] = m.signals()[i].initial_value ? kHigh : kLow;
  auto apply_edges = [&](const XbmTransition& t, const std::vector<XbmEdge>& edges,
                         const char* burst_name) {
    for (const auto& e : edges) {
      if (e.polarity == EdgePolarity::kToggle) continue;
      const bool want_before = e.polarity == EdgePolarity::kFalling;
      std::uint8_t& level = cur[e.signal.index()];
      const bool before =
          level != kUntracked ? level == kHigh : m.signal(e.signal).initial_value;
      if (before != want_before)
        errors.push_back(where(t) + burst_name + ": signal " + m.signal(e.signal).name +
                         (want_before ? "-" : "+") + " but it is already " +
                         (before ? "1" : "0"));
      level = want_before ? kLow : kHigh;
    }
  };
  std::vector<std::uint32_t> queue{m.initial().value()};
  reached[m.initial().index()] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t s = queue[head];
    for (std::size_t k = out_count[s]; k < out_count[s + 1]; ++k) {
      const XbmTransition& t = slots[outs[k]];
      std::copy_n(levels.begin() + s * n_signals, n_signals, cur.begin());
      apply_edges(t, t.inputs, " (inputs)");
      apply_edges(t, t.outputs, " (outputs)");
      const std::size_t to = t.to().index();
      auto row = levels.begin() + to * n_signals;
      if (!reached[to]) {
        reached[to] = 1;
        std::copy(cur.begin(), cur.end(), row);
        queue.push_back(t.to().value());
      } else if (!std::equal(cur.begin(), cur.end(), row)) {
        errors.push_back(m.name() + " state " + m.state(t.to()).name +
                         ": inconsistent signal values on different paths");
      }
    }
  }
  for (std::size_t s = 0; s < n_states; ++s)
    if (m.state_slots()[s].alive && !reached[s])
      errors.push_back(m.name() + " state " + m.state_slots()[s].name + ": unreachable");

  return errors;
}

void validate_or_throw(const Xbm& m) {
  auto errors = validate(m);
  if (errors.empty()) return;
  std::string msg = "XBM '" + m.name() + "' invalid:";
  for (const auto& e : errors) msg += "\n  - " + e;
  throw std::runtime_error(msg);
}

}  // namespace adc
