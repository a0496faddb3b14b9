#include "xbm/print.hpp"

#include <sstream>

namespace adc {

namespace {

std::string edge_to_string(const Xbm& m, const XbmEdge& e) {
  std::string out = m.signal(e.signal).name;
  switch (e.polarity) {
    case EdgePolarity::kRising: out += '+'; break;
    case EdgePolarity::kFalling: out += '-'; break;
    case EdgePolarity::kToggle: out += '~'; break;
  }
  if (e.directed_dont_care) out += '*';
  return out;
}

}  // namespace

std::string burst_to_string(const Xbm& m, const XbmTransition& t) {
  std::string out;
  for (const auto& c : t.conds) {
    out += '<';
    out += m.signal(c.signal).name;
    out += c.value ? '+' : '-';
    out += "> ";
  }
  for (std::size_t i = 0; i < t.inputs.size(); ++i) {
    if (i) out += ' ';
    out += edge_to_string(m, t.inputs[i]);
  }
  out += " / ";
  for (std::size_t i = 0; i < t.outputs.size(); ++i) {
    if (i) out += ' ';
    out += edge_to_string(m, t.outputs[i]);
  }
  return out;
}

std::string to_text(const Xbm& m) {
  std::ostringstream os;
  os << "; XBM controller " << m.name() << "\n";
  os << "name " << m.name() << "\n";
  os << "inputs";
  for (SignalId s : m.signal_ids())
    if (m.signal(s).kind == SignalKind::kInput)
      os << ' ' << m.signal(s).name << (m.signal(s).initial_value ? "=1" : "=0");
  os << "\noutputs";
  for (SignalId s : m.signal_ids())
    if (m.signal(s).kind == SignalKind::kOutput)
      os << ' ' << m.signal(s).name << (m.signal(s).initial_value ? "=1" : "=0");
  os << "\ninitial " << m.state(m.initial()).name << "\n";
  for (TransitionId t : m.transition_ids()) {
    const auto& tr = m.transition(t);
    os << m.state(tr.from()).name << ' ' << m.state(tr.to()).name << ' '
       << burst_to_string(m, tr);
    if (!tr.note.empty()) os << "  ; " << tr.note;
    os << "\n";
  }
  return os.str();
}

}  // namespace adc
