#include "sim/critical_path.hpp"

#include <algorithm>
#include <cstdio>

#include "report/json.hpp"
#include "report/table.hpp"

namespace adc {

const char* to_string(SimPhase p) {
  switch (p) {
    case SimPhase::kRequestWait: return "request-wait";
    case SimPhase::kMicroOp: return "micro-op";
    case SimPhase::kOp: return "op";
    case SimPhase::kRegWrite: return "register-write";
    case SimPhase::kDone: return "done";
  }
  return "?";
}

namespace {

std::string controller_key(const std::string& controller) {
  return controller.empty() ? "(channels)" : controller;
}

}  // namespace

std::vector<CriticalChain> CriticalPathResult::top_chains(std::size_t k) const {
  // Runs as segment index ranges; names are copied for the k returned only.
  struct Run {
    std::size_t first, last;
    std::int64_t duration;
    std::size_t events;
  };
  std::vector<Run> runs;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const CriticalSegment& seg = segments[i];
    if (!runs.empty()) {
      const CriticalSegment& head = segments[runs.back().first];
      if (head.phase == seg.phase && head.controller == seg.controller &&
          head.label == seg.label) {
        runs.back().last = i;
        runs.back().duration += seg.duration();
        ++runs.back().events;
        continue;
      }
    }
    runs.push_back({i, i, seg.duration(), 1});
  }
  std::stable_sort(runs.begin(), runs.end(),
                   [](const Run& a, const Run& b) { return a.duration > b.duration; });
  if (runs.size() > k) runs.resize(k);
  std::vector<CriticalChain> chains;
  chains.reserve(runs.size());
  for (const Run& r : runs) {
    const CriticalSegment& head = segments[r.first];
    chains.push_back({head.phase, head.controller, head.label, head.start,
                      segments[r.last].end, r.duration, r.events});
  }
  return chains;
}

std::string CriticalPathResult::to_table(std::size_t top_k) const {
  std::string out = "critical path: " + std::to_string(attributed) + " of " +
                    std::to_string(total_latency) + " ticks attributed (";
  char pct[16];
  std::snprintf(pct, sizeof pct, "%.1f%%", 100.0 * attributed_fraction());
  out += pct;
  out += "), " + std::to_string(segments.size()) + " segments\n\nby phase:\n";
  Table tp({"phase", "ticks", "share"});
  for (const auto& [phase, ticks] : by_phase) {
    char share[16];
    std::snprintf(share, sizeof share, "%.1f%%",
                  attributed > 0 ? 100.0 * static_cast<double>(ticks) /
                                       static_cast<double>(attributed)
                                 : 0.0);
    tp.add_row({phase, std::to_string(ticks), share});
  }
  out += tp.to_string();
  out += "\nby controller:\n";
  Table tc({"controller", "ticks"});
  for (const auto& [ctrl, ticks] : by_controller)
    tc.add_row({ctrl, std::to_string(ticks)});
  out += tc.to_string();
  if (!by_channel.empty()) {
    out += "\nby channel (request-wait only):\n";
    Table tch({"channel", "ticks"});
    for (const auto& [ch, ticks] : by_channel)
      tch.add_row({ch, std::to_string(ticks)});
    out += tch.to_string();
  }
  out += "\ntop critical chains:\n";
  Table tt({"#", "phase", "controller", "label", "ticks", "window", "events"});
  std::size_t i = 0;
  for (const auto& c : top_chains(top_k)) {
    tt.add_row({std::to_string(++i), to_string(c.phase),
                controller_key(c.controller), c.label, std::to_string(c.duration),
                std::to_string(c.start) + ".." + std::to_string(c.end),
                std::to_string(c.events)});
  }
  out += tt.to_string();
  return out;
}

void CriticalPathResult::write_json(JsonWriter& w, std::size_t top_k) const {
  w.begin_object();
  w.kv("total_latency", total_latency);
  w.kv("attributed", attributed);
  w.kv("attributed_fraction", attributed_fraction());
  w.kv("segments", static_cast<std::uint64_t>(segments.size()));
  w.key("by_phase");
  w.begin_object();
  for (const auto& [phase, ticks] : by_phase) w.kv(phase, ticks);
  w.end_object();
  w.key("by_controller");
  w.begin_object();
  for (const auto& [ctrl, ticks] : by_controller) w.kv(ctrl, ticks);
  w.end_object();
  w.key("by_channel");
  w.begin_object();
  for (const auto& [ch, ticks] : by_channel) w.kv(ch, ticks);
  w.end_object();
  w.key("top_chains");
  w.begin_array();
  for (const auto& c : top_chains(top_k)) {
    w.begin_object();
    w.kv("phase", to_string(c.phase));
    w.kv("controller", controller_key(c.controller));
    w.kv("label", c.label);
    w.kv("ticks", c.duration);
    w.kv("start", c.start);
    w.kv("end", c.end);
    w.kv("events", static_cast<std::uint64_t>(c.events));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::int32_t SimEventLog::intern_controller(const std::string& name) {
  for (std::size_t i = 0; i < controllers.size(); ++i)
    if (controllers[i] == name) return static_cast<std::int32_t>(i);
  controllers.push_back(name);
  return static_cast<std::int32_t>(controllers.size() - 1);
}

std::int32_t SimEventLog::intern_label(const std::string& name) {
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (labels[i] == name) return static_cast<std::int32_t>(i);
  labels.push_back(name);
  return static_cast<std::int32_t>(labels.size() - 1);
}

const std::string& SimEventLog::controller_of(const SimEventRecord& r) const {
  static const std::string kEmpty;
  return r.controller >= 0 &&
                 static_cast<std::size_t>(r.controller) < controllers.size()
             ? controllers[static_cast<std::size_t>(r.controller)]
             : kEmpty;
}

const std::string& SimEventLog::label_of(const SimEventRecord& r) const {
  static const std::string kEmpty;
  return r.label >= 0 && static_cast<std::size_t>(r.label) < labels.size()
             ? labels[static_cast<std::size_t>(r.label)]
             : kEmpty;
}

CriticalPathResult analyze_critical_path(const SimEventLog& log,
                                         std::int64_t final_event,
                                         std::int64_t total_latency) {
  CriticalPathResult res;
  res.total_latency = total_latency;
  if (final_event < 0 || static_cast<std::size_t>(final_event) >= log.size())
    return res;
  // Parent-chain walk, final -> root.
  std::vector<const SimEventRecord*> chain;
  std::int64_t id = final_event;
  while (id >= 0 && static_cast<std::size_t>(id) < log.size()) {
    const SimEventRecord& r = log.records[static_cast<std::size_t>(id)];
    chain.push_back(&r);
    if (r.parent >= id) break;  // defensive: ids increase along schedule order
    id = r.parent;
  }
  std::reverse(chain.begin(), chain.end());
  res.segments.reserve(chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const SimEventRecord& r = *chain[i];
    CriticalSegment seg;
    // The environment's root events carry the launch delay from t=0.
    seg.start = i == 0 ? 0 : chain[i - 1]->time;
    seg.end = r.time;
    if (seg.end < seg.start) seg.end = seg.start;  // defensive clamp
    seg.phase = r.phase;
    seg.controller = log.controller_of(r);
    seg.label = log.label_of(r);
    res.attributed += seg.duration();
    res.by_phase[to_string(seg.phase)] += seg.duration();
    res.by_controller[controller_key(seg.controller)] += seg.duration();
    if (seg.phase == SimPhase::kRequestWait) res.by_channel[seg.label] += seg.duration();
    res.segments.push_back(std::move(seg));
  }
  if (res.attributed > res.total_latency) res.total_latency = res.attributed;
  return res;
}

}  // namespace adc
