#include "analysis/build.hpp"

#include <algorithm>

#include "analysis/grid.hpp"
#include "area/area_model.hpp"
#include "runtime/flow.hpp"
#include "sim/critical_path.hpp"

namespace adc {
namespace analysis {

namespace {

std::string trim(const std::string& s) {
  auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return {};
  auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> recipe_steps(const std::string& script) {
  std::vector<std::string> steps;
  std::size_t pos = 0;
  while (pos <= script.size()) {
    auto semi = script.find(';', pos);
    if (semi == std::string::npos) semi = script.size();
    std::string step = trim(script.substr(pos, semi - pos));
    if (!step.empty()) steps.push_back(std::move(step));
    pos = semi + 1;
  }
  return steps;
}

ChainRef chain_ref(const CriticalChain& c) {
  ChainRef r;
  r.phase = to_string(c.phase);
  r.controller = c.controller.empty() ? "(channels)" : c.controller;
  r.label = c.label;
  r.ticks = c.duration;
  r.events = c.events;
  return r;
}

// The area model's view of one synthesized controller.
ControllerArea area_of(const ControllerMetrics& m) {
  return ControllerArea{m.name, m.products, m.literals, m.state_bits, m.outputs};
}

}  // namespace

std::size_t point_area_transistors(const FlowPoint& p) {
  std::size_t total = 0;
  for (const auto& m : p.controllers) total += area_of(m).transistor_estimate();
  return total + 6 * p.channels;
}

PointProfile build_point_profile(const FlowPoint& p, std::size_t index) {
  PointProfile out;
  out.index = index;
  out.benchmark = p.benchmark;
  out.script = p.script;
  out.status = to_string(p.status);
  out.ok = p.ok;
  out.cycle_time = p.latency;
  out.recipe = recipe_steps(p.script);

  for (const auto& m : p.controllers)
    out.area.push_back({m.name, m.products, m.literals, m.state_bits, m.outputs,
                        area_of(m).transistor_estimate()});
  out.channels = p.channels;
  out.area_transistors = point_area_transistors(p);

  if (p.critical_path) {
    const CriticalPathResult& cp = *p.critical_path;
    out.has_attribution = true;
    out.attributed = cp.attributed;
    out.attributed_fraction = cp.attributed_fraction();
    out.by_phase = cp.by_phase;
    out.by_controller = cp.by_controller;
    out.by_channel = cp.by_channel;
    // One map update per run of segments with the same controller and
    // phase, not per segment.
    for (std::size_t i = 0; i < cp.segments.size();) {
      const CriticalSegment& s = cp.segments[i];
      std::int64_t ticks = 0;
      for (; i < cp.segments.size() && cp.segments[i].phase == s.phase &&
             cp.segments[i].controller == s.controller;
           ++i)
        ticks += cp.segments[i].duration();
      std::string ctrl = s.controller.empty() ? "(channels)" : s.controller;
      out.by_controller_phase[ctrl + "/" + to_string(s.phase)] += ticks;
    }
    auto chains = cp.top_chains(5);
    for (const auto& c : chains) out.top_chains.push_back(chain_ref(c));
    if (!out.top_chains.empty()) out.dominant = out.top_chains.front();
  }

  if (p.provenance) out.decisions = p.provenance->decision_counts();
  return out;
}

DseProfile build_dse_profile(const std::vector<FlowPoint>& points,
                             const std::string& tool, std::size_t top_k) {
  DseProfile prof;
  prof.tool = tool;
  prof.points.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    prof.points.push_back(build_point_profile(points[i], i));
  prof.grid = analyze_grid(prof.points, top_k);
  return prof;
}

}  // namespace analysis
}  // namespace adc
