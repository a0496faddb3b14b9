#pragma once
// Shared helpers for the reproduction benches: flow drivers and the
// published reference numbers used as comparison rows.

#include <cstdio>
#include <stdexcept>
#include <map>
#include <string>
#include <vector>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "logic/minimize.hpp"
#include "logic/stats.hpp"
#include "ltrans/local.hpp"
#include "report/table.hpp"
#include "sim/event_sim.hpp"
#include "sim/golden.hpp"
#include "sim/token_sim.hpp"
#include "transforms/script.hpp"

namespace adc::bench {

// Reference constants published in the paper (Theobald & Nowick, DAC 2001).
// Figure 12 — state machine comparison (states/transitions per controller,
// and communication channel counts); Figure 13 — gate-level comparison
// (two-level products/literals).  Yun et al.'s numbers are the manual
// design of [26]; "paper" rows are the authors' prototype results.
struct Fig12Row {
  const char* label;
  int channels;
  int alu1_s, alu1_t, alu2_s, alu2_t, mul1_s, mul1_t, mul2_s, mul2_t;
};
inline const std::vector<Fig12Row>& paper_fig12() {
  static const std::vector<Fig12Row> rows = {
      {"paper unoptimized", 17, 26, 29, 45, 52, 21, 24, 12, 14},
      {"paper optimized-GT", 5, 16, 18, 26, 32, 12, 14, 8, 10},
      {"paper optimized-GT-and-LT", 5, 7, 9, 11, 13, 6, 6, 4, 5},
      {"YUN (manual)", 5, 7, 9, 14, 16, 4, 4, 3, 3},
  };
  return rows;
}

struct Fig13Row {
  const char* label;
  int alu1_p, alu1_l, alu2_p, alu2_l, mul1_p, mul1_l, mul2_p, mul2_l;
  int total_p, total_l;
};
inline const std::vector<Fig13Row>& paper_fig13() {
  static const std::vector<Fig13Row> rows = {
      {"Yun (manual)", 18, 110, 46, 141, 19, 41, 10, 15, 93, 307},
      {"paper (their method)", 14, 83, 40, 113, 11, 30, 8, 18, 73, 244},
  };
  return rows;
}

// A fully synthesized system at one optimization level.
struct FlowResult {
  Cdfg g{"empty"};
  ChannelPlan plan;
  std::vector<ControllerInstance> instances;
  std::vector<TransformResult> stages;
};

// The figures' "optimized-GT" recipe: the paper's global transforms
// without the local ones ("unoptimized" is the empty script, and
// "optimized-GT-and-LT" kPaperRecipe).
inline constexpr const char* kOptimizedGt = "gt1; gt2; gt3; gt4; gt2; gt5";

// Applies `script`'s global steps, extracts the controllers and, when the
// script has an `lt` step, runs the local transforms it configures.
inline FlowResult run_flow(Cdfg graph, const std::string& script) {
  const TransformScript recipe = TransformScript::parse(script);
  FlowResult out;
  out.g = std::move(graph);
  auto res = recipe.run(out.g);
  out.plan = std::move(res.plan);
  out.stages = std::move(res.stages);
  for (auto& c : extract_controllers(out.g, out.plan)) {
    ControllerInstance inst;
    if (recipe.has_local_step())
      inst.shared_signals = run_local_transforms(c, recipe.local_options()).shared_signals;
    inst.controller = std::move(c);
    out.instances.push_back(std::move(inst));
  }
  return out;
}

inline const ExtractedController& controller(const FlowResult& f, const char* name) {
  for (const auto& inst : f.instances)
    if (f.g.fu(inst.controller.fu).name == name) return inst.controller;
  throw std::runtime_error(std::string("no controller ") + name);
}

inline std::map<std::string, std::int64_t> diffeq_inputs(std::int64_t a = 8) {
  return {{"X", 0}, {"a", a}, {"dx", 1}, {"U", 3}, {"Y", 1}, {"X1", 0}, {"C", 1}};
}

}  // namespace adc::bench
