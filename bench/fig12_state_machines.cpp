// Reproduction of the paper's Figure 12: "State Machine Comparison".
//
// For the DIFFEQ benchmark, three experiments — unoptimized, optimized-GT,
// optimized-GT-and-LT — reporting the number of communication channels and
// the state/transition counts of the four functional-unit controllers,
// next to the published rows (the paper's prototype and Yun et al.'s
// manual design).
//
// Channel counting note: our frontend derives 15 controller-controller
// arcs plus the two environment handshakes (START->LOOP, LOOP->END).  The
// paper reports 17 for the unoptimized design and 5 after the global
// transformations; we report both accountings (see EXPERIMENTS.md).

#include "common.hpp"

using namespace adc;
using namespace adc::bench;

int main() {
  std::printf("Figure 12 — state machine comparison (DIFFEQ)\n");
  std::printf("cells: controller #states/#transitions\n\n");

  Table t({"experiment", "#channels", "ALU1", "ALU2", "MUL1", "MUL2"});

  struct Variant {
    const char* label;
    const char* script;
  };
  for (const Variant v : {Variant{"unoptimized", ""},
                          Variant{"optimized-GT", kOptimizedGt},
                          Variant{"optimized-GT-and-LT", kPaperRecipe}}) {
    FlowResult f = run_flow(diffeq(), v.script);
    std::string channels =
        std::to_string(f.plan.count_controller_channels()) + " (+" +
        std::to_string(f.plan.count_all_channels() - f.plan.count_controller_channels()) +
        " env)";
    auto cell = [&f](const char* name) {
      const auto& m = controller(f, name).machine;
      return pair_cell(m.state_count(), m.transition_count());
    };
    t.add_row({v.label, channels, cell("ALU1"), cell("ALU2"), cell("MUL1"), cell("MUL2")});
  }
  t.add_separator();
  for (const auto& r : paper_fig12()) {
    t.add_row({r.label, std::to_string(r.channels),
               pair_cell(static_cast<std::size_t>(r.alu1_s), static_cast<std::size_t>(r.alu1_t)),
               pair_cell(static_cast<std::size_t>(r.alu2_s), static_cast<std::size_t>(r.alu2_t)),
               pair_cell(static_cast<std::size_t>(r.mul1_s), static_cast<std::size_t>(r.mul1_t)),
               pair_cell(static_cast<std::size_t>(r.mul2_s), static_cast<std::size_t>(r.mul2_t))});
  }
  std::printf("%s\n", t.to_string().c_str());

  // The per-stage change log of the global pipeline (what the transforms did).
  FlowResult f = run_flow(diffeq(), kPaperRecipe);
  std::printf("global transformation log:\n");
  for (const auto& s : f.stages) {
    std::printf("  %s: -%d arcs, +%d arcs, %d node merges, %d channel merges\n",
                s.name.c_str(), s.arcs_removed, s.arcs_added, s.nodes_merged,
                s.channels_merged);
    for (const auto& n : s.notes) std::printf("      %s\n", n.c_str());
  }
  return 0;
}
