// Reproduction of the paper's Figure 13: "Gate-Level Comparison".
//
// Two-level hazard-free implementations of the optimized-GT-and-LT DIFFEQ
// controllers: products and literals per controller, in both counting modes
// (shared AND-terms, Minimalist-like; and single-output, 3D-like), next to
// the published rows.
//
// Absolute counts are not comparable one-to-one: the paper used
// Minimalist/3D with their state-minimization and critical-race-free
// assignment engines, while this reproduction uses a Gray-walk/greedy
// encoding and lazy phase concretization (which doubles ring states whose
// wire phases alternate — see DESIGN.md).  The comparable signal is the
// trend across optimization levels, printed below the headline table.

#include "common.hpp"

using namespace adc;
using namespace adc::bench;

namespace {

struct Cells {
  std::map<std::string, GateStats> per;
  std::size_t tp = 0, tl = 0;  // shared-mode totals
};

Cells synthesize_all(const FlowResult& f) {
  Cells out;
  for (const auto& inst : f.instances) {
    auto r = synthesize_logic(inst.controller);
    auto st = gate_stats(r, inst.controller.machine.state_count());
    out.per[f.g.fu(inst.controller.fu).name] = st;
    out.tp += st.products_shared;
    out.tl += st.literals_shared;
    for (const auto& issue : r.issues) std::printf("  ISSUE: %s\n", issue.c_str());
  }
  return out;
}

}  // namespace

int main() {
  std::printf("Figure 13 — gate-level comparison (DIFFEQ)\n");
  std::printf("cells: #products/#literals (shared AND-plane counting)\n\n");

  FlowResult f = run_flow(diffeq(), kPaperRecipe);
  Cells ours = synthesize_all(f);

  Table t({"method", "ALU1", "ALU2", "MUL1", "MUL2", "total"});
  auto cell = [&ours](const char* n) {
    const auto& s = ours.per.at(n);
    return pair_cell(s.products_shared, s.literals_shared);
  };
  t.add_row({"our method (GT+LT)", cell("ALU1"), cell("ALU2"), cell("MUL1"),
             cell("MUL2"), pair_cell(ours.tp, ours.tl)});
  t.add_separator();
  for (const auto& r : paper_fig13()) {
    t.add_row({r.label,
               pair_cell(static_cast<std::size_t>(r.alu1_p), static_cast<std::size_t>(r.alu1_l)),
               pair_cell(static_cast<std::size_t>(r.alu2_p), static_cast<std::size_t>(r.alu2_l)),
               pair_cell(static_cast<std::size_t>(r.mul1_p), static_cast<std::size_t>(r.mul1_l)),
               pair_cell(static_cast<std::size_t>(r.mul2_p), static_cast<std::size_t>(r.mul2_l)),
               pair_cell(static_cast<std::size_t>(r.total_p), static_cast<std::size_t>(r.total_l))});
  }
  std::printf("%s\n", t.to_string().c_str());

  // Per-controller implementation detail.
  std::printf("implementation detail (our method):\n");
  for (const auto& [name, st] : ours.per)
    std::printf("  %-5s: %s\n", name.c_str(), describe(st).c_str());

  // The trend the figure demonstrates: the transformations collapse the
  // gate level.  Same synthesis backend across all three rows.
  std::printf("\ntrend across optimization levels (same backend, shared counting):\n");
  Table trend({"experiment", "total products", "total literals"});
  struct Variant {
    const char* label;
    const char* script;
  };
  std::vector<std::size_t> literals;  // per variant, in row order
  for (const Variant v : {Variant{"unoptimized", ""},
                          Variant{"optimized-GT", kOptimizedGt},
                          Variant{"optimized-GT-and-LT", kPaperRecipe}}) {
    FlowResult fv = run_flow(diffeq(), v.script);
    Cells c = synthesize_all(fv);
    literals.push_back(c.tl);
    trend.add_row({v.label, std::to_string(c.tp), std::to_string(c.tl)});
  }
  const std::size_t unopt_l = literals.front(), opt_l = literals.back();
  std::printf("%s", trend.to_string().c_str());
  if (unopt_l > 0)
    std::printf("literal reduction unoptimized -> GT+LT: %.0f%%\n",
                100.0 * (1.0 - static_cast<double>(opt_l) / static_cast<double>(unopt_l)));
  return 0;
}
