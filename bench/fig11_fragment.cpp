// The paper's Figure 11, "BM Expansion of RTL-Node A := Y + M1": the
// burst-mode fragment a single CDFG node expands into, before and after
// the local transformations.  The unoptimized fragment shows the six
// micro-operation phases of §4.2 — (i) wait request / set input muxes,
// (ii) do operation, (iii) set register mux, (iv) write register,
// (v) reset local signals in parallel, (vi) send done signals — and the
// optimized one shows what LT1-LT5 collapse them into.

#include "common.hpp"
#include "xbm/print.hpp"

using namespace adc;
using namespace adc::bench;

namespace {

void show_fragment(const Cdfg& g, const Xbm& m, const char* title) {
  std::printf("%s\n", title);
  NodeId node = *g.find_node_by_label("A := Y + M1");
  for (TransitionId tid : m.transition_ids()) {
    const auto& t = m.transition(tid);
    if (t.origin != node) continue;
    std::printf("  %-6s -> %-6s  %s", m.state(t.from).name.c_str(),
                m.state(t.to).name.c_str(), burst_to_string(m, t).c_str());
    if (!t.note.empty()) std::printf("   ; %s", t.note.c_str());
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("Figure 11 — burst-mode expansion of the RTL node A := Y + M1\n\n");

  FlowResult unopt = run_flow(diffeq(), kOptimizedGt);
  show_fragment(unopt.g, controller(unopt, "ALU1").machine,
                "direct translation (micro-operations (i)-(vi)):");

  FlowResult opt = run_flow(diffeq(), kPaperRecipe);
  show_fragment(opt.g, controller(opt, "ALU1").machine,
                "after LT1-LT5 (acks removed, dones moved up, muxes preselected):");

  std::printf("key: +/- concrete 4-phase edges, ~ transition-signalled wire,\n"
              "     * directed don't-care (early arrival tolerated),\n"
              "     <c+>/<c-> sampled conditionals.\n");
  return 0;
}
