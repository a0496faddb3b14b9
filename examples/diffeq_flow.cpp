// The paper's case study, end to end: the differential-equation solver
// benchmark through every stage of the flow, with a narrated report.
//
//   ./build/examples/diffeq_flow

#include <cstdio>
#include <fstream>

#include "cdfg/dot.hpp"
#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "logic/minimize.hpp"
#include "logic/stats.hpp"
#include "ltrans/local.hpp"
#include "sim/event_sim.hpp"
#include "sim/golden.hpp"
#include "transforms/script.hpp"
#include "xbm/print.hpp"

using namespace adc;

int main() {
  std::printf("=== DIFFEQ: while (x < a) { x1=x+dx; u1=u-3xu dx-3y dx; y1=y+u dx } ===\n\n");

  Cdfg g = diffeq();
  std::printf("[1] scheduled CDFG: %zu nodes, %zu arcs across 4 units "
              "(2 ALUs, 2 multipliers)\n",
              g.live_node_count(), g.live_arc_count());
  std::ofstream("diffeq_initial.dot") << to_dot(g);

  auto global = TransformScript::parse(kPaperRecipe).run(g);
  std::printf("\n[2] global transformations:\n");
  for (const auto& s : global.stages)
    std::printf("    %-36s -%d arcs +%d arcs, %d merges\n", s.name.c_str(),
                s.arcs_removed, s.arcs_added, s.nodes_merged + s.channels_merged);
  std::printf("    channels: %zu controller-controller (+%zu environment)\n",
              global.plan.count_controller_channels(),
              global.plan.count_all_channels() -
                  global.plan.count_controller_channels());
  for (const auto& c : global.plan.channels())
    if (!c.involves_environment())
      std::printf("      %s\n", describe(c, g).c_str());
  std::ofstream("diffeq_transformed.dot") << to_dot(g);

  std::printf("\n[3] controller extraction + local transformations:\n");
  std::vector<ControllerInstance> instances;
  for (auto& c : extract_controllers(g, global.plan)) {
    std::size_t s0 = c.machine.state_count(), t0 = c.machine.transition_count();
    auto lt = run_local_transforms(c);
    std::printf("    %-5s %2zu/%2zu -> %2zu/%2zu states/transitions",
                c.machine.name().c_str(), s0, t0, c.machine.state_count(),
                c.machine.transition_count());
    std::printf("  (%zu wires shared)\n", lt.shared_signals.size());
    std::ofstream(c.machine.name() + ".bms") << to_text(c.machine);
    ControllerInstance inst;
    inst.shared_signals = std::move(lt.shared_signals);
    inst.controller = std::move(c);
    instances.push_back(std::move(inst));
  }
  std::printf("    burst-mode specifications written to ALU1.bms ALU2.bms "
              "MUL1.bms MUL2.bms\n");

  std::printf("\n[4] hazard-free two-level synthesis:\n");
  for (const auto& inst : instances) {
    auto r = synthesize_logic(inst.controller);
    auto st = gate_stats(r, inst.controller.machine.state_count());
    std::printf("    %-5s %s\n", inst.controller.machine.name().c_str(),
                describe(st).c_str());
  }

  std::printf("\n[5] gate-level execution vs the golden model:\n");
  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 8}, {"dx", 1},
                                           {"U", 3},  {"Y", 1}, {"X1", 0}, {"C", 1}};
  auto gold = diffeq_reference_registers(init);
  auto sim = run_event_sim(g, global.plan, instances, init, EventSimOptions{});
  if (!sim.completed) {
    std::printf("    simulation failed: %s\n", sim.error.c_str());
    return 1;
  }
  for (const char* r : {"X", "Y", "U"})
    std::printf("    %s = %lld (golden %lld) %s\n", r,
                static_cast<long long>(sim.registers.at(r)),
                static_cast<long long>(gold.at(r)),
                sim.registers.at(r) == gold.at(r) ? "ok" : "MISMATCH");
  std::printf("    %lld datapath operations, finished at t=%lld\n",
              static_cast<long long>(sim.operations),
              static_cast<long long>(sim.finish_time));
  return 0;
}
