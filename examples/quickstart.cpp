// Quickstart: describe a small scheduled RTL program, run the whole
// synthesis flow, and watch the synthesized distributed controllers
// execute it.
//
//   cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "extract/extract.hpp"
#include "frontend/builder.hpp"
#include "ltrans/local.hpp"
#include "sim/event_sim.hpp"
#include "transforms/script.hpp"
#include "xbm/print.hpp"

using namespace adc;

int main() {
  // 1. A scheduled, resource-bound program: one ALU and one multiplier
  //    computing r = (a+b)*(a-b) with the two additions on the ALU.
  ProgramBuilder builder("quickstart");
  FuId alu = builder.fu("ALU1", "alu");
  FuId mul = builder.fu("MUL1", "mul");
  builder.stmt(alu, "s := a + b");
  builder.stmt(alu, "d := a - b");
  builder.stmt(mul, "r := s * d");
  Cdfg graph = builder.finish();
  std::printf("CDFG: %zu nodes, %zu constraint arcs\n", graph.live_node_count(),
              graph.live_arc_count());

  // 2. Global transformations (GT1-GT5) optimize the controller-controller
  //    communication; the channel plan maps constraint arcs onto wires.
  auto global = TransformScript::parse(kPaperRecipe).run(graph);
  std::printf("channels after GT: %zu controller-controller, %zu total\n",
              global.plan.count_controller_channels(),
              global.plan.count_all_channels());

  // 3. Extract one burst-mode controller per functional unit and apply the
  //    local transformations (LT1-LT5).
  std::vector<ControllerInstance> instances;
  for (auto& c : extract_controllers(graph, global.plan)) {
    ControllerInstance inst;
    inst.shared_signals = run_local_transforms(c).shared_signals;
    std::printf("\ncontroller %s: %zu states, %zu transitions\n",
                c.machine.name().c_str(), c.machine.state_count(),
                c.machine.transition_count());
    std::printf("%s", to_text(c.machine).c_str());
    inst.controller = std::move(c);
    instances.push_back(std::move(inst));
  }

  // 4. Simulate the synthesized system gate-level against the datapath.
  std::map<std::string, std::int64_t> init{{"a", 7}, {"b", 3}};
  auto result = run_event_sim(graph, global.plan, instances, init, EventSimOptions{});
  if (!result.completed) {
    std::printf("simulation failed: %s\n", result.error.c_str());
    return 1;
  }
  std::printf("\nsimulated: r = %lld (expected %d), finished at t=%lld\n",
              static_cast<long long>(result.registers.at("r")), (7 + 3) * (7 - 3),
              static_cast<long long>(result.finish_time));
  return 0;
}
