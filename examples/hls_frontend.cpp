// The high-level-synthesis substrate: the paper assumes its input CDFG is
// already scheduled and resource-bound; this example rebuilds that front
// end.  Raw sequential RTL statements go through dependence analysis,
// resource-constrained list scheduling and binding, and the generated
// scheduled CDFG then runs through the full synthesis flow.  Different
// resource budgets yield genuinely different distributed-control systems.
//
//   ./build/examples/hls_frontend

#include <cstdio>

#include "extract/extract.hpp"
#include "ltrans/local.hpp"
#include "report/table.hpp"
#include "sched/scheduler.hpp"
#include "sim/event_sim.hpp"
#include "sim/token_sim.hpp"
#include "transforms/script.hpp"

using namespace adc;

int main() {
  // The DIFFEQ inner loop as a plain statement list — no binding, no
  // schedule, exactly what a compiler front end would hand over.
  HlsProgram program;
  program.name = "diffeq_from_hls";
  program.loop_cond = "C";
  for (const char* t :
       {"B := 2dx + dx", "M1 := U * X1", "M2 := U * dx", "X := X + dx", "A := Y + M1",
        "M1 := A * B", "Y := Y + M2", "X1 := X", "U := U - M1", "C := X < a"})
    program.loop_body.push_back(parse_rtl(t));

  std::map<std::string, std::int64_t> init{{"X", 0}, {"a", 8}, {"dx", 1},
                                           {"U", 3},  {"Y", 1}, {"X1", 0}, {"C", 1}};

  std::printf("resource sweep for the DIFFEQ loop:\n\n");
  Table t({"resources", "units", "makespan", "channels", "total states", "latency",
           "correct"});

  struct Budget {
    const char* label;
    Resources res;
  };
  for (const Budget b : {Budget{"1 ALU, 1 MUL", {1, 1, 1, 2}},
                         Budget{"2 ALU, 1 MUL", {2, 1, 1, 2}},
                         Budget{"2 ALU, 2 MUL", {2, 2, 1, 2}},
                         Budget{"3 ALU, 2 MUL", {3, 2, 1, 2}}}) {
    // Schedule and bind.
    auto ops = build_dfg(program.loop_body);
    auto sched = list_schedule(ops, b.res);
    Cdfg g = schedule_and_bind(program, b.res);

    auto gold = run_sequential(g, init);

    // Synthesize and simulate.
    auto global = TransformScript::parse(kPaperRecipe).run(g);
    std::vector<ControllerInstance> instances;
    std::size_t states = 0;
    for (auto& c : extract_controllers(g, global.plan)) {
      ControllerInstance inst;
      inst.shared_signals = run_local_transforms(c).shared_signals;
      states += c.machine.state_count();
      inst.controller = std::move(c);
      instances.push_back(std::move(inst));
    }
    EventSimOptions o;
    o.randomize_delays = false;
    auto sim = run_event_sim(g, global.plan, instances, init, o);
    bool correct = sim.completed;
    for (const char* r : {"X", "Y", "U"})
      correct = correct && sim.registers.at(r) == gold.at(r);

    t.add_row({b.label, std::to_string(g.fu_count()), std::to_string(sched.makespan),
               std::to_string(global.plan.count_controller_channels()),
               std::to_string(states), std::to_string(sim.finish_time),
               correct ? "yes" : "NO"});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nMore units shorten the schedule but cost controllers and wires —\n"
              "the area/performance trade-off the distributed-control style exposes.\n");
  return 0;
}
