// Bring your own benchmark: scheduled CDFGs can be written in a small
// textual language and pushed through the whole flow.  Pass a file name to
// synthesize your own program, or run without arguments for the built-in
// example (an IIR biquad filter section).
//
//   ./build/examples/custom_benchmark [program.adc]

#include <cstdio>
#include <fstream>
#include <sstream>

#include "extract/extract.hpp"
#include "frontend/parser.hpp"
#include "ltrans/local.hpp"
#include "sim/event_sim.hpp"
#include "sim/token_sim.hpp"
#include "transforms/script.hpp"

using namespace adc;

namespace {

const char* kBiquad = R"(program biquad {
  # y[n] = b0*x + b1*z1 + b2*z2 - a1*w1 - a2*w2, direct form II transposed-ish
  fu MUL1 : mul;
  fu MUL2 : mul;
  fu ALU1 : alu;
  loop C on ALU1 {
    MUL1: p0 := x * b0;
    MUL2: p1 := z1 * b1;
    MUL1: p2 := z2 * b2;
    ALU1: s0 := p0 + p1;
    MUL2: q1 := w1 * a1;
    ALU1: s1 := s0 + p2;
    MUL1: q2 := w2 * a2;
    ALU1: s2 := s1 - q1;
    ALU1: y := s2 - q2;
    ALU1: z2 := z1;
    ALU1: z1 := x;
    ALU1: w2 := w1;
    ALU1: w1 := y;
    ALU1: n := n - 1;
    ALU1: C := 0 < n;
  }
})";

}  // namespace

int main(int argc, char** argv) {
  std::string source;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  } else {
    source = kBiquad;
  }

  Cdfg g = parse_program(source);
  std::printf("parsed '%s': %zu nodes, %zu arcs, %zu units\n", g.name().c_str(),
              g.live_node_count(), g.live_arc_count(), g.fu_count());

  // Reference result from the sequential interpretation.
  std::map<std::string, std::int64_t> init{{"x", 5},  {"b0", 2}, {"b1", 3}, {"b2", 1},
                                           {"a1", 1}, {"a2", 2}, {"z1", 1}, {"z2", 2},
                                           {"w1", 1}, {"w2", 1}, {"n", 4},  {"C", 1}};
  auto gold = run_sequential(g, init);

  auto global = TransformScript::parse(kPaperRecipe).run(g);
  std::printf("after GT: %zu controller-controller channels\n",
              global.plan.count_controller_channels());

  std::vector<ControllerInstance> instances;
  for (auto& c : extract_controllers(g, global.plan)) {
    ControllerInstance inst;
    inst.shared_signals = run_local_transforms(c).shared_signals;
    std::printf("  %-5s %zu states / %zu transitions\n", c.machine.name().c_str(),
                c.machine.state_count(), c.machine.transition_count());
    inst.controller = std::move(c);
    instances.push_back(std::move(inst));
  }

  auto sim = run_event_sim(g, global.plan, instances, init, EventSimOptions{});
  if (!sim.completed) {
    std::printf("simulation failed: %s\n", sim.error.c_str());
    return 1;
  }
  bool all_ok = true;
  for (const auto& [reg, v] : gold) {
    if (!sim.registers.count(reg)) continue;
    if (sim.registers.at(reg) != v) {
      std::printf("MISMATCH %s: %lld vs golden %lld\n", reg.c_str(),
                  static_cast<long long>(sim.registers.at(reg)),
                  static_cast<long long>(v));
      all_ok = false;
    }
  }
  std::printf("gate-level simulation %s at t=%lld (y = %lld)\n",
              all_ok ? "matches the sequential semantics" : "FAILED",
              static_cast<long long>(sim.finish_time),
              static_cast<long long>(sim.registers.count("y") ? sim.registers.at("y") : 0));
  return all_ok ? 0 : 1;
}
