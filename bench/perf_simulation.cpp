// Performance evaluation (the paper's §3.1 motivation made quantitative):
// DIFFEQ execution latency at each optimization level, measured by both
// simulators, with an iteration-count sweep.  GT1's loop parallelism and
// the LT critical-path optimizations should show as monotone speedups.
//
//   ./build/bench/perf_simulation

#include <algorithm>

#include "common.hpp"

using namespace adc;
using namespace adc::bench;

int main() {
  std::printf("DIFFEQ execution latency (worst-case delays, deterministic)\n\n");

  struct Variant {
    const char* label;
    bool gt, lt;
  };
  const Variant variants[] = {{"unoptimized", false, false},
                              {"optimized-GT", true, false},
                              {"optimized-GT-and-LT", true, true}};

  // --- token-level (CDFG firing) latency -------------------------------
  std::printf("CDFG token simulation (architecture-level latency):\n");
  Table t({"iterations", "unoptimized", "optimized-GT", "speedup",
           "per-iter unopt", "per-iter GT"});
  for (std::int64_t a : {4, 8, 16, 32, 64}) {
    std::map<std::string, std::int64_t> times;
    for (const auto& v : variants) {
      if (v.lt) continue;  // LT does not change the CDFG-level graph
      Cdfg g = diffeq();
      if (v.gt) run_global_transforms(g);
      TokenSimOptions o;
      o.randomize_delays = false;
      auto r = run_token_sim(g, diffeq_inputs(a), o);
      if (!r.completed) {
        std::printf("  %s failed: %s\n", v.label, r.error.c_str());
        return 1;
      }
      times[v.label] = r.finish_time;
    }
    double speedup = static_cast<double>(times["unoptimized"]) /
                     static_cast<double>(times["optimized-GT"]);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx", speedup);
    t.add_row({std::to_string(a), std::to_string(times["unoptimized"]),
               std::to_string(times["optimized-GT"]), buf,
               std::to_string(times["unoptimized"] / a),
               std::to_string(times["optimized-GT"] / a)});
  }
  std::printf("%s\n", t.to_string().c_str());

  // --- gate-level (controller) latency ----------------------------------
  std::printf("gate-level event simulation (synthesized controllers):\n");
  Table e({"iterations", "unoptimized", "optimized-GT", "optimized-GT-and-LT",
           "GT+LT speedup"});
  for (std::int64_t a : {4, 8, 16, 32}) {
    std::map<std::string, std::int64_t> times;
    for (const auto& v : variants) {
      FlowResult f = run_flow(diffeq(), v.gt, v.lt);
      EventSimOptions o;
      o.randomize_delays = false;
      auto r = run_event_sim(f.g, f.plan, f.instances, diffeq_inputs(a), o);
      if (!r.completed) {
        std::printf("  %s failed: %s\n", v.label, r.error.c_str());
        return 1;
      }
      times[v.label] = r.finish_time;
    }
    double speedup = static_cast<double>(times["unoptimized"]) /
                     static_cast<double>(times["optimized-GT-and-LT"]);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx", speedup);
    e.add_row({std::to_string(a), std::to_string(times["unoptimized"]),
               std::to_string(times["optimized-GT"]),
               std::to_string(times["optimized-GT-and-LT"]), buf});
  }
  std::printf("%s\n", e.to_string().c_str());

  // Iteration overlap demonstration (GT1's effect).
  std::printf("iteration overlap (token simulation, randomized delays):\n");
  for (bool gt : {false, true}) {
    Cdfg g = diffeq();
    if (gt) run_global_transforms(g);
    int overlap = 1;
    for (unsigned seed = 1; seed <= 10; ++seed) {
      TokenSimOptions o;
      o.seed = seed;
      auto r = run_token_sim(g, diffeq_inputs(32), o);
      overlap = std::max(overlap, r.max_overlap);
    }
    std::printf("  %-14s max concurrent iterations: %d\n",
                gt ? "optimized-GT" : "unoptimized", overlap);
  }

  return 0;
}
