// Design-space exploration — the paper's core claim is that the transforms
// form a *toolbox* for systematically exploring implementations.  This
// bench toggles each transformation and reports the whole quality surface:
// channels, controller complexity, gate-level area and simulated latency,
// across all bundled benchmarks.
//
// All rows are evaluated as one batch on the parallel synthesis runtime:
// the requests fan across a work-stealing pool and recipes sharing script
// prefixes reuse cached stages instead of recomputing them.

#include "area/area_model.hpp"
#include "common.hpp"
#include "runtime/flow.hpp"

using namespace adc;
using namespace adc::bench;

namespace {

void row(Table& t, const std::string& label, const FlowPoint& p) {
  t.add_row({label, std::to_string(p.channels), pair_cell(p.states, p.transitions),
             pair_cell(p.products, p.literals), std::to_string(p.latency),
             p.ok ? "yes" : "NO"});
}

FlowRequest request_for(const char* bench_name, const std::string& script) {
  const BuiltinBenchmark* b = find_builtin(bench_name);
  if (!b) throw std::runtime_error(std::string("no builtin ") + bench_name);
  return make_builtin_request(*b, script);
}

}  // namespace

int main() {
  ThreadPool pool;
  FlowExecutor exec(&pool);

  std::printf("design-space exploration: per-transform ablation on DIFFEQ\n");
  std::printf("cells: totals across the four controllers (%zu workers)\n\n", pool.size());

  // Part 1: the DIFFEQ ablation rows, as (label, recipe script) pairs.
  // Each "without" row drops one transform from the paper's recipe (the
  // GT2 cleanup after GT4 goes with either of them).
  const std::vector<std::pair<std::string, std::string>> ablation = {
      {"no transforms", ""},
      {"all GT, no LT", kOptimizedGt},
      {"all GT + LT", kPaperRecipe},
      {"without GT1 (loop par.)", "gt2; gt3; gt4; gt2; gt5; lt"},
      {"without GT2 (dominated)", "gt1; gt3; gt4; gt5; lt"},
      {"without GT3 (rel. timing)", "gt1; gt2; gt4; gt2; gt5; lt"},
      {"without GT4 (merge assign)", "gt1; gt2; gt3; gt5; lt"},
      {"without GT5 (channels)", "gt1; gt2; gt3; gt4; gt2; lt"},
      // GT5 policy exploration: the broadcast-formation policy trades
      // wires against receiver bookkeeping.
      {"GT5 aggressive broadcast", "gt1; gt2; gt3; gt4; gt2; gt5(broadcast=all); lt"},
      {"GT5 no broadcast", "gt1; gt2; gt3; gt4; gt2; gt5(broadcast=none); lt"},
      {"GT5 + concurrency reduction", "gt1; gt2; gt3; gt4; gt2; gt5(maxperiod=200); lt"},
  };

  std::vector<FlowRequest> reqs;
  for (const auto& [label, script] : ablation) reqs.push_back(request_for("diffeq", script));
  std::vector<FlowPoint> points = exec.run_all(reqs);

  Table t({"configuration", "channels", "states/trans", "prod/lits", "latency", "correct"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    row(t, ablation[i].first, points[i]);
    if (i == 2 || i == 7) t.add_separator();
  }
  std::printf("%s\n", t.to_string().c_str());

  // Part 2: the same surface for the other bundled benchmarks.
  std::printf("all benchmarks, unoptimized vs fully optimized:\n");
  const char* cases[] = {"diffeq", "gcd", "fir4", "mac_reduce", "ewf_lite", "ewf"};
  std::vector<FlowRequest> breqs;
  for (const char* c : cases) {
    breqs.push_back(request_for(c, ""));
    breqs.push_back(request_for(c, kPaperRecipe));
  }
  std::vector<FlowPoint> bpoints = exec.run_all(breqs);

  Table b({"benchmark", "config", "channels", "states/trans", "prod/lits", "latency",
           "correct"});
  for (std::size_t i = 0; i < bpoints.size(); i += 2) {
    const FlowPoint& un = bpoints[i];
    const FlowPoint& op = bpoints[i + 1];
    b.add_row({cases[i / 2], "unoptimized", std::to_string(un.channels),
               pair_cell(un.states, un.transitions), pair_cell(un.products, un.literals),
               std::to_string(un.latency), un.ok ? "yes" : "NO"});
    b.add_row({"", "GT+LT", std::to_string(op.channels),
               pair_cell(op.states, op.transitions), pair_cell(op.products, op.literals),
               std::to_string(op.latency), op.ok ? "yes" : "NO"});
  }
  std::printf("%s", b.to_string().c_str());

  CacheStats cs = exec.cache().stats();
  std::printf("\nruntime: %llu stage computations, %llu served from cache\n",
              static_cast<unsigned long long>(cs.misses),
              static_cast<unsigned long long>(cs.hits + cs.joins));
  return 0;
}
