#include "perf/suites.hpp"

#include <memory>
#include <mutex>

#include "analysis/build.hpp"
#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "frontend/parser.hpp"
#include "logic/memo.hpp"
#include "logic/minimize.hpp"
#include "ltrans/local.hpp"
#include "perf/measure.hpp"
#include "runtime/flow.hpp"
#include "sim/event_sim.hpp"
#include "sim/token_sim.hpp"
#include "transforms/global.hpp"
#include "transforms/script.hpp"
#include "xbm/validate.hpp"

namespace adc {
namespace perf {

namespace {

RandomProgramParams sized(int stmts) {
  RandomProgramParams p;
  p.alus = 3;
  p.mults = 2;
  p.stmts = stmts;
  p.regs = 8;
  return p;
}

// Lazily-built shared inputs: the fully synthesized DIFFEQ system at the
// paper's full recipe, reused by the lt/logic/sim suites so each suite
// times only its own stage.
struct DiffeqArtifacts {
  Cdfg g{"empty"};
  ChannelPlan plan;
  std::vector<ControllerInstance> instances;
};

std::shared_ptr<const DiffeqArtifacts> diffeq_artifacts() {
  static std::shared_ptr<const DiffeqArtifacts> cached = [] {
    auto a = std::make_shared<DiffeqArtifacts>();
    a->g = diffeq();
    auto res = TransformScript::parse(kPaperRecipe).run(a->g);
    a->plan = std::move(res.plan);
    for (auto& c : extract_controllers(a->g, a->plan)) {
      ControllerInstance inst;
      inst.shared_signals = run_local_transforms(c).shared_signals;
      inst.controller = std::move(c);
      a->instances.push_back(std::move(inst));
    }
    return a;
  }();
  return cached;
}

std::map<std::string, std::int64_t> diffeq_init(std::int64_t a = 8) {
  return {{"X", 0}, {"a", a}, {"dx", 1}, {"U", 3}, {"Y", 1}, {"X1", 0}, {"C", 1}};
}

void add(const char* suite, const char* name,
         std::function<void(BenchContext&)> fn) {
  BenchRegistry::instance().add({suite, name, std::move(fn)});
}

void register_frontend() {
  add("frontend", "frontend.diffeq_build", [](BenchContext&) {
    Cdfg g = diffeq();
    volatile std::size_t sink = g.live_arc_count();
    (void)sink;
  });
  add("frontend", "frontend.diffeq_parse", [](BenchContext&) {
    Cdfg g = parse_program(diffeq_source());
    volatile std::size_t sink = g.live_arc_count();
    (void)sink;
  });
  add("frontend", "frontend.random_arcgen", [](BenchContext& ctx) {
    Cdfg g = random_program(sized(ctx.quick ? 20 : 80), 42);
    ctx.counters["arcs"] = static_cast<double>(g.live_arc_count());
  });
}

void register_gt() {
  // The recipe is parsed once, outside the timed iterations.
  const TransformScript paper = TransformScript::parse(kPaperRecipe);
  add("gt", "gt.pipeline_diffeq", [paper](BenchContext& ctx) {
    Cdfg g = diffeq();
    auto res = paper.run(g);
    ctx.counters["channels"] =
        static_cast<double>(res.plan.count_controller_channels());
  });
  add("gt", "gt.pipeline_random", [paper](BenchContext& ctx) {
    Cdfg g = random_program(sized(ctx.quick ? 10 : 40), 42);
    auto res = paper.run(g);
    ctx.counters["channels"] =
        static_cast<double>(res.plan.count_controller_channels());
  });
  add("gt", "gt.gt2_random", [](BenchContext& ctx) {
    Cdfg g = random_program(sized(ctx.quick ? 20 : 80), 42);
    auto res = gt2_remove_dominated(g);
    ctx.counters["arcs_removed"] = static_cast<double>(res.arcs_removed);
  });
}

// The extracted, pre-LT controllers of one large generated program (three
// ALUs, two multipliers, 80 loop statements, no pure moves) after the
// paper's recipe: the input of lt.validate_random and lt.pipeline_random.
std::shared_ptr<const std::vector<ExtractedController>> random_extracted() {
  static std::shared_ptr<const std::vector<ExtractedController>> cached = [] {
    RandomProgramParams p = sized(80);
    p.moves = false;
    Cdfg g = random_program(p, 42);
    auto res = TransformScript::parse(kPaperRecipe).run(g);
    return std::make_shared<const std::vector<ExtractedController>>(
        extract_controllers(g, res.plan));
  }();
  return cached;
}

void register_lt() {
  add("lt", "lt.validate_random", [](BenchContext& ctx) {
    std::size_t errors = 0;
    for (const auto& c : *random_extracted()) errors += validate(c.machine).size();
    ctx.counters["errors"] = static_cast<double>(errors);
  });
  add("lt", "lt.pipeline_random", [](BenchContext& ctx) {
    std::size_t states = 0;
    for (ExtractedController c : *random_extracted()) {
      run_local_transforms(c);
      states += c.machine.state_count();
    }
    ctx.counters["states"] = static_cast<double>(states);
  });
  add("lt", "lt.extract_plus_lt_diffeq", [](BenchContext& ctx) {
    auto a = diffeq_artifacts();
    auto controllers = extract_controllers(a->g, a->plan);
    std::size_t states = 0;
    for (auto& c : controllers) {
      run_local_transforms(c);
      states += c.machine.state_count();
    }
    ctx.counters["states"] = static_cast<double>(states);
  });
}

// The hazard-free specifications of every DIFFEQ controller function —
// the shared input of the stage-local logic.* micro-benches below.
std::shared_ptr<const std::vector<FunctionSpec>> diffeq_specs() {
  static std::shared_ptr<const std::vector<FunctionSpec>> cached = [] {
    auto a = diffeq_artifacts();
    auto v = std::make_shared<std::vector<FunctionSpec>>();
    for (const auto& inst : a->instances) {
      ConcreteMachine cm =
          concretize(inst.controller.machine, &inst.controller.bindings);
      Encoding enc = assign_codes(cm);
      const std::size_t n_out = cm.output_names.size();
      for (std::size_t fi = 0; fi < n_out + enc.bits; ++fi) {
        const bool state_bit = fi >= n_out;
        const std::size_t index = state_bit ? fi - n_out : fi;
        std::string name = state_bit ? "Y" + std::to_string(index)
                                     : cm.output_names[index];
        v->push_back(build_function_spec(cm, enc, state_bit, index,
                                         std::move(name)));
      }
    }
    return v;
  }();
  return cached;
}

// The concretized controllers of every builtin benchmark at the full
// recipe: the input of logic.encode_library.
std::shared_ptr<const std::vector<ConcreteMachine>> library_machines() {
  static std::shared_ptr<const std::vector<ConcreteMachine>> cached = [] {
    auto v = std::make_shared<std::vector<ConcreteMachine>>();
    const TransformScript paper = TransformScript::parse(kPaperRecipe);
    for (const auto& b : builtin_benchmarks()) {
      Cdfg g = b.make();
      auto res = paper.run(g);
      for (auto& c : extract_controllers(g, res.plan)) {
        run_local_transforms(c);
        v->push_back(concretize(c.machine, &c.bindings));
      }
    }
    return v;
  }();
  return cached;
}

// The controllers of six fixed programs shaped like the random_corpus
// benchmark's (two ALUs, one or two multipliers, 12-32 loop statements,
// 6-8 registers, no pure moves) after its recipe, one list per program:
// the input of logic.minimize_random.
std::shared_ptr<const std::vector<std::vector<ExtractedController>>> corpus_controllers() {
  static std::shared_ptr<const std::vector<std::vector<ExtractedController>>> cached = [] {
    auto v = std::make_shared<std::vector<std::vector<ExtractedController>>>();
    const TransformScript script =
        TransformScript::parse("gt1; gt2; gt3; gt4; gt2; gt5(no_sym); lt");
    for (int i = 0; i < 6; ++i) {
      RandomProgramParams p;
      p.alus = 2;
      p.mults = 1 + i % 2;
      p.stmts = 12 + 4 * i;
      p.regs = 6 + i % 3;
      p.moves = false;
      Cdfg g = random_program(p, static_cast<std::uint64_t>(100 + i));
      auto res = script.run(g);
      auto& controllers = v->emplace_back(extract_controllers(g, res.plan));
      for (auto& c : controllers) run_local_transforms(c, script.local_options());
    }
    return v;
  }();
  return cached;
}

void register_logic() {
  add("logic", "logic.encode_library", [](BenchContext& ctx) {
    auto machines = library_machines();
    int distance1 = 0;
    for (const auto& cm : *machines) distance1 += assign_codes(cm).distance1;
    ctx.counters["distance1"] = static_cast<double>(distance1);
  });
  add("logic", "logic.minimize_diffeq", [](BenchContext& ctx) {
    auto a = diffeq_artifacts();
    std::size_t lits = 0;
    for (const auto& inst : a->instances)
      lits += synthesize_logic(inst.controller).literal_count(true);
    ctx.counters["literals"] = static_cast<double>(lits);
  });
  add("logic", "logic.minimize_random", [](BenchContext& ctx) {
    auto programs = corpus_controllers();
    const std::size_t n = ctx.quick ? 2 : programs->size();
    std::size_t products = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (const auto& c : (*programs)[i]) products += synthesize_logic(c).product_count(true);
    ctx.counters["products"] = static_cast<double>(products);
  });
  add("logic", "logic.spec_build_diffeq", [](BenchContext& ctx) {
    auto a = diffeq_artifacts();
    std::size_t required = 0;
    for (const auto& inst : a->instances) {
      ConcreteMachine cm =
          concretize(inst.controller.machine, &inst.controller.bindings);
      Encoding enc = assign_codes(cm);
      const std::size_t n_out = cm.output_names.size();
      for (std::size_t fi = 0; fi < n_out + enc.bits; ++fi) {
        const bool state_bit = fi >= n_out;
        const std::size_t index = state_bit ? fi - n_out : fi;
        required +=
            build_function_spec(cm, enc, state_bit, index, "f").required.size();
      }
    }
    ctx.counters["required"] = static_cast<double>(required);
  });
  add("logic", "logic.candidates_diffeq", [](BenchContext& ctx) {
    auto specs = diffeq_specs();
    std::size_t candidates = 0;
    for (const auto& f : *specs) candidates += candidate_implicants(f).size();
    ctx.counters["candidates"] = static_cast<double>(candidates);
  });
  add("logic", "logic.cover_greedy_diffeq", [](BenchContext& ctx) {
    auto specs = diffeq_specs();
    std::size_t products = 0;
    for (const auto& f : *specs) products += minimize_hazard_free(f).products.size();
    ctx.counters["products"] = static_cast<double>(products);
  });
  add("logic", "logic.memo_warm_diffeq", [](BenchContext& ctx) {
    // Replay path: every spec is already in the memo, so the iteration
    // times fingerprint + lookup + cover materialization only.
    static const std::shared_ptr<LogicMemo> memo = [] {
      auto m = std::make_shared<LogicMemo>();
      auto a = diffeq_artifacts();
      SynthesisOptions sopts;
      sopts.cover.memo = m.get();
      for (const auto& inst : a->instances)
        synthesize_logic(inst.controller, sopts);
      return m;
    }();
    auto a = diffeq_artifacts();
    SynthesisOptions sopts;
    sopts.cover.memo = memo.get();
    std::size_t lits = 0;
    for (const auto& inst : a->instances)
      lits += synthesize_logic(inst.controller, sopts).literal_count(true);
    ctx.counters["literals"] = static_cast<double>(lits);
    ctx.counters["memo_hits"] = static_cast<double>(memo->stats().hits);
  });
  add("logic", "logic.memo_evict", [](BenchContext& ctx) {
    // A full memo under a stream of new keys: 10,000 fills at the default
    // capacity of 4096, so all but the first 4096 evict.  Times the memo's
    // bookkeeping alone, which an eviction scan over the map would make
    // quadratic.
    static const std::vector<Fingerprint> keys = [] {
      std::vector<Fingerprint> v;
      for (std::uint64_t i = 0; i < 10000; ++i)
        v.push_back(FingerprintBuilder().add("memo-evict").add(i).digest());
      return v;
    }();
    auto entry = std::make_shared<const LogicMemo::Entry>();
    LogicMemo memo(4096);
    for (const auto& k : keys) memo.fill(k, entry);
    ctx.counters["evictions"] = static_cast<double>(memo.stats().evictions);
  });
}

void register_sim() {
  add("sim", "sim.token_diffeq_gt", [](BenchContext& ctx) {
    static const std::shared_ptr<const Cdfg> g = [] {
      auto gp = std::make_shared<Cdfg>(diffeq());
      TransformScript::parse(kPaperRecipe).run(*gp);
      return gp;
    }();
    Cdfg run_g = *g;
    TokenSimOptions o;
    o.randomize_delays = false;
    auto r = run_token_sim(run_g, diffeq_init(8), o);
    ctx.counters["finish_time"] = static_cast<double>(r.finish_time);
  });
  add("sim", "sim.event_diffeq_full", [](BenchContext& ctx) {
    auto a = diffeq_artifacts();
    EventSimOptions o;
    o.randomize_delays = false;
    auto r = run_event_sim(a->g, a->plan, a->instances, diffeq_init(8), o);
    ctx.counters["latency"] = static_cast<double>(r.finish_time);
    ctx.counters["events"] = static_cast<double>(r.events);
    ctx.counters["operations"] = static_cast<double>(r.operations);
  });
}

void register_flow() {
  add("flow", "flow.cold_diffeq", [](BenchContext& ctx) {
    FlowRequest req = make_builtin_request(*find_builtin("diffeq"), kPaperRecipe);
    req.simulate = false;
    FlowExecutor::Options o;
    o.cache_capacity = 0;
    FlowExecutor exec(nullptr, o);
    FlowPoint p = exec.run(req);
    ctx.counters["literals"] = static_cast<double>(p.literals);
    for (const auto& t : p.timings)
      ctx.stages.push_back({t.stage, t.micros, t.cpu_micros, t.cached});
  });
  add("flow", "flow.warm_diffeq", [](BenchContext& ctx) {
    static const std::shared_ptr<FlowExecutor> exec = [] {
      auto e = std::make_shared<FlowExecutor>(nullptr);
      FlowRequest req = make_builtin_request(*find_builtin("diffeq"), kPaperRecipe);
      req.simulate = false;
      e->run(req);  // prime the stage cache
      return e;
    }();
    FlowRequest req = make_builtin_request(*find_builtin("diffeq"), kPaperRecipe);
    req.simulate = false;
    FlowPoint p = exec->run(req);
    ctx.counters["literals"] = static_cast<double>(p.literals);
    for (const auto& t : p.timings)
      ctx.stages.push_back({t.stage, t.micros, t.cpu_micros, t.cached});
  });
}

void register_dse() {
  // The representative cold DSE sweep: structure metrics AND the event
  // simulation, exactly what `adc_dse --bench diffeq --grid gt` runs.
  // dse.grid_profiled repeats it with full attribution + profile/grid
  // analyses on top; the two are gated against each other (profiling
  // overhead <= 5% p50) by cli_bench_profiled_ratio.
  add("dse", "dse.grid_cold_serial", [](BenchContext& ctx) {
    auto grid = gt_ablation_grid(true);
    if (ctx.quick) grid.resize(8);
    std::vector<FlowRequest> reqs;
    for (const auto& script : grid)
      reqs.push_back(make_builtin_request(*find_builtin("diffeq"), script));
    FlowExecutor exec(nullptr);  // fresh cache every iteration
    auto points = exec.run_all(reqs);
    CacheStats cs = exec.cache().stats();
    ctx.counters["points"] = static_cast<double>(points.size());
    ctx.counters["cache_hit_rate"] = cs.hit_rate();
  });
  add("dse", "dse.grid_profiled", [](BenchContext& ctx) {
    auto grid = gt_ablation_grid(true);
    if (ctx.quick) grid.resize(8);
    std::vector<FlowRequest> reqs;
    for (const auto& script : grid) {
      FlowRequest req = make_builtin_request(*find_builtin("diffeq"), script);
      req.critical_path = true;
      reqs.push_back(std::move(req));
    }
    FlowExecutor exec(nullptr);  // fresh cache every iteration
    auto points = exec.run_all(reqs);
    auto profile = analysis::build_dse_profile(points, "adc_bench");
    ctx.counters["points"] = static_cast<double>(points.size());
    ctx.counters["frontier_size"] =
        static_cast<double>(profile.grid.frontier.size());
    ctx.counters["top_bottleneck_ticks"] =
        profile.grid.channels.empty()
            ? 0.0
            : static_cast<double>(profile.grid.channels.front().ticks);
  });
}

}  // namespace

void register_default_suites() {
  static std::once_flag once;
  std::call_once(once, [] {
    register_frontend();
    register_gt();
    register_lt();
    register_logic();
    register_sim();
    register_flow();
    register_dse();
    register_serve_suites();
  });
}

}  // namespace perf
}  // namespace adc
