// library_cold, dse_grid and random_corpus, and what every workload shares.
//
// Why these workloads:
//  * library_cold is adc_synth's cold compile over every program shape the
//    repository ships (loops, IF blocks, straight-line code), with every
//    cache off: the controller layers (extract, LT, logic) dominate.
//  * dse_grid is adc_dse: the 32-recipe GT ablation grid on DIFFEQ, where
//    the stage cache's prefix sharing and the cover memo do most of the
//    work, next to 32 event simulations no cache covers.
//  * random_corpus is passes over generated programs, each pass on one
//    fresh long-lived executor: the inputs share no work, so the caches are
//    bypassed and the global transforms carry each point.
//  * serve_mix (serve_mix.cpp) is the daemon under open-loop traffic.

#include <functional>

#include "reference.hpp"
#include "report/json.hpp"
#include "workloads.hpp"

namespace bench {

adc::FlowExecutor::Options cold_options() {
  adc::FlowExecutor::Options o;
  o.cache_capacity = 0;  // no stage cache, no cover memo
  return o;
}

SetupTime timed_setup(const std::function<void()>& setup) { return timed_setup([] {}, setup); }

SetupTime timed_setup(const std::function<void()>& teardown, const std::function<void()>& setup) {
  std::vector<double> scaled, measured;
  const double start = now_ms();
  for (int i = 0; i < kSetups || now_ms() - start < kSetupWindowMs; ++i) {
    if (i > 0) teardown();
    double t0 = now_ms();
    setup();
    const double s = (now_ms() - t0) / 1e3;
    measured.push_back(s);
    scaled.push_back(s * kYardstickRefMs / run_yardstick().wall_ms);
  }
  return {percentile(scaled, 0.5), percentile(measured, 0.5)};
}

double loop_budget_ms(const Options& o) { return o.seconds * 1e3 * (o.trace ? 0.5 : 1.0); }
double replay_budget_ms(const Options& o) { return o.seconds * 1e3 * 0.4; }

bool is_pinned_corner(const std::string& script) {
  return script.find("gt5") != std::string::npos &&
         script.find("gt2") == std::string::npos &&
         script.find("gt3") == std::string::npos;
}

Job builtin_job(const std::string& name, const std::string& script) {
  Job j;
  j.req = adc::make_builtin_request(*adc::find_builtin(name), script);
  j.want = builtin_expected().at(name);
  j.pinned_corner = is_pinned_corner(script);
  j.reproducer = "builtin " + name + " at '" + script + "'";
  adc::JsonWriter w;
  w.begin_object();
  w.kv("op", "submit");
  w.kv("bench", name);
  w.kv("script", script);
  w.end_object();
  j.payload = w.str();
  return j;
}

Job generated_job(const GenProgram& p, std::uint64_t seed, const std::string& script) {
  Job j;
  j.req.benchmark = p.name;
  j.req.source = p.source();
  j.req.script = script;
  j.req.init = p.init;
  // The event-simulation options stay the defaults (random delays, sim seed
  // 1): they are what the daemon gives a `submit` of source text and what
  // adc_synth --simulate uses, so the point compiled here, the point served
  // and the reproducer are one and the same.
  j.want = interpret(p);
  j.reproducer = "seed " + std::to_string(seed) + ", '" + script + "', init";
  for (const auto& [reg, value] : p.init)
    j.reproducer += " " + reg + "=" + std::to_string(value);
  j.reproducer += ":\n" + j.req.source;
  adc::JsonWriter w;
  w.begin_object();
  w.kv("op", "submit");
  w.kv("name", p.name);
  w.kv("source", j.req.source);
  w.kv("script", j.req.script);
  w.kv("seed", j.req.sim.seed);
  w.key("init");
  w.begin_object();
  for (const auto& [reg, value] : p.init) w.kv(reg, value);
  w.end_object();
  w.end_object();
  j.payload = w.str();
  return j;
}

void check_point(const adc::FlowPoint& p, const Job& job, RunResult& r) {
  ++r.attempted;
  std::string cls = classify(adc::to_string(p.status), registers_match(p.sim_registers, job.want),
                             job.pinned_corner);
  if (cls.empty()) return;
  std::string detail = job.reproducer;
  if (!p.error.empty()) detail += "\n  error: " + p.error;
  if (cls == "wrong_registers") {
    for (const auto& [reg, value] : job.want) {  // the first register that differs
      auto it = p.sim_registers.find(reg);
      if (it != p.sim_registers.end() && it->second == value) continue;
      detail += "\n  " + reg + " = " +
                (it == p.sim_registers.end() ? "missing" : std::to_string(it->second)) +
                ", reference " + std::to_string(value);
      break;
    }
  }
  r.failures.add(cls, detail);
}

void Samples::add(std::size_t group, double wall, double cpu) {
  add(group, wall, cpu, run_yardstick());
}

void Samples::add(std::size_t group, double wall, double cpu, const Yardstick& y) {
  ms[group].push_back(wall * kYardstickRefMs / y.wall_ms);
  cpu_ms[group].push_back(cpu * kYardstickRefMs / y.cpu_ms);
  measured_ms[group].push_back(wall);
  measured_cpu_ms[group].push_back(cpu);
  yardstick_ms.push_back(y.wall_ms);
}

double Samples::grouped(const std::vector<std::vector<double>>& groups, double q) {
  std::vector<double> per_group;
  for (const auto& g : groups)
    if (!g.empty()) per_group.push_back(percentile(g, q));
  return geomean(per_group);
}

void end_to_end_metrics(RunResult& r, const Options& o, const SetupTime& setup,
                        const Samples& s, double wall_ms) {
  std::size_t n = 0;
  for (const auto& g : s.ms) n += g.size();
  // A traced run's timings carry the recorder's cost: print, never gate.
  auto put = [&](const std::string& name, double value, const std::string& unit) {
    (o.trace ? r.extras : r.metrics).push_back({name, value, unit});
  };
  put("setup_s", setup.s, "s");
  put("latency_ms_p50", Samples::grouped(s.ms, 0.5), "ms");
  put("cpu_ms_per_op", Samples::grouped(s.cpu_ms, 0.5), "ms");
  put("peak_rss_mb", peak_rss_mb(), "MB");
  r.extra("setup_s.measured", setup.measured_s, "s");
  r.extra("latency_ms_p50.measured", Samples::grouped(s.measured_ms, 0.5), "ms");
  r.extra("cpu_ms_per_op.measured", Samples::grouped(s.measured_cpu_ms, 0.5), "ms");
  r.extra("yardstick_ms_p50", percentile(s.yardstick_ms, 0.5), "ms");
  // After the timed loop and the memory high-water mark: the probe is exact,
  // so any program it loses is a regression however noisy the host.
  if (!o.trace) {
    RunResult probe = run_defect_probe();
    r.known_defects = probe.failures;
    put("defect_pass_rate",
        1.0 - static_cast<double>(probe.failures.total()) / static_cast<double>(probe.attempted),
        "ratio");
  }
  // The tail swung by a quarter between runs of identical work on a shared
  // host: printed with its sample count, not gated.
  r.extra("latency_ms_p90", Samples::grouped(s.ms, 0.9), "ms");
  r.extra("ops", static_cast<double>(n), "count");
  r.extra("ops_per_s", static_cast<double>(n) / (wall_ms / 1e3), "1/s");
}

void RuntimeCounters::add(adc::FlowExecutor& ex) {
  adc::CacheStats cs = ex.cache().stats();
  cache_hits += static_cast<double>(cs.hits + cs.joins);
  cache_lookups += static_cast<double>(cs.hits + cs.joins + cs.misses);
  adc::LogicMemo::Stats ms = ex.logic_memo().stats();
  memo_hits += static_cast<double>(ms.hits + ms.disk_hits);
  memo_lookups += static_cast<double>(ms.hits + ms.disk_hits + ms.misses);
}

RuntimeCounters RuntimeCounters::minus(const RuntimeCounters& b) const {
  return {cache_hits - b.cache_hits, cache_lookups - b.cache_lookups,
          memo_hits - b.memo_hits, memo_lookups - b.memo_lookups};
}

void runtime_metrics(RunResult& r, const RuntimeCounters& c, double cpu_ms,
                     double wall_ms) {
  r.metric("runtime.stage_cache.hit_rate",
           c.cache_lookups > 0 ? c.cache_hits / c.cache_lookups : 0.0, "ratio");
  r.metric("runtime.logic_memo.hit_rate",
           c.memo_lookups > 0 ? c.memo_hits / c.memo_lookups : 0.0, "ratio");
  r.metric("runtime.pool.parallelism", cpu_ms / wall_ms, "ratio");
}

// --- library_cold ------------------------------------------------------------

RunResult run_library_cold(const Options& o) {
  RunResult r;
  std::vector<Job> jobs;
  SetupTime setup = timed_setup([&] {
    std::vector<Job> fresh;
    for (const auto& b : adc::builtin_benchmarks())
      fresh.push_back(builtin_job(b.name, kFullRecipe));
    // One untimed cold compile of each program: code and allocator warm,
    // no cache survives it.
    for (const Job& j : fresh) adc::FlowExecutor(nullptr, cold_options()).run(j.req);
    jobs = std::move(fresh);
  });

  std::uint64_t order_state = o.seed;
  Samples per_program(jobs.size());
  RuntimeCounters counters;
  double cpu0 = process_cpu_ms(), t0 = now_ms();
  while (now_ms() - t0 < loop_budget_ms(o)) {
    for (std::size_t i : shuffled(jobs.size(), order_state)) {
      double s = now_ms(), c = process_cpu_ms();
      adc::FlowExecutor ex(nullptr, cold_options());
      adc::FlowPoint p = ex.run(jobs[i].req);
      per_program.add(i, now_ms() - s, process_cpu_ms() - c);
      check_point(p, jobs[i], r);
      if (o.trace) counters.add(ex);
    }
  }
  double wall = now_ms() - t0, cpu = process_cpu_ms() - cpu0;
  end_to_end_metrics(r, o, setup, per_program, wall);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    r.extra("compile_ms_p50." + jobs[i].req.benchmark, percentile(per_program.ms[i], 0.5),
            "ms");
  if (o.trace) {
    std::vector<const Job*> replay;
    for (const Job& j : jobs) replay.push_back(&j);
    runtime_metrics(r, counters, cpu, wall);
    layer_metrics(replay, replay.size(), replay_budget_ms(o), true, o, r);
    serve_probe(replay, r);
  }
  return r;
}

// --- dse_grid -----------------------------------------------------------------

RunResult run_dse_grid(const Options& o) {
  RunResult r;
  // Two workers, as adc_dse sweeps run; a serial sweep was no steadier
  // between runs on a shared host.
  std::unique_ptr<adc::ThreadPool> pool;
  std::vector<Job> jobs;
  SetupTime setup = timed_setup([&] { pool.reset(); }, [&] {
    pool = std::make_unique<adc::ThreadPool>(2);
    std::vector<Job> fresh;
    for (const std::string& script : adc::gt_ablation_grid(true))
      fresh.push_back(builtin_job("diffeq", script));
    // One untimed sweep, serial: on two workers its time swung by a quarter
    // between runs.
    std::vector<adc::FlowRequest> reqs;
    for (const Job& j : fresh) reqs.push_back(j.req);
    adc::FlowExecutor(nullptr).run_all(reqs);
    jobs = std::move(fresh);
  });

  std::uint64_t order_state = o.seed;
  Samples sweeps;
  RuntimeCounters counters;
  double cpu0 = process_cpu_ms(), t0 = now_ms();
  while (now_ms() - t0 < loop_budget_ms(o)) {
    std::vector<std::size_t> order = shuffled(jobs.size(), order_state);
    std::vector<adc::FlowRequest> reqs;
    for (std::size_t i : order) reqs.push_back(jobs[i].req);
    double s = now_ms(), c = process_cpu_ms();
    adc::FlowExecutor ex(pool.get());
    std::vector<adc::FlowPoint> points = ex.run_all(reqs);
    sweeps.add(0, now_ms() - s, process_cpu_ms() - c);
    for (std::size_t k = 0; k < order.size(); ++k) check_point(points[k], jobs[order[k]], r);
    if (o.trace) counters.add(ex);
  }
  double wall = now_ms() - t0, cpu = process_cpu_ms() - cpu0;
  end_to_end_metrics(r, o, setup, sweeps, wall);
  r.extra("points_per_s",
          static_cast<double>(sweeps.ms[0].size() * jobs.size()) / (wall / 1e3), "1/s");
  if (o.trace) {
    std::vector<const Job*> replay;
    for (const Job& j : jobs) replay.push_back(&j);
    runtime_metrics(r, counters, cpu, wall);
    layer_metrics(replay, replay.size(), replay_budget_ms(o), false, o, r);
    serve_probe(replay, r);
  }
  return r;
}

// --- random_corpus ------------------------------------------------------------

std::vector<Job> fixed_corpus(std::uint64_t key, std::size_t n, const GenShape& shape,
                              std::uint64_t seed) {
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    GenProgram p = generate_program(key, i, shape);
    draw_registers(p, seed);
    jobs.push_back(generated_job(p, seed));
  }
  return jobs;
}

RunResult run_random_corpus(const Options& o) {
  RunResult r;
  // 150 programs, about 7 s a pass on a 4-vCPU Xeon: enough to overflow the stage
  // cache's 1024 entries and the memo's 4096 within a pass.
  constexpr std::size_t kCorpus = 150;
  std::vector<Job> jobs;
  SetupTime setup = timed_setup([&] {
    std::vector<Job> fresh = fixed_corpus(kCorpusKey, kCorpus, GenShape{}, o.seed);
    // Warm-up outside the corpus, on a throwaway executor.
    adc::FlowExecutor warm(nullptr);
    for (const char* name : {"diffeq", "fir4"}) warm.run(builtin_job(name, kFullRecipe).req);
    jobs = std::move(fresh);
  });

  // Passes over the corpus in a seeded order, each on a fresh long-lived
  // executor, so that no compile finds its program's work cached.
  std::uint64_t order_state = o.seed;
  Samples per_program(jobs.size());
  RuntimeCounters counters;
  std::vector<std::size_t> first_pass;
  double cpu0 = process_cpu_ms(), t0 = now_ms();
  while (now_ms() - t0 < loop_budget_ms(o)) {
    adc::FlowExecutor exec(nullptr);
    std::vector<std::size_t> order = shuffled(jobs.size(), order_state);
    if (first_pass.empty()) first_pass = order;
    for (std::size_t i : order) {
      if (now_ms() - t0 >= loop_budget_ms(o)) break;
      double s = now_ms(), c = process_cpu_ms();
      adc::FlowPoint p = exec.run(jobs[i].req);
      per_program.add(i, now_ms() - s, process_cpu_ms() - c);
      check_point(p, jobs[i], r);
    }
    counters.add(exec);
  }
  double wall = now_ms() - t0, cpu = process_cpu_ms() - cpu0;
  end_to_end_metrics(r, o, setup, per_program, wall);
  if (o.trace) {
    std::vector<const Job*> replay;
    for (std::size_t i : first_pass) replay.push_back(&jobs[i]);
    runtime_metrics(r, counters, cpu, wall);
    layer_metrics(replay, 1, replay_budget_ms(o), true, o, r);
    serve_probe(replay, r);
  }
  return r;
}

}  // namespace bench
