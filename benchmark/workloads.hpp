#pragma once
// The four workloads and the pieces they share.

#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "runtime/flow.hpp"

namespace bench {

// The paper's full recipe.
inline const char* const kFullRecipe = "gt1; gt2; gt3; gt4; gt2; gt5; lt";
// What generated programs are compiled with: the full recipe with GT5's
// symmetrization off: with it, 11 of 1000 generated two-ALU loops
// deadlocked or stopped with an internal error, without it none did.
inline const char* const kGeneratedRecipe = "gt1; gt2; gt3; gt4; gt2; gt5(no_sym); lt";

// One design point a workload sends, with what its output must show.
struct Job {
  adc::FlowRequest req;
  Registers want;
  bool pinned_corner = false;
  std::string reproducer;  // seed and DSL text, or program and recipe
  std::string payload;     // the same point as a serve `submit` request
};

// The six builtins at `script`, checked against the expected-register file.
Job builtin_job(const std::string& name, const std::string& script);
// A generated program compiled from its DSL text at `script`.
Job generated_job(const GenProgram& p, std::uint64_t seed,
                  const std::string& script = kGeneratedRecipe);

// The four GT-grid recipes whose event simulation is known to deadlock
// (GT5 without GT2 or GT3: the E8 corners).
bool is_pinned_corner(const std::string& script);

// Checks one finished point and counts it.
void check_point(const adc::FlowPoint& p, const Job& job, RunResult& r);

RunResult run_library_cold(const Options& o);
RunResult run_dse_grid(const Options& o);
RunResult run_random_corpus(const Options& o);
RunResult run_serve_mix(const Options& o);

// --- shared by the workloads ---------------------------------------------------
// An executor with every cache off (adc_synth's cold compile).
adc::FlowExecutor::Options cold_options();

// Each workload sets up at least kSetups times and for at least
// kSetupWindowMs per run, and reports the median.  On a shared host a core
// ran a third slower for stretches of half a second: with five set-ups
// one such stretch moved serve_mix's median by 44%, and it covered all
// nine of random_corpus's 17-ms set-ups.
inline constexpr int kSetups = 9;
inline constexpr double kSetupWindowMs = 2000;

// Median set-up time in seconds, scaled to the reference host speed by a
// yardstick after each set-up, and as measured.
struct SetupTime {
  double s = 0, measured_s = 0;
};

// Runs `setup` as above; `teardown`, untimed, undoes the previous set-up
// first.
SetupTime timed_setup(const std::function<void()>& setup);
SetupTime timed_setup(const std::function<void()>& teardown, const std::function<void()>& setup);

// How long the timed loop runs: the whole run, or half of a traced run
// (whose layer replay gets 40%).
double loop_budget_ms(const Options& o);
double replay_budget_ms(const Options& o);

// Generator keys of fixed program structures: random_corpus's corpus and
// serve_mix's cold programs.  A run's seed draws their initial registers
// and the order they are compiled in, never their statements: which
// programs a seed drew would otherwise move the medians by more than the
// run-to-run noise.  The known-defect probe's programs (reference.hpp) are
// fixed in their registers too, so that its count is exact.
inline constexpr std::uint64_t kCorpusKey = 1, kColdKey = 2, kDefectKey = 3;

// Programs 0..n-1 under `key`, with registers drawn from `seed`.
std::vector<Job> fixed_corpus(std::uint64_t key, std::size_t n, const GenShape& shape,
                              std::uint64_t seed);

// Per-operation wall and CPU times in ms, one group per program
// (library_cold, random_corpus) or warm point (serve_mix), a single group on
// dse_grid: scaled to the reference host speed, and as measured.
struct Samples {
  std::vector<std::vector<double>> ms, cpu_ms;
  std::vector<std::vector<double>> measured_ms, measured_cpu_ms;
  std::vector<double> yardstick_ms;

  explicit Samples(std::size_t groups = 1)
      : ms(groups), cpu_ms(groups), measured_ms(groups), measured_cpu_ms(groups) {}
  // Runs the yardstick and adds the operation just timed.
  void add(std::size_t group, double wall, double cpu);
  // Adds an operation timed while the yardstick read `y`.
  void add(std::size_t group, double wall, double cpu, const Yardstick& y);
  // The q-quantile of each non-empty group, averaged geometrically.
  static double grouped(const std::vector<std::vector<double>>& groups, double q);
};

// The end-to-end metrics (gated in an untraced run, printed in a traced
// one): setup, latency and CPU percentiles per group, peak memory, and in
// an untraced run the known-defect probe's pass rate; beside them, printed,
// the times as measured and the yardstick's median.
void end_to_end_metrics(RunResult& r, const Options& o, const SetupTime& setup,
                        const Samples& s, double wall_ms);

// Executor-side counters a traced run reports for the runtime layer.
struct RuntimeCounters {
  double cache_hits = 0, cache_lookups = 0;
  double memo_hits = 0, memo_lookups = 0;
  void add(adc::FlowExecutor& ex);
  RuntimeCounters minus(const RuntimeCounters& before) const;
};

// The traced run's per-layer metrics: replays `jobs` (cycling; at least
// `min_points` of them) through each layer's public calls for `budget_ms`,
// and checks every replayed point against FlowExecutor::run.
// `assert_coverage` marks the run invalid when the layer self-times cover
// less than 95% of the executor's wall time.
void layer_metrics(const std::vector<const Job*>& jobs, std::size_t min_points,
                   double budget_ms, bool assert_coverage, const Options& o,
                   RunResult& r);

// The runtime layer's metrics from the timed loop of a traced run.
void runtime_metrics(RunResult& r, const RuntimeCounters& c, double cpu_ms,
                     double wall_ms);

// Protocol overhead of serving `jobs` warm through an in-process daemon:
// client round-trip minus the flow's own time, median over repeats.
void serve_probe(const std::vector<const Job*>& jobs, RunResult& r);

}  // namespace bench
