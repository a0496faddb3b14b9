#pragma once
// Benchmark measurement harness: the registry `adc_bench` runs, plus the
// clocks behind it.
//
// Policy: every benchmark body is one iteration of the thing being
// measured.  The harness runs `warmup` untimed iterations (cache and
// allocator settling), then `repeats` timed ones — wall time from
// std::chrono::steady_clock, CPU time from getrusage(RUSAGE_SELF) (user +
// system, summed over every thread, so a pooled DSE run shows its true
// parallel cost) — and reduces the samples with record.hpp's
// trim-the-worst outlier policy.  Peak RSS comes from ru_maxrss after the
// repeats (monotone over the process; still a usable per-report ceiling).
//
// A benchmark communicates results back through its BenchContext: scalar
// counters (simulated latency, cache hit rate) and per-stage timings
// (FlowPoint::timings), both attached to the emitted BenchRecord.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "perf/record.hpp"

namespace adc {
namespace perf {

// --- clocks ----------------------------------------------------------------

// Monotonic wall clock, microseconds since an arbitrary epoch.
std::uint64_t wall_now_micros();
// Process CPU time (user + system, all threads), microseconds.
std::uint64_t process_cpu_micros();
// Peak resident set size of the process, kilobytes (0 where unsupported).
std::int64_t peak_rss_kb();

// Environment fingerprint for BenchReport::env: git sha (ADC_GIT_SHA env
// var, else `git rev-parse` in the working directory, else "unknown"),
// compiler banner, build flags/type (baked in at compile time), OS and
// core count, current UTC timestamp.
BenchEnv capture_env();

// --- registry --------------------------------------------------------------

struct BenchContext {
  bool quick = false;  // shrink grids / iteration counts when set
  // Written by the benchmark body; the last timed repetition wins.
  std::map<std::string, double> counters;
  std::vector<BenchStage> stages;
};

struct Benchmark {
  std::string suite;
  std::string name;  // convention: "<suite>.<what>"
  std::function<void(BenchContext&)> run;
};

class BenchRegistry {
 public:
  static BenchRegistry& instance();

  void add(Benchmark b);
  const std::vector<Benchmark>& all() const { return benches_; }
  std::vector<std::string> suites() const;

 private:
  std::vector<Benchmark> benches_;
};

// --- measurement -----------------------------------------------------------

struct MeasureOptions {
  unsigned warmup = 2;
  unsigned repeats = 9;
  bool trim_outliers = true;
  bool quick = false;  // forwarded into BenchContext
  // Wall budget for one measure_group call (warmup + all repeats
  // together); 0 = unlimited.  A group that overruns is abandoned on a
  // detached thread and recorded with status="timeout" and zeroed
  // statistics, so a hung suite cannot wedge the harness — the remaining
  // suites still run.
  std::uint64_t deadline_ms = 600000;
  // Invoked by run_registered after every completed benchmark with the
  // report accumulated so far (env/policy already filled).  adc_bench
  // points its artifact-flush callback at the latest snapshot, so a run
  // cut short by SIGINT/SIGTERM still leaves a valid partial BENCH file.
  std::function<void(const BenchReport&)> on_record;

  static MeasureOptions quick_mode() {
    MeasureOptions o;
    o.warmup = 1;
    o.repeats = 3;
    o.quick = true;
    return o;
  }
};

// Warmup + timed repeats of a group of benchmarks: the warmups alternate
// (a, b, a, b, ...), then each round times one iteration of every
// benchmark in order.  A group of two is how ratio gates are measured:
// slow in-process drift — allocator growth, CPU frequency, cache state —
// then lands on both sides of the ratio equally rather than on whichever
// benchmark happens to run later, which is worth several percent of
// systematic skew on a busy 1-core container.  opts.deadline_ms bounds the
// whole group; a timeout or exception marks every record of it.
std::vector<BenchRecord> measure_group(const std::vector<Benchmark>& group,
                                       const MeasureOptions& opts);

// measure_group of one benchmark.
BenchRecord measure(const Benchmark& b, const MeasureOptions& opts);

// Measures every registered benchmark whose suite is in `suites` (empty =
// all) and whose name contains `filter` (empty = all), in registration
// order, into a complete report (env + policy filled in).  Benchmarks named
// in `exclude` are skipped — adc_bench measures its --ratio pairs as
// groups of two instead and must not time them twice.
BenchReport run_registered(const std::vector<std::string>& suites,
                           const std::string& filter, const MeasureOptions& opts,
                           const std::string& tool = "adc_bench",
                           const std::vector<std::string>& exclude = {});

// Human rendering of a report (one row per benchmark).
std::string render_report(const BenchReport& rep);

}  // namespace perf
}  // namespace adc
