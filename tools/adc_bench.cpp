// adc_bench — the toolchain's performance regression harness.
//
//   adc_bench --suite all --out BENCH_local.json
//   adc_bench --suite gt,sim --filter diffeq --quick
//   adc_bench --baseline BENCH_main.json --check --threshold 10
//   adc_bench --diff BENCH_old.json BENCH_new.json --check
//
// Runs the registered benchmark suites (frontend parsing, the GT pipeline,
// extraction + local transforms, two-level logic minimization, both
// simulators, the flow executor hot/cold and the DSE ablation grid) under
// the warmup/repeat/outlier policy of perf/measure.hpp and emits one BENCH
// JSON document (perf/record.hpp, kind "adc-bench" v1): per-benchmark
// p50/p90/p99 wall and CPU microseconds, peak RSS, free-form counters
// (cache hit rates, simulated latencies) and per-stage flow timings.
//
// Options:
//   --suite all|S1,S2,...   suites to run (default: all registered)
//   --filter STR            only benchmarks whose name contains STR
//   --list                  list registered benchmarks and exit
//   --quick                 1 warmup + 3 repeats and smaller grids (CI)
//   --repeats N / --warmup N  override the measurement policy
//   --out FILE              write the BENCH JSON ('-' = stdout)
//   --baseline FILE         compare this run against a saved report
//   --diff OLD NEW          compare two saved reports; nothing is re-run
//   --threshold PCT         p50 wall growth counted as a regression (10)
//   --min-time-us US        ignore benchmarks faster than this floor (50)
//   --ratio A:B:PCT         cross-benchmark gate within one run (or the NEW
//                           report of --diff): p50 wall of A must stay
//                           within PCT%% of B's, i.e. p50(A) <= p50(B) *
//                           (1 + PCT/100).  Repeatable.  In run mode the
//                           pair is measured with interleaved iterations
//                           (A,B,A,B,...) so in-process drift cancels out
//                           of the ratio instead of skewing whichever side
//                           runs later.  This is how the profiled DSE sweep
//                           (dse.grid_profiled) is held to <= 5%% over
//                           dse.grid_cold_serial without depending on a
//                           saved baseline's absolute times.
//   --check                 exit 1 when the comparison found a regression
//                           or a --ratio gate failed
//   --suite-deadline-ms N   wall budget per benchmark (default 600000,
//                           0 = unlimited); an overrunning benchmark is
//                           abandoned and recorded with status="timeout"
//                           while the remaining suites still run
//   --help
//
// A vanished benchmark is always a regression; a new one never is.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include "perf/measure.hpp"
#include "perf/record.hpp"
#include "perf/suites.hpp"
#include "trace/flush.hpp"

#include "cli_args.hpp"

using namespace adc;

namespace {

constexpr char kTool[] = "adc_bench";

int usage(int code) {
  std::fprintf(code ? stderr : stdout,
               "usage: adc_bench [--suite all|S1,S2,...] [--filter STR] [--list] "
               "[--quick] [--repeats N] [--warmup N] [--out FILE] "
               "[--baseline FILE] [--diff OLD NEW] [--threshold PCT] "
               "[--min-time-us US] [--ratio A:B:PCT] [--check] "
               "[--suite-deadline-ms N]\n");
  return code;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// One --ratio A:B:PCT gate: p50 wall of A must not exceed B's by more than
// PCT percent.  Both benchmarks come from the SAME run, so machine speed
// cancels out — unlike a --baseline diff, the gate holds on any hardware.
struct RatioSpec {
  std::string a, b;
  double pct = 0.0;
};

RatioSpec parse_ratio(const std::string& spec) {
  auto c1 = spec.find(':');
  auto c2 = c1 == std::string::npos ? std::string::npos : spec.find(':', c1 + 1);
  if (c2 == std::string::npos)
    cli::usage_error(kTool, "--ratio expects A:B:PCT, got '" + spec + "'");
  RatioSpec r;
  r.a = spec.substr(0, c1);
  r.b = spec.substr(c1 + 1, c2 - c1 - 1);
  r.pct = cli::number<double>(kTool, "--ratio " + spec + ": PCT", spec.substr(c2 + 1));
  return r;
}

// Evaluates a parsed gate against the two records (either side may be null
// when the benchmark is missing).  Returns false (and prints why) on
// failure.
bool eval_ratio(const perf::BenchRecord* a, const perf::BenchRecord* b,
                const RatioSpec& spec, FILE* log) {
  if (!a || !b) {
    std::fprintf(log, "ratio %s vs %s: FAIL (%s not measured)\n",
                 spec.a.c_str(), spec.b.c_str(),
                 (!a ? spec.a : spec.b).c_str());
    return false;
  }
  if (a->status != "ok" || b->status != "ok") {
    std::fprintf(log, "ratio %s vs %s: FAIL (%s status=%s)\n", spec.a.c_str(),
                 spec.b.c_str(),
                 a->status != "ok" ? spec.a.c_str() : spec.b.c_str(),
                 a->status != "ok" ? a->status.c_str() : b->status.c_str());
    return false;
  }
  const double limit = b->wall_us.p50 * (1.0 + spec.pct / 100.0);
  const bool ok = b->wall_us.p50 > 0.0 && a->wall_us.p50 <= limit;
  const double actual_pct =
      b->wall_us.p50 > 0.0
          ? (a->wall_us.p50 - b->wall_us.p50) / b->wall_us.p50 * 100.0
          : 0.0;
  std::fprintf(log, "ratio %s vs %s: p50 %.0f us vs %.0f us (%+.1f%%, gate +%.1f%%) %s\n",
               spec.a.c_str(), spec.b.c_str(), a->wall_us.p50, b->wall_us.p50,
               actual_pct, spec.pct, ok ? "ok" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> suites;
  std::string filter;
  std::string out_path;
  std::string baseline_path;
  std::string diff_old, diff_new;
  perf::MeasureOptions mopts;
  perf::CompareOptions copts;
  std::vector<RatioSpec> ratios;
  bool list = false, check = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(2);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(0);
    else if (arg == "--suite") {
      std::string v = next();
      if (v != "all") suites = cli::split(v, ',');
    }
    else if (arg == "--filter") filter = next();
    else if (arg == "--list") list = true;
    else if (arg == "--quick") {
      bool trim = mopts.trim_outliers;
      mopts = perf::MeasureOptions::quick_mode();
      mopts.trim_outliers = trim;
    }
    else if (arg == "--repeats") cli::set_number(mopts.repeats, kTool, arg, next());
    else if (arg == "--warmup") cli::set_number(mopts.warmup, kTool, arg, next());
    else if (arg == "--out") out_path = next();
    else if (arg == "--baseline") baseline_path = next();
    else if (arg == "--diff") {
      diff_old = next();
      diff_new = next();
    }
    else if (arg == "--suite-deadline-ms")
      cli::set_number(mopts.deadline_ms, kTool, arg, next());
    else if (arg == "--threshold") cli::set_number(copts.threshold_pct, kTool, arg, next());
    else if (arg == "--min-time-us") cli::set_number(copts.min_us, kTool, arg, next());
    else if (arg == "--ratio") ratios.push_back(parse_ratio(next()));
    else if (arg == "--check") check = true;
    else return usage(2);
  }

  try {
    // File-pair diff: no benchmarks run, just the comparison.
    if (!diff_old.empty()) {
      perf::BenchReport oldr = perf::parse_bench_report(slurp(diff_old));
      perf::BenchReport newr = perf::parse_bench_report(slurp(diff_new));
      auto deltas = perf::compare_reports(oldr, newr, copts);
      std::printf("%s", perf::render_deltas(deltas, copts).c_str());
      if (oldr.env.git_sha != newr.env.git_sha)
        std::printf("note: baselines span commits %s -> %s\n",
                    oldr.env.git_sha.c_str(), newr.env.git_sha.c_str());
      bool ratios_ok = true;
      for (const RatioSpec& spec : ratios) {
        ratios_ok =
            eval_ratio(newr.find(spec.a), newr.find(spec.b), spec, stdout) &&
            ratios_ok;
      }
      return perf::has_regression(deltas) || !ratios_ok ? 1 : 0;
    }

    perf::register_default_suites();

    if (list) {
      for (const auto& b : perf::BenchRegistry::instance().all())
        std::printf("%-10s %s\n", b.suite.c_str(), b.name.c_str());
      return 0;
    }

    // With --out - the JSON owns stdout.
    FILE* log = out_path == "-" ? stderr : stdout;

    // A run killed mid-suite (SIGINT, CI SIGTERM) still flushes the
    // benchmarks completed so far as a valid BENCH document.
    int flush_token = -1;
    auto partial = std::make_shared<perf::BenchReport>();
    if (!out_path.empty() && out_path != "-") {
      mopts.on_record = [partial](const perf::BenchReport& so_far) {
        *partial = so_far;
      };
      flush_token = register_artifact_flush(out_path, [partial, out_path] {
        if (partial->benchmarks.empty()) return;
        std::ofstream out(out_path);
        out << perf::to_json(*partial) << "\n";
      });
    }

    // Ratio-gated benchmarks are measured as interleaved pairs (drift lands
    // on both sides equally) and skipped in the sequential pass so nothing
    // is timed twice and the report carries no duplicate names.
    std::vector<std::string> paired_names;
    for (const RatioSpec& spec : ratios) {
      paired_names.push_back(spec.a);
      paired_names.push_back(spec.b);
    }

    perf::BenchReport rep =
        perf::run_registered(suites, filter, mopts, "adc_bench", paired_names);

    bool ratios_ok = true;
    for (const RatioSpec& spec : ratios) {
      auto find_registered = [](const std::string& name) -> const perf::Benchmark* {
        for (const auto& b : perf::BenchRegistry::instance().all())
          if (b.name == name) return &b;
        return nullptr;
      };
      const perf::Benchmark* a = find_registered(spec.a);
      const perf::Benchmark* b = find_registered(spec.b);
      if (!a || !b) {
        std::fprintf(log, "ratio %s vs %s: FAIL (%s not registered)\n",
                     spec.a.c_str(), spec.b.c_str(),
                     (!a ? spec.a : spec.b).c_str());
        ratios_ok = false;
        continue;
      }
      std::vector<perf::BenchRecord> pair = perf::measure_group({*a, *b}, mopts);
      ratios_ok = eval_ratio(&pair[0], &pair[1], spec, log) && ratios_ok;
      // The interleaved samples are measured under the same policy — they
      // belong in the emitted report like any sequential record.
      for (perf::BenchRecord& rec : pair)
        if (!rep.find(rec.name)) rep.benchmarks.push_back(std::move(rec));
      if (mopts.on_record) mopts.on_record(rep);
    }

    if (rep.benchmarks.empty()) {
      std::fprintf(stderr, "adc_bench: no benchmarks matched\n");
      return 2;
    }
    std::fprintf(log, "%s", perf::render_report(rep).c_str());

    if (flush_token >= 0) unregister_artifact_flush(flush_token);
    if (!out_path.empty()) {
      std::string text = perf::to_json(rep);
      if (out_path == "-") {
        std::printf("%s\n", text.c_str());
      } else {
        std::ofstream out(out_path);
        out << text << "\n";
        if (!out) throw std::runtime_error("cannot write " + out_path);
        std::fprintf(log, "adc_bench: wrote %s (%zu benchmarks)\n",
                     out_path.c_str(), rep.benchmarks.size());
      }
    }

    if (!baseline_path.empty()) {
      perf::BenchReport base = perf::parse_bench_report(slurp(baseline_path));
      auto deltas = perf::compare_reports(base, rep, copts);
      std::fprintf(log, "\nvs %s:\n%s", baseline_path.c_str(),
                   perf::render_deltas(deltas, copts).c_str());
      if (base.env.git_sha != rep.env.git_sha)
        std::fprintf(log, "note: baseline is commit %s, this run is %s\n",
                     base.env.git_sha.c_str(), rep.env.git_sha.c_str());
      if (check && perf::has_regression(deltas)) return 1;
    }
    return check && !ratios_ok ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adc_bench: %s\n", e.what());
    return 2;
  }
}
