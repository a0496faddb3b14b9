// adc_dse — batch design-space exploration driver.
//
// Fans a grid of transformation recipes × benchmarks across the parallel
// synthesis runtime (work-stealing pool + content-addressed stage cache)
// and reports the figure-12/13 quality surface of every point: channels,
// states, transitions, products, literals and simulated latency.
//
//   adc_dse --bench diffeq --grid gt --jobs 8 --json report.json
//   adc_dse --bench diffeq,ewf --recipes "gt1; gt2; lt | gt2; gt5; lt"
//   adc_dse --init x=0,k=3,n=5,s=0,C=1 my_program.adc
//
// Options:
//   --bench NAME[,NAME...]  builtin benchmarks (diffeq, gcd, fir4,
//                           mac_reduce, ewf_lite, ewf); positional
//                           arguments name .adc program files instead
//   --recipes "S1 | S2"     explicit recipe list ('|'-separated scripts)
//   --grid gt|gt-nolt       the 32-recipe GT ablation grid (with/without
//                           the local transforms appended)
//   --jobs N                worker threads (default: hardware, 0 = serial)
//   --json FILE             machine-readable report ('-' = stdout)
//   --init REG=VAL,...      simulation register file for .adc programs
//   --seed N                event-sim seed (with --randomize)
//   --randomize             randomize simulation delays (default: fixed)
//   --no-sim                skip event-simulation (structure metrics only)
//   --verify-serial         also evaluate the grid serially on one thread
//                           and fail if any metric differs
//   --trace-out FILE        Chrome trace_event JSON of the whole batch:
//                           per-stage spans with cache hit/miss annotations
//                           across every worker (open in Perfetto)
//   --provenance DIR        write each point's reconciled transform
//                           decision log to DIR/<bench>-pN.provenance.json
//   --vcd DIR               re-run deadlocked points with waveform capture
//                           and write DIR/<bench>-pN.vcd; the --json report
//                           points at the file from the deadlock entry
//   --critical-path         attribute each point's simulated latency to
//                           channels/controllers/phases; each --json point
//                           gains a "critical_path" object
//   --profile-out FILE      write the versioned dse_profile.json store
//                           ('-' = stdout): per-point attribution joined
//                           with area-model numbers, recipe + provenance
//                           decisions, plus the grid analyses (bottleneck
//                           ranking, Pareto frontier, suggestions).
//                           Implies --critical-path and provenance capture.
//   --frontier              print the human frontier report: Pareto
//                           members, dominated points with their
//                           dominators, grid-wide bottleneck ranking and
//                           the top-k suggestions (same implications)
//   --explain A:B           differential explain of two grid points; A/B
//                           are point indices or "best"/"worst" (by
//                           simulated cycle time among ok points).  Diffs
//                           the segment trees and attributes latency
//                           deltas to the differing transform decisions
//   --log-level LEVEL       error|warn|info|debug|trace (default: ADC_LOG)
//   --cache-dir DIR         persistent disk-tier point cache: completed
//                           ok/deadlock points are stored as checksummed
//                           files and replayed warm across process restarts
//   --cache-bytes N         disk-tier LRU size cap in bytes (default 256 MiB)
//   --stage-deadline-ms N   per-stage wall budget; an overrunning stage is
//                           cancelled and the point reported status=timeout
//   --point-deadline-ms N   whole-point wall budget (same semantics)
//   --retries N             re-evaluate points that failed with an injected
//                           fault up to N times (default 2)
//   --retry-backoff-ms N    base backoff between retries, doubling (default 50)
//   --fault SPEC            arm the deterministic fault injector (overrides
//                           the ADC_FAULT environment variable); see
//                           docs/ROBUSTNESS.md for the plan grammar
//   --help
//
// Every grid point is quarantined independently: a timed-out, faulted or
// deadlocked point is reported with its status while the surviving
// frontier is still evaluated, written and summarized in an explicit
// coverage ledger.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <memory>

#include "analysis/build.hpp"
#include "analysis/explain.hpp"
#include "analysis/grid.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "runtime/fault.hpp"
#include "runtime/flow.hpp"
#include "trace/flush.hpp"
#include "trace/log.hpp"
#include "trace/vcd.hpp"

using namespace adc;

namespace {

int usage(int code) {
  std::fprintf(code ? stderr : stdout,
               "usage: adc_dse [--bench NAMES] [--recipes \"S1 | S2\"] "
               "[--grid gt|gt-nolt] [--jobs N] [--json FILE] "
               "[--init REG=VAL,...] [--seed N] [--randomize] [--no-sim] "
               "[--verify-serial] [--trace-out FILE] "
               "[--provenance DIR] [--vcd DIR] [--critical-path] "
               "[--profile-out FILE] [--frontier] [--explain A:B] "
               "[--cache-dir DIR] [--cache-bytes N] "
               "[--stage-deadline-ms N] [--point-deadline-ms N] "
               "[--retries N] [--retry-backoff-ms N] [--fault SPEC] "
               "[--log-level LEVEL] [program.adc]...\n"
               "\n"
               "exit codes (worst surviving outcome wins):\n"
               "  0  every point completed ok\n"
               "  1  internal error (bad input file, I/O failure, ...)\n"
               "  2  usage error\n"
               "  3  --verify-serial found a parallel/serial mismatch\n"
               "  6  a point failed (injected fault or synthesis error)\n"
               "  5  a point timed out or was cancelled\n"
               "  4  a point's event simulation deadlocked\n"
               "severity: 3 > 6 > 5 > 4 when several statuses occur.\n");
  return code;
}

std::map<std::string, std::int64_t> parse_init(const std::string& spec) {
  std::map<std::string, std::int64_t> init;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    auto eq = item.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("--init expects REG=VAL pairs, got '" + item + "'");
    init[item.substr(0, eq)] = std::stoll(item.substr(eq + 1));
  }
  return init;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) {
    // trim
    auto b = item.find_first_not_of(" \t\n");
    auto e = item.find_last_not_of(" \t\n");
    if (b == std::string::npos) continue;
    out.push_back(item.substr(b, e - b + 1));
  }
  return out;
}

bool same_point(const FlowPoint& a, const FlowPoint& b) {
  return a.ok == b.ok && a.channels == b.channels && a.states == b.states &&
         a.transitions == b.transitions && a.products == b.products &&
         a.literals == b.literals && a.latency == b.latency;
}

// "<bench>-pN" file stem for per-point artifacts; path-hostile characters
// in the benchmark name (it may be a .adc file path) become '_'.
std::string point_stem(const FlowPoint& p, std::size_t index) {
  std::string stem = p.benchmark;
  for (char& c : stem)
    if (c == '/' || c == '\\' || c == ' ') c = '_';
  return stem + "-p" + std::to_string(index);
}

// Resolves one side of --explain A:B: a point index, or "best"/"worst" by
// simulated cycle time among the ok points.
std::size_t resolve_explain_ref(const std::string& ref,
                                const std::vector<FlowPoint>& points) {
  if (ref == "best" || ref == "worst") {
    bool found = false;
    std::size_t pick = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!points[i].ok || points[i].latency <= 0) continue;
      if (!found || (ref == "best" ? points[i].latency < points[pick].latency
                                   : points[i].latency > points[pick].latency)) {
        pick = i;
        found = true;
      }
    }
    if (!found)
      throw std::runtime_error("--explain " + ref +
                               ": no simulated ok point in the grid");
    return pick;
  }
  std::size_t idx = std::stoul(ref);
  if (idx >= points.size())
    throw std::runtime_error("--explain: point index " + ref +
                             " out of range (grid has " +
                             std::to_string(points.size()) + " points)");
  return idx;
}

std::string frontier_report(const analysis::DseProfile& prof) {
  std::ostringstream os;
  const analysis::GridAnalysis& g = prof.grid;
  os << "pareto frontier (control area x cycle time): " << g.frontier.size()
     << " member(s), " << g.dominated.size() << " dominated\n";
  for (const auto& f : g.frontier) {
    const analysis::PointProfile* p = prof.find(f.index);
    os << "  #" << f.index << "  cycle=" << f.cycle_time
       << "  area=" << f.area_transistors << "  ["
       << (p && !p->script.empty() ? p->script : "(none)") << "]\n";
  }
  if (!g.dominated.empty()) {
    os << "dominated:\n";
    for (const auto& d : g.dominated) {
      const analysis::PointProfile* p = prof.find(d.index);
      os << "  #" << d.index << " (cycle=" << (p ? p->cycle_time : 0)
         << " area=" << (p ? p->area_transistors : 0) << ") dominated by #"
         << d.dominated_by << "\n";
    }
  }
  auto rank = [&](const char* what,
                  const std::vector<analysis::BottleneckRow>& rows) {
    if (rows.empty()) return;
    os << "grid bottlenecks by " << what << " (attributed ticks, all points):\n";
    std::size_t shown = 0;
    for (const auto& r : rows) {
      os << "  " << r.name << "  " << r.ticks << " ticks across " << r.points
         << " point(s)\n";
      if (++shown == 5) break;
    }
  };
  rank("channel", g.channels);
  rank("controller", g.controllers);
  if (!g.suggestions.empty()) {
    os << "suggestions (highest-value transform targets):\n";
    for (const auto& s : g.suggestions) {
      os << "  " << s.rank << ". " << s.kind << " '" << s.name << "' ("
         << s.ticks << " ticks)";
      if (!s.hints.empty()) {
        os << " try:";
        for (const auto& h : s.hints) os << " " << h;
      }
      os << "\n     " << s.rationale << "\n";
    }
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> bench_names;
  std::vector<std::string> files;
  std::vector<std::string> recipes;
  std::string grid;
  std::string json_path;
  std::string init_spec;
  std::string trace_path;
  std::string prov_dir;
  std::string vcd_dir;
  std::string cache_dir;
  std::string fault_spec;
  std::size_t jobs = std::thread::hardware_concurrency();
  std::uint64_t seed = 1;
  std::uint64_t cache_bytes = 256ull << 20;
  std::uint64_t stage_deadline_ms = 0, point_deadline_ms = 0;
  unsigned retries = 2;
  std::uint64_t retry_backoff_ms = 50;
  bool randomize = false, simulate = true, verify_serial = false;
  bool critical_path = false;
  std::string profile_out;
  std::string explain_spec;
  bool frontier = false;

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
    else if (arg == "--bench") for (auto& n : split(next(), ',')) bench_names.push_back(n);
    else if (arg == "--recipes") for (auto& r : split(next(), '|')) recipes.push_back(r);
    else if (arg == "--grid") grid = next();
    else if (arg == "--jobs") jobs = std::stoul(next());
    else if (arg == "--json") json_path = next();
    else if (arg == "--init") init_spec = next();
    else if (arg == "--seed") seed = std::stoull(next());
    else if (arg == "--randomize") randomize = true;
    else if (arg == "--no-sim") simulate = false;
    else if (arg == "--verify-serial") verify_serial = true;
    else if (arg == "--trace-out") trace_path = next();
    else if (arg == "--provenance") prov_dir = next();
    else if (arg == "--vcd") vcd_dir = next();
    else if (arg == "--critical-path") critical_path = true;
    else if (arg == "--profile-out") profile_out = next();
    else if (arg == "--frontier") frontier = true;
    else if (arg == "--explain") explain_spec = next();
    else if (arg == "--cache-dir") cache_dir = next();
    else if (arg == "--cache-bytes") cache_bytes = std::stoull(next());
    else if (arg == "--stage-deadline-ms") stage_deadline_ms = std::stoull(next());
    else if (arg == "--point-deadline-ms") point_deadline_ms = std::stoull(next());
    else if (arg == "--retries") retries = static_cast<unsigned>(std::stoul(next()));
    else if (arg == "--retry-backoff-ms") retry_backoff_ms = std::stoull(next());
    else if (arg == "--fault") fault_spec = next();
    else if (arg == "--log-level") {
      try {
        set_log_level(log_level_from_string(next()));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "adc_dse: %s\n", e.what());
        return 2;
      }
    }
    else if (!arg.empty() && arg[0] == '-') return usage(2);
    else files.push_back(arg);
  }

  try {
    fault().configure_from_env();
    if (!fault_spec.empty()) fault().configure(fault_spec);
    if (!grid.empty()) {
      if (grid != "gt" && grid != "gt-nolt")
        throw std::invalid_argument("unknown grid '" + grid + "'");
      for (auto& s : gt_ablation_grid(grid == "gt")) recipes.push_back(s);
    }
    if (recipes.empty()) {
      // A small default surface: nothing, GT only, the paper's full recipe.
      recipes = {"", "gt1; gt2; gt3; gt4; gt2; gt5", "gt1; gt2; gt3; gt4; gt2; gt5; lt"};
    }
    if (bench_names.empty() && files.empty()) bench_names.push_back("diffeq");

    // The explainability paths all need the attribution segments and the
    // provenance decision log on every point.
    const bool profiling =
        !profile_out.empty() || frontier || !explain_spec.empty();
    if (profiling) critical_path = true;
    if (!explain_spec.empty() &&
        explain_spec.find(':') == std::string::npos)
      throw std::invalid_argument("--explain expects A:B (indices or best/worst)");

    // Assemble the request grid.
    std::vector<FlowRequest> reqs;
    for (const auto& name : bench_names) {
      const BuiltinBenchmark* b = find_builtin(name);
      if (!b) throw std::invalid_argument("unknown builtin benchmark '" + name + "'");
      for (const auto& r : recipes) {
        FlowRequest req = make_builtin_request(*b, r);
        req.sim.seed = seed;
        req.sim.randomize_delays = randomize;
        req.simulate = simulate;
        req.provenance = !prov_dir.empty() || profiling;
        req.critical_path = critical_path;
        req.stage_deadline_ms = stage_deadline_ms;
        req.deadline_ms = point_deadline_ms;
        reqs.push_back(std::move(req));
      }
    }
    auto file_init = init_spec.empty() ? std::map<std::string, std::int64_t>{}
                                       : parse_init(init_spec);
    for (const auto& path : files) {
      std::ifstream in(path);
      if (!in) throw std::runtime_error("cannot open " + path);
      std::stringstream ss;
      ss << in.rdbuf();
      for (const auto& r : recipes) {
        FlowRequest req;
        req.benchmark = path;
        req.source = ss.str();
        req.script = r;
        req.init = file_init;
        req.sim.seed = seed;
        req.sim.randomize_delays = randomize;
        req.simulate = simulate;
        req.provenance = !prov_dir.empty() || profiling;
        req.critical_path = critical_path;
        req.stage_deadline_ms = stage_deadline_ms;
        req.deadline_ms = point_deadline_ms;
        reqs.push_back(std::move(req));
      }
    }

    // Evaluate, parallel then (optionally) serial for cross-checking.
    std::unique_ptr<ThreadPool> pool;
    if (jobs > 0) pool = std::make_unique<ThreadPool>(jobs);
    auto trace = std::make_shared<obs::Trace>(0);
    FlowExecutor::Options opts;
    if (!trace_path.empty()) opts.tracer = trace.get();
    opts.disk_cache_dir = cache_dir;
    opts.disk_cache_bytes = cache_bytes;
    // Interrupted batches still flush a partial trace, spans in flight
    // closed at the flush.
    int trace_token = -1;
    if (!trace_path.empty())
      trace_token = register_artifact_flush(trace_path, [trace, trace_path] {
        trace->close_open({{"flushed", "interrupted"}});
        obs::write_chrome_trace_file(*trace, trace_path);
      });
    FlowExecutor exec(pool.get(), opts);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<FlowPoint> points = exec.run_all(reqs);

    // Quarantine & retry: points that died to an injected fault are
    // re-evaluated with a fresh cancel token (a tripped token stays
    // tripped) and doubling backoff.  Deterministic count-limited fault
    // plans drain, so transients recover; persistent faults exhaust the
    // budget and keep status=fault with the attempt count recorded.
    std::size_t retried_points = 0, retry_attempts = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (points[i].status != FlowStatus::kFault) continue;
      ++retried_points;
      std::uint64_t backoff = retry_backoff_ms;
      unsigned attempts = points[i].attempts;
      for (unsigned r = 1; r <= retries && points[i].status == FlowStatus::kFault;
           ++r) {
        std::fprintf(stderr,
                     "adc_dse: retry %u/%u for %s [%s] after fault: %s\n", r,
                     retries, points[i].benchmark.c_str(),
                     points[i].script.c_str(), points[i].error.c_str());
        if (backoff) {
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
          backoff *= 2;
        }
        reqs[i].cancel = CancelToken();
        points[i] = exec.run(reqs[i]);
        ++attempts;
        ++retry_attempts;
      }
      points[i].attempts = attempts;
    }
    auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

    // Coverage ledger: every point accounted for by terminal status.
    std::size_t n_ok = 0, n_deadlock = 0, n_timeout = 0, n_cancelled = 0,
                n_fault = 0, n_error = 0;
    for (const auto& p : points) {
      switch (p.status) {
        case FlowStatus::kOk: ++n_ok; break;
        case FlowStatus::kDeadlock: ++n_deadlock; break;
        case FlowStatus::kTimeout: ++n_timeout; break;
        case FlowStatus::kCancelled: ++n_cancelled; break;
        case FlowStatus::kFault: ++n_fault; break;
        case FlowStatus::kError: ++n_error; break;
      }
    }

    // Per-point artifacts: a provenance log per evaluated point, and for
    // points whose simulation deadlocked a waveform of the stall — the
    // synthesis stages are all cache hits by now, only the simulation
    // re-runs with the VCD hooks attached.
    std::vector<std::vector<std::pair<std::string, std::string>>> extras(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!prov_dir.empty() && points[i].provenance) {
        std::string path = prov_dir + "/" + point_stem(points[i], i) + ".provenance.json";
        std::ofstream out(path);
        out << points[i].provenance->to_json() << "\n";
        if (!out) throw std::runtime_error("cannot write " + path);
        extras[i].emplace_back("provenance", path);
      }
      if (!vcd_dir.empty() && points[i].deadlocked) {
        std::string path = vcd_dir + "/" + point_stem(points[i], i) + ".vcd";
        VcdWriter vcd;
        FlowRequest rerun = reqs[i];
        rerun.sim.vcd = &vcd;
        rerun.provenance = false;
        rerun.cancel = CancelToken();
        exec.run(rerun);
        std::ofstream out(path);
        vcd.write(out);
        if (!out) throw std::runtime_error("cannot write " + path);
        extras[i].emplace_back("vcd", path);
      }
    }

    // Design-space explainability: build the profile store once, feed
    // every consumer (--profile-out/--frontier/--explain) and publish the
    // analysis.* gauges so the --json metrics object carries them.
    std::unique_ptr<analysis::DseProfile> profile;
    if (profiling) {
      obs::TraceSpan span(obs::TraceContext(opts.tracer), "analysis.profile");
      profile = std::make_unique<analysis::DseProfile>(
          analysis::build_dse_profile(points, "adc_dse"));
      // The profile is final once built, so its source is its figures.
      const analysis::GridAnalysis& g = profile->grid;
      const std::vector<double> figures = {
          static_cast<double>(profile->points.size()),
          static_cast<double>(g.frontier.size()),
          static_cast<double>(g.dominated.size()),
          g.channels.empty() ? 0.0 : static_cast<double>(g.channels.front().ticks)};
      exec.metrics().gauge_source({{"analysis.points", {}, ""},
                                   {"analysis.frontier_size", {}, ""},
                                   {"analysis.dominated", {}, ""},
                                   {"analysis.top_bottleneck_ticks", {}, ""}},
                                  [figures] { return figures; });
    }

    int rc = 0;
    if (verify_serial) {
      FlowExecutor serial(nullptr);
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].cancel = CancelToken();
        FlowPoint ref = serial.run(reqs[i]);
        if (!same_point(points[i], ref)) {
          ++mismatches;
          std::fprintf(stderr,
                       "adc_dse: MISMATCH %s [%s]: parallel "
                       "(ch=%zu st=%zu tr=%zu pr=%zu li=%zu lat=%lld ok=%d) vs serial "
                       "(ch=%zu st=%zu tr=%zu pr=%zu li=%zu lat=%lld ok=%d)\n",
                       ref.benchmark.c_str(), ref.script.c_str(), points[i].channels,
                       points[i].states, points[i].transitions, points[i].products,
                       points[i].literals, static_cast<long long>(points[i].latency),
                       points[i].ok, ref.channels, ref.states, ref.transitions,
                       ref.products, ref.literals, static_cast<long long>(ref.latency),
                       ref.ok);
        }
      }
      if (mismatches) {
        std::fprintf(stderr, "adc_dse: %zu/%zu points differ from the serial run\n",
                     mismatches, reqs.size());
        rc = 3;
      } else {
        std::fprintf(stderr, "adc_dse: all %zu points match the serial run\n",
                     reqs.size());
      }
    }

    CacheStats cs = exec.cache().stats();
    if (json_path.empty()) {
      Table t({"benchmark", "script", "channels", "states/trans", "prod/lits",
               "latency", "status", "ms"});
      for (const auto& p : points)
        t.add_row({p.benchmark, p.script.empty() ? "(none)" : p.script,
                   std::to_string(p.channels), pair_cell(p.states, p.transitions),
                   pair_cell(p.products, p.literals), std::to_string(p.latency),
                   to_string(p.status), std::to_string(p.total_micros / 1000)});
      std::printf("%s", t.to_string().c_str());
      std::printf(
          "\n%zu points, %zu jobs, %lld ms wall; cache: %llu hits, %llu joins, "
          "%llu misses (%.0f%% reuse)\n",
          points.size(), jobs, static_cast<long long>(wall_ms),
          static_cast<unsigned long long>(cs.hits),
          static_cast<unsigned long long>(cs.joins),
          static_cast<unsigned long long>(cs.misses), 100.0 * cs.hit_rate());
      std::printf(
          "coverage: %zu ok, %zu deadlock, %zu timeout, %zu fault, %zu error, "
          "%zu cancelled; %zu point(s) retried (%zu attempt(s))\n",
          n_ok, n_deadlock, n_timeout, n_fault, n_error, n_cancelled,
          retried_points, retry_attempts);
      if (const DiskCache* dc = exec.disk_cache()) {
        DiskCache::Stats ds = dc->stats();
        std::printf(
            "disk cache: %llu hits, %llu misses, %llu stores, %llu evictions, "
            "%llu corrupt (%llu bytes)\n",
            static_cast<unsigned long long>(ds.hits),
            static_cast<unsigned long long>(ds.misses),
            static_cast<unsigned long long>(ds.puts),
            static_cast<unsigned long long>(ds.evictions),
            static_cast<unsigned long long>(ds.corrupt),
            static_cast<unsigned long long>(dc->total_bytes()));
      }
    } else {
      JsonWriter w(true);
      w.begin_object();
      w.kv("tool", "adc_dse");
      w.kv("jobs", static_cast<std::uint64_t>(jobs));
      w.kv("wall_ms", static_cast<std::int64_t>(wall_ms));
      w.key("cache");
      w.begin_object();
      w.kv("hits", cs.hits);
      w.kv("joins", cs.joins);
      w.kv("misses", cs.misses);
      w.kv("evictions", cs.evictions);
      w.kv("hit_rate", cs.hit_rate());
      w.end_object();
      if (const DiskCache* dc = exec.disk_cache()) {
        DiskCache::Stats ds = dc->stats();
        w.key("disk_cache");
        w.begin_object();
        w.kv("dir", dc->dir());
        w.kv("hits", ds.hits);
        w.kv("misses", ds.misses);
        w.kv("stores", ds.puts);
        w.kv("evictions", ds.evictions);
        w.kv("corrupt", ds.corrupt);
        w.kv("put_errors", ds.put_errors);
        w.kv("total_bytes", dc->total_bytes());
        w.end_object();
      }
      w.key("coverage");
      w.begin_object();
      w.kv("total", static_cast<std::uint64_t>(points.size()));
      w.kv("ok", static_cast<std::uint64_t>(n_ok));
      w.kv("deadlock", static_cast<std::uint64_t>(n_deadlock));
      w.kv("timeout", static_cast<std::uint64_t>(n_timeout));
      w.kv("fault", static_cast<std::uint64_t>(n_fault));
      w.kv("error", static_cast<std::uint64_t>(n_error));
      w.kv("cancelled", static_cast<std::uint64_t>(n_cancelled));
      w.kv("retried", static_cast<std::uint64_t>(retried_points));
      w.kv("retry_attempts", static_cast<std::uint64_t>(retry_attempts));
      w.end_object();
      w.key("points");
      w.begin_array();
      for (std::size_t i = 0; i < points.size(); ++i)
        write_json(w, points[i], extras[i]);
      w.end_array();
      w.key("metrics");
      exec.metrics().write_json(w);
      w.end_object();
      if (json_path == "-") {
        std::printf("%s\n", w.str().c_str());
      } else {
        std::ofstream out(json_path);
        out << w.str() << "\n";
        if (!out) throw std::runtime_error("cannot write " + json_path);
        std::fprintf(stderr, "adc_dse: wrote %s (%zu points)\n", json_path.c_str(),
                     points.size());
      }
    }
    if (profile) {
      if (!profile_out.empty()) {
        std::string text = analysis::to_json(*profile);
        if (profile_out == "-") {
          std::printf("%s\n", text.c_str());
        } else {
          std::ofstream out(profile_out);
          out << text << "\n";
          if (!out) throw std::runtime_error("cannot write " + profile_out);
          std::fprintf(stderr, "adc_dse: wrote %s (%zu points, %zu on frontier)\n",
                       profile_out.c_str(), profile->points.size(),
                       profile->grid.frontier.size());
        }
      }
      if (frontier) {
        obs::TraceSpan span(obs::TraceContext(opts.tracer), "analysis.frontier");
        std::printf("%s", frontier_report(*profile).c_str());
      }
      if (!explain_spec.empty()) {
        obs::TraceSpan span(obs::TraceContext(opts.tracer), "analysis.explain");
        auto colon = explain_spec.find(':');
        std::size_t ia = resolve_explain_ref(explain_spec.substr(0, colon), points);
        std::size_t ib = resolve_explain_ref(explain_spec.substr(colon + 1), points);
        auto rep = analysis::explain_points(profile->points[ia],
                                            profile->points[ib]);
        std::printf("%s", rep.to_table().c_str());
      }
    }
    if (!trace_path.empty()) {
      unregister_artifact_flush(trace_token);
      if (!obs::write_chrome_trace_file(*trace, trace_path))
        throw std::runtime_error("cannot write " + trace_path);
      std::fprintf(stderr, "adc_dse: wrote %s\n", trace_path.c_str());
    }

    for (std::size_t i = 0; i < points.size(); ++i) {
      const FlowPoint& p = points[i];
      if (!p.ok && !p.error.empty())
        std::fprintf(stderr, "adc_dse: %s [%s]: %s%s\n", p.benchmark.c_str(),
                     p.script.c_str(), p.deadlocked ? "DEADLOCK: " : "",
                     p.error.c_str());
    }
    // Worst surviving outcome wins: a verify mismatch trumps everything,
    // then fault/error, then timeout/cancelled, then deadlock.
    if (rc == 0) {
      if (n_fault || n_error) rc = 6;
      else if (n_timeout || n_cancelled) rc = 5;
      else if (n_deadlock) rc = 4;
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adc_dse: %s\n", e.what());
    return 1;
  }
}
