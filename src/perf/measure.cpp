#include "perf/measure.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#ifdef __unix__
#include <sys/resource.h>
#endif

#include "report/table.hpp"

#ifndef ADC_BUILD_TYPE
#define ADC_BUILD_TYPE "unknown"
#endif
#ifndef ADC_BUILD_FLAGS
#define ADC_BUILD_FLAGS ""
#endif

namespace adc {
namespace perf {

std::uint64_t wall_now_micros() {
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count());
}

std::uint64_t process_cpu_micros() {
#ifdef __unix__
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    auto us = [](const timeval& tv) {
      return static_cast<std::uint64_t>(tv.tv_sec) * 1000000u +
             static_cast<std::uint64_t>(tv.tv_usec);
    };
    return us(ru.ru_utime) + us(ru.ru_stime);
  }
#endif
  return static_cast<std::uint64_t>(std::clock()) * 1000000u / CLOCKS_PER_SEC;
}

std::int64_t peak_rss_kb() {
#ifdef __unix__
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#ifdef __APPLE__
    return ru.ru_maxrss / 1024;  // bytes on Darwin
#else
    return ru.ru_maxrss;  // kilobytes on Linux
#endif
  }
#endif
  return 0;
}

namespace {

std::string git_sha_from_tree() {
  FILE* p = ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r");
  if (!p) return {};
  char buf[64] = {};
  std::string out;
  if (std::fgets(buf, sizeof buf, p)) out = buf;
  ::pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out;
}

}  // namespace

BenchEnv capture_env() {
  BenchEnv env;
  if (const char* sha = std::getenv("ADC_GIT_SHA"); sha && *sha) env.git_sha = sha;
  if (env.git_sha.empty()) env.git_sha = git_sha_from_tree();
  if (env.git_sha.empty()) env.git_sha = "unknown";
#ifdef __VERSION__
  env.compiler = __VERSION__;
#else
  env.compiler = "unknown";
#endif
  env.flags = ADC_BUILD_FLAGS;
  env.build_type = ADC_BUILD_TYPE;
#if defined(__linux__)
  env.os = "linux";
#elif defined(__APPLE__)
  env.os = "darwin";
#elif defined(_WIN32)
  env.os = "windows";
#else
  env.os = "unknown";
#endif
  env.cores = std::max(1u, std::thread::hardware_concurrency());
  std::time_t now = std::time(nullptr);
  char stamp[32] = {};
  std::tm tm_utc{};
#ifdef _WIN32
  gmtime_s(&tm_utc, &now);
#else
  gmtime_r(&now, &tm_utc);
#endif
  std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  env.timestamp = stamp;
  return env;
}

BenchRegistry& BenchRegistry::instance() {
  static BenchRegistry reg;
  return reg;
}

void BenchRegistry::add(Benchmark b) { benches_.push_back(std::move(b)); }

std::vector<std::string> BenchRegistry::suites() const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const auto& b : benches_)
    if (seen.insert(b.suite).second) out.push_back(b.suite);
  return out;
}

namespace {

// Everything the measurement thread touches, shared_ptr-owned so an
// abandoned (detached) thread after a timeout never writes freed memory.
// One slot per benchmark of the group.
struct MeasureShared {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::vector<BenchContext> ctx;
  std::vector<std::vector<double>> wall, cpu;
  bool failed = false;
  std::string error;
};

}  // namespace

std::vector<BenchRecord> measure_group(const std::vector<Benchmark>& group,
                                       const MeasureOptions& opts) {
  const unsigned repeats = std::max(1u, opts.repeats);
  auto sh = std::make_shared<MeasureShared>();
  sh->ctx.resize(group.size());
  for (BenchContext& ctx : sh->ctx) ctx.quick = opts.quick;
  sh->wall.resize(group.size());
  sh->cpu.resize(group.size());
  // The bodies run on their own thread (copying the group — a detached
  // thread must not reference the caller's frame) so the harness can
  // abandon them when the deadline fires.
  std::thread worker([sh, group, warmup = opts.warmup, repeats] {
    try {
      for (unsigned i = 0; i < warmup; ++i)
        for (std::size_t k = 0; k < group.size(); ++k) group[k].run(sh->ctx[k]);
      for (unsigned i = 0; i < repeats; ++i)
        for (std::size_t k = 0; k < group.size(); ++k) {
          BenchContext& ctx = sh->ctx[k];
          ctx.counters.clear();
          ctx.stages.clear();
          const std::uint64_t c0 = process_cpu_micros();
          const std::uint64_t w0 = wall_now_micros();
          group[k].run(ctx);
          sh->wall[k].push_back(static_cast<double>(wall_now_micros() - w0));
          sh->cpu[k].push_back(static_cast<double>(process_cpu_micros() - c0));
        }
    } catch (const std::exception& e) {
      sh->failed = true;
      sh->error = e.what();
    } catch (...) {
      sh->failed = true;
      sh->error = "unknown exception";
    }
    std::lock_guard<std::mutex> lk(sh->mu);
    sh->done = true;
    sh->cv.notify_all();
  });

  bool finished = true;
  {
    std::unique_lock<std::mutex> lk(sh->mu);
    if (opts.deadline_ms == 0) {
      sh->cv.wait(lk, [&] { return sh->done; });
    } else {
      finished = sh->cv.wait_for(lk, std::chrono::milliseconds(opts.deadline_ms),
                                 [&] { return sh->done; });
    }
  }
  // A hung body leaves its thread behind (it owns `sh`).
  if (finished) worker.join();
  else worker.detach();

  std::vector<BenchRecord> recs(group.size());
  for (std::size_t k = 0; k < group.size(); ++k) {
    BenchRecord& rec = recs[k];
    rec.suite = group[k].suite;
    rec.name = group[k].name;
    rec.peak_rss_kb = peak_rss_kb();
    if (!finished || sh->failed) {
      // A structured failure for every record of the group; the zeroed
      // stats satisfy the schema invariants.
      rec.repeats = 1;
      rec.status = finished ? "error" : "timeout";
      rec.error = finished ? sh->error
                           : "deadline exceeded after " +
                                 std::to_string(opts.deadline_ms) + " ms";
      continue;
    }
    rec.repeats = repeats;
    rec.wall_us = stat_from_samples(std::move(sh->wall[k]), opts.trim_outliers);
    rec.cpu_us = stat_from_samples(std::move(sh->cpu[k]), opts.trim_outliers);
    rec.counters = std::move(sh->ctx[k].counters);
    rec.stages = std::move(sh->ctx[k].stages);
  }
  return recs;
}

BenchRecord measure(const Benchmark& b, const MeasureOptions& opts) {
  return measure_group({b}, opts).front();
}

BenchReport run_registered(const std::vector<std::string>& suites,
                           const std::string& filter, const MeasureOptions& opts,
                           const std::string& tool,
                           const std::vector<std::string>& exclude) {
  BenchReport rep;
  rep.tool = tool;
  rep.env = capture_env();
  rep.policy.warmup = opts.warmup;
  rep.policy.repeats = opts.repeats;
  rep.policy.trim_outliers = opts.trim_outliers;
  rep.policy.quick = opts.quick;
  for (const auto& b : BenchRegistry::instance().all()) {
    if (!suites.empty() &&
        std::find(suites.begin(), suites.end(), b.suite) == suites.end())
      continue;
    if (!filter.empty() && b.name.find(filter) == std::string::npos) continue;
    if (std::find(exclude.begin(), exclude.end(), b.name) != exclude.end())
      continue;
    rep.benchmarks.push_back(measure(b, opts));
    if (opts.on_record) opts.on_record(rep);
  }
  return rep;
}

std::string render_report(const BenchReport& rep) {
  Table t({"benchmark", "suite", "wall p50 us", "p90", "p99", "cpu p50 us",
           "repeats"});
  for (const auto& b : rep.benchmarks) {
    char p50[32], p90[32], p99[32], cpu[32];
    std::snprintf(p50, sizeof p50, "%.1f", b.wall_us.p50);
    std::snprintf(p90, sizeof p90, "%.1f", b.wall_us.p90);
    std::snprintf(p99, sizeof p99, "%.1f", b.wall_us.p99);
    std::snprintf(cpu, sizeof cpu, "%.1f", b.cpu_us.p50);
    t.add_row({b.name, b.suite, p50, p90, p99, cpu, std::to_string(b.repeats)});
  }
  char head[160];
  std::snprintf(head, sizeof head,
                "env: %s | %s | %s | %u cores | %s\n",
                rep.env.git_sha.c_str(), rep.env.build_type.c_str(),
                rep.env.os.c_str(), rep.env.cores, rep.env.timestamp.c_str());
  return std::string(head) + t.to_string();
}

}  // namespace perf
}  // namespace adc
