// Perf harness: the Stat reduction (nearest-rank quantiles, trim-the-worst
// outlier policy), the BENCH JSON schema round-trip, the validator that
// `adc_obs_check --bench` runs, the baseline comparison gating `adc_bench
// --check`, and the measurement registry itself.

#include "perf/measure.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "report/json_parse.hpp"

namespace adc {
namespace perf {
namespace {

// --- Stat reduction --------------------------------------------------------

TEST(PerfStat, NearestRankQuantilesAreOrdered) {
  Stat s = stat_from_samples({5, 1, 4, 2, 3}, false);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.p50, 3.0);
  EXPECT_EQ(s.p90, 5.0);
  EXPECT_EQ(s.p99, 5.0);
  EXPECT_EQ(s.mean, 3.0);
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(PerfStat, TrimExcludesTheWorstSampleFromLocationStats) {
  // One scheduler hiccup (1000) must not shift p50/mean, but p99/max still
  // report it.
  Stat s = stat_from_samples({10, 10, 10, 10, 1000}, true);
  EXPECT_EQ(s.p50, 10.0);
  EXPECT_EQ(s.mean, 10.0);
  EXPECT_EQ(s.p99, 1000.0);
  EXPECT_EQ(s.max, 1000.0);
}

TEST(PerfStat, TrimNeedsAtLeastFiveSamples) {
  Stat s = stat_from_samples({1, 2, 3, 100}, true);
  EXPECT_EQ(s.mean, 26.5);  // nothing trimmed
  EXPECT_EQ(s.max, 100.0);
}

TEST(PerfStat, EmptyAndSingleton) {
  Stat e = stat_from_samples({}, true);
  EXPECT_EQ(e.p50, 0.0);
  EXPECT_EQ(e.max, 0.0);
  Stat one = stat_from_samples({7}, true);
  EXPECT_EQ(one.p50, 7.0);
  EXPECT_EQ(one.min, 7.0);
  EXPECT_EQ(one.max, 7.0);
}

// --- schema round-trip -----------------------------------------------------

BenchReport sample_report() {
  BenchReport rep;
  rep.tool = "test";
  rep.env.git_sha = "abc123";
  rep.env.compiler = "g++ 13";
  rep.env.flags = "-O2";
  rep.env.build_type = "Release";
  rep.env.os = "linux";
  rep.env.timestamp = "2026-01-01T00:00:00Z";
  rep.env.cores = 4;
  rep.policy.warmup = 2;
  rep.policy.repeats = 7;  // distinct from any record's repeats
  rep.policy.trim_outliers = true;
  rep.policy.quick = false;
  BenchRecord a;
  a.suite = "sim";
  a.name = "sim.diffeq";
  a.repeats = 9;
  a.wall_us = stat_from_samples({100, 110, 105, 102, 108});
  a.cpu_us = stat_from_samples({90, 95, 92, 91, 94});
  a.peak_rss_kb = 2048;
  a.counters["finish_time"] = 842.0;
  a.stages.push_back({"frontend", 10, 9, false});
  a.stages.push_back({"global", 20, 19, true});
  rep.benchmarks.push_back(a);
  BenchRecord b;
  b.suite = "flow";
  b.name = "flow.cold";
  b.repeats = 3;
  b.wall_us = stat_from_samples({500, 510, 505}, false);
  b.cpu_us = stat_from_samples({400, 410, 405}, false);
  b.peak_rss_kb = 4096;
  rep.benchmarks.push_back(b);
  return rep;
}

TEST(PerfRecord, JsonRoundTripPreservesEverything) {
  BenchReport rep = sample_report();
  BenchReport back = parse_bench_report(to_json(rep));
  EXPECT_EQ(back.version, kBenchVersion);
  EXPECT_EQ(back.tool, "test");
  EXPECT_EQ(back.env.git_sha, "abc123");
  EXPECT_EQ(back.env.compiler, "g++ 13");
  EXPECT_EQ(back.env.cores, 4u);
  EXPECT_EQ(back.policy.warmup, 2u);
  EXPECT_EQ(back.policy.repeats, 7u);
  EXPECT_TRUE(back.policy.trim_outliers);
  ASSERT_EQ(back.benchmarks.size(), 2u);
  const BenchRecord* a = back.find("sim.diffeq");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->suite, "sim");
  EXPECT_EQ(a->repeats, 9u);
  EXPECT_EQ(a->wall_us.p50, rep.benchmarks[0].wall_us.p50);
  EXPECT_EQ(a->cpu_us.max, rep.benchmarks[0].cpu_us.max);
  EXPECT_EQ(a->peak_rss_kb, 2048);
  EXPECT_EQ(a->counters.at("finish_time"), 842.0);
  ASSERT_EQ(a->stages.size(), 2u);
  EXPECT_EQ(a->stages[1].stage, "global");
  EXPECT_EQ(a->stages[1].us, 20u);
  EXPECT_EQ(a->stages[1].cpu_us, 19u);
  EXPECT_TRUE(a->stages[1].cached);
  EXPECT_EQ(back.find("flow.cold")->peak_rss_kb, 4096);
}

TEST(PerfRecord, EmittedJsonPassesTheValidator) {
  JsonValue doc = parse_json(to_json(sample_report()));
  std::vector<std::string> problems = validate_bench_json(doc);
  EXPECT_TRUE(problems.empty()) << problems.front();
}

// Pretty-printed members of sample_report() and a value their field's
// integer type cannot hold: the version, the core count, the warmup and
// the policy's and a record's repeats.
std::vector<std::pair<std::string, std::string>> out_of_range_swaps() {
  return {{"\"version\": 1", "\"version\": 1e300"},
          {"\"cores\": 4", "\"cores\": -1"},
          {"\"warmup\": 2", "\"warmup\": 1e300"},
          {"\"repeats\": 7", "\"repeats\": 0.5"},
          {"\"repeats\": 9", "\"repeats\": 0.5"}};
}

TEST(PerfRecord, ValidatorCatchesBrokenDocuments) {
  auto has_problem = [](const std::string& json, const std::string& what) {
    for (const std::string& p : validate_bench_json(parse_json(json)))
      if (p.find(what) != std::string::npos) return true;
    return false;
  };
  EXPECT_TRUE(has_problem("[]", "not an object"));
  EXPECT_TRUE(has_problem("{\"kind\": \"nope\"}", "kind is not"));

  // Mutate a valid document one field at a time.
  std::string good = to_json(sample_report());
  auto swap = [&](const std::string& from, const std::string& to) {
    std::string s = good;
    std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return s.replace(at, from.size(), to);
  };
  EXPECT_TRUE(has_problem(swap("\"version\": 1", "\"version\": 99"),
                          "version is not"));
  EXPECT_TRUE(has_problem(swap("\"version\": 1", "\"version\": 1e300"),
                          "version is not"));
  EXPECT_TRUE(has_problem(swap("\"cores\": 4", "\"cores\": 0"), "cores < 1"));
  EXPECT_TRUE(has_problem(swap("\"name\": \"flow.cold\"",
                               "\"name\": \"sim.diffeq\""),
                          "duplicate benchmark"));
  EXPECT_TRUE(has_problem(swap("\"repeats\": 9", "\"repeats\": 0"),
                          "repeats < 1"));
  EXPECT_TRUE(has_problem(swap("\"peak_rss_kb\": 2048", "\"peak_rss_kb\": -1"),
                          "peak_rss_kb missing or negative"));
  // Numbers no value of the field's integer type equals are problems,
  // never undefined float-to-integer casts.
  for (const auto& [from, to] : out_of_range_swaps()) {
    const std::string key = from.substr(1, from.find('"', 1) - 1);
    EXPECT_TRUE(has_problem(swap(from, to), "'" + key + "' is not an integer in range"))
        << to;
  }

  // Members parse_bench_report requires: an empty policy and a stage row
  // with only its name must not pass the validator either.
  good = to_json(sample_report(), /*pretty=*/false);
  std::string no_policy = swap(
      R"("policy":{"warmup":2,"repeats":7,"trim_outliers":true,"quick":false})",
      R"("policy":{})");
  EXPECT_TRUE(has_problem(no_policy, "policy missing number 'warmup'"));
  EXPECT_TRUE(has_problem(no_policy, "policy missing boolean 'quick'"));
  std::string bare_stage = swap(
      R"({"stage":"frontend","us":10,"cpu_us":9,"cached":false})",
      R"({"stage":"frontend"})");
  EXPECT_TRUE(has_problem(bare_stage, "sim.diffeq: stage missing number 'us'"));
  EXPECT_TRUE(has_problem(bare_stage, "stage missing boolean 'cached'"));
  EXPECT_THROW(parse_bench_report(no_policy), std::runtime_error);
  EXPECT_THROW(parse_bench_report(bare_stage), std::runtime_error);
}

TEST(PerfRecord, ValidatorChecksStatOrdering) {
  BenchReport rep = sample_report();
  rep.benchmarks[0].wall_us.p50 = 1000.0;  // now p50 > p90
  bool found = false;
  for (const std::string& p : validate_bench_json(parse_json(to_json(rep))))
    if (p.find("p50 > p90") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(PerfRecord, ParseRejectsWrongKindAndVersion) {
  EXPECT_THROW(parse_bench_report("{\"kind\": \"other\"}"), std::runtime_error);
  BenchReport rep = sample_report();
  std::string s = to_json(rep);
  std::size_t at = s.find("\"version\": 1");
  s.replace(at, 12, "\"version\": 7");
  EXPECT_THROW(parse_bench_report(s), std::runtime_error);

  // Parse reads through the validator's path: whatever validate_bench_json
  // reports, parse_bench_report refuses.
  for (const auto& [from, to] : out_of_range_swaps()) {
    std::string bad = to_json(rep);
    bad.replace(bad.find(from), from.size(), to);
    EXPECT_THROW(parse_bench_report(bad), std::runtime_error) << to;
  }
  rep.benchmarks[0].wall_us.p50 = 1000.0;  // p50 > p90, nothing else wrong
  try {
    parse_bench_report(to_json(rep));
    ADD_FAILURE() << "stat ordering accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("p50 > p90"), std::string::npos) << e.what();
  }
}

// --- baseline comparison ---------------------------------------------------

BenchRecord record_with_p50(const std::string& name, double p50) {
  BenchRecord r;
  r.suite = "s";
  r.name = name;
  r.repeats = 1;
  r.wall_us = stat_from_samples({p50}, false);
  r.cpu_us = r.wall_us;
  return r;
}

TEST(PerfCompare, GrowthBeyondThresholdIsARegression) {
  BenchReport base, cur;
  base.benchmarks.push_back(record_with_p50("a", 100));
  cur.benchmarks.push_back(record_with_p50("a", 150));
  auto deltas = compare_reports(base, cur, {10.0, 50.0});
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_TRUE(deltas[0].regressed);
  EXPECT_NEAR(deltas[0].pct, 50.0, 1e-9);
  EXPECT_TRUE(has_regression(deltas));
  // Same current under a looser threshold: fine.
  EXPECT_FALSE(has_regression(compare_reports(base, cur, {60.0, 50.0})));
}

TEST(PerfCompare, SubFloorTimingsAreNeverFlagged) {
  BenchReport base, cur;
  base.benchmarks.push_back(record_with_p50("tiny", 10));
  cur.benchmarks.push_back(record_with_p50("tiny", 40));  // +300% but < 50us
  EXPECT_FALSE(has_regression(compare_reports(base, cur, {10.0, 50.0})));
  // Once the current crosses the floor the growth counts again.
  cur.benchmarks[0] = record_with_p50("tiny", 60);
  EXPECT_TRUE(has_regression(compare_reports(base, cur, {10.0, 50.0})));
}

TEST(PerfCompare, VanishedBenchmarkIsARegressionNewOneIsNot) {
  BenchReport base, cur;
  base.benchmarks.push_back(record_with_p50("old", 100));
  cur.benchmarks.push_back(record_with_p50("new", 100));
  auto deltas = compare_reports(base, cur, {});
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_TRUE(deltas[0].only_in_baseline);
  EXPECT_TRUE(deltas[0].regressed);
  EXPECT_TRUE(deltas[1].only_in_current);
  EXPECT_FALSE(deltas[1].regressed);
  std::string rendered = render_deltas(deltas, {});
  EXPECT_NE(rendered.find("MISSING"), std::string::npos);
  EXPECT_NE(rendered.find("new"), std::string::npos);
}

TEST(PerfCompare, ImprovementIsNotARegression) {
  BenchReport base, cur;
  base.benchmarks.push_back(record_with_p50("a", 200));
  cur.benchmarks.push_back(record_with_p50("a", 100));
  auto deltas = compare_reports(base, cur, {10.0, 50.0});
  EXPECT_FALSE(has_regression(deltas));
  EXPECT_LT(deltas[0].pct, 0.0);
}

// --- measurement harness ---------------------------------------------------

TEST(PerfMeasure, RunsWarmupPlusRepeatsAndKeepsCounters) {
  int calls = 0;
  Benchmark b{"t", "t.counting", [&calls](BenchContext& ctx) {
                ++calls;
                ctx.counters["calls"] = static_cast<double>(calls);
                ctx.stages.push_back({"stage1", 5, 4, false});
              }};
  MeasureOptions opts;
  opts.warmup = 2;
  opts.repeats = 3;
  BenchRecord rec = measure(b, opts);
  EXPECT_EQ(calls, 5);  // 2 untimed + 3 timed
  EXPECT_EQ(rec.name, "t.counting");
  EXPECT_EQ(rec.suite, "t");
  EXPECT_EQ(rec.repeats, 3u);
  EXPECT_EQ(rec.counters.at("calls"), 5.0);  // last repetition wins
  ASSERT_EQ(rec.stages.size(), 1u);
  EXPECT_EQ(rec.stages[0].stage, "stage1");
  EXPECT_GE(rec.wall_us.max, rec.wall_us.min);
  EXPECT_GE(rec.peak_rss_kb, 0);
}

TEST(PerfMeasure, GroupAlternatesAndMarksEveryRecordOnFailure) {
  std::string calls;  // written by the measuring thread, read after it joined
  Benchmark a{"t", "t.a", [&calls](BenchContext&) { calls += 'a'; }};
  Benchmark b{"t", "t.b", [&calls](BenchContext& ctx) {
                calls += 'b';
                ctx.counters["b"] = 1;
              }};
  MeasureOptions opts;
  opts.warmup = 1;
  opts.repeats = 3;
  std::vector<BenchRecord> recs = measure_group({a, b}, opts);
  EXPECT_EQ(calls, "abababab");  // 1 warmup round + 3 timed rounds
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].name, "t.a");
  EXPECT_EQ(recs[1].name, "t.b");
  for (const BenchRecord& r : recs) {
    EXPECT_EQ(r.status, "ok");
    EXPECT_EQ(r.repeats, 3u);
  }
  EXPECT_TRUE(recs[0].counters.empty());
  EXPECT_EQ(recs[1].counters.at("b"), 1.0);

  // A throwing body marks both records.
  Benchmark quiet{"t", "t.quiet", [](BenchContext&) {}};
  Benchmark boom{"t", "t.boom",
                 [](BenchContext&) { throw std::runtime_error("boom"); }};
  recs = measure_group({quiet, boom}, opts);
  ASSERT_EQ(recs.size(), 2u);
  for (const BenchRecord& r : recs) {
    EXPECT_EQ(r.status, "error") << r.name;
    EXPECT_EQ(r.error, "boom");
  }

  // So does a hung one, once the group's deadline fires.  The abandoned
  // thread is released afterwards and touches nothing of this frame.
  auto release = std::make_shared<std::atomic<bool>>(false);
  Benchmark hang{"t", "t.hang", [release](BenchContext&) {
                   while (!release->load())
                     std::this_thread::sleep_for(std::chrono::milliseconds(1));
                 }};
  opts.deadline_ms = 50;
  recs = measure_group({quiet, hang}, opts);
  release->store(true);
  ASSERT_EQ(recs.size(), 2u);
  for (const BenchRecord& r : recs) {
    EXPECT_EQ(r.status, "timeout") << r.name;
    EXPECT_EQ(r.repeats, 1u);
  }
  // Failed records still pass the schema.
  BenchReport rep = run_registered({"no-such-suite"}, "", opts, "test");
  rep.benchmarks = recs;
  EXPECT_TRUE(validate_bench_json(parse_json(to_json(rep))).empty());
}

TEST(PerfMeasure, RegistryFiltersBySuiteAndName) {
  auto& reg = BenchRegistry::instance();
  reg.add({"zza", "zza.one", [](BenchContext&) {}});
  reg.add({"zza", "zza.two", [](BenchContext&) {}});
  reg.add({"zzb", "zzb.one", [](BenchContext&) {}});
  MeasureOptions opts;
  opts.warmup = 0;
  opts.repeats = 1;
  BenchReport by_suite = run_registered({"zza"}, "", opts, "test");
  EXPECT_EQ(by_suite.benchmarks.size(), 2u);
  BenchReport by_name = run_registered({}, "zzb.", opts, "test");
  ASSERT_EQ(by_name.benchmarks.size(), 1u);
  EXPECT_EQ(by_name.benchmarks[0].name, "zzb.one");
  EXPECT_EQ(by_name.tool, "test");
  EXPECT_EQ(by_name.policy.repeats, 1u);
  // The report is immediately schema-valid.
  EXPECT_TRUE(validate_bench_json(parse_json(to_json(by_name))).empty());
}

TEST(PerfMeasure, CaptureEnvFillsTheFingerprint) {
  BenchEnv env = capture_env();
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_FALSE(env.os.empty());
  EXPECT_FALSE(env.timestamp.empty());
  EXPECT_GE(env.cores, 1u);
}

TEST(PerfMeasure, ClocksAreMonotone) {
  std::uint64_t w0 = wall_now_micros();
  std::uint64_t c0 = process_cpu_micros();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  EXPECT_GE(wall_now_micros(), w0);
  EXPECT_GE(process_cpu_micros(), c0);
}

}  // namespace
}  // namespace perf
}  // namespace adc
