// Trace-layer tests: the span tracer must produce well-formed Chrome
// trace_event JSON (validated with the repo's own parser) with balanced
// B/E pairs per track even under a multi-threaded DSE batch, stage spans
// must carry their cache disposition, every stage of a run must reach
// every telemetry sink, and the structured logger must honour levels and
// render fields.

#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/trace_context.hpp"
#include "report/json_parse.hpp"
#include "runtime/flow.hpp"
#include "trace/flush.hpp"
#include "trace/log.hpp"

namespace adc {
namespace {

// --- tracer unit ----------------------------------------------------------

TEST(Tracer, SpansBeginAndEndOnOneTrack) {
  Tracer tracer;
  const obs::TraceContext ctx(&tracer);
  {
    obs::TraceSpan outer(ctx, "outer", "test");
    obs::TraceSpan inner(ctx, "inner", "test");
    inner.arg("cache", "miss");
  }
  auto tracks = tracer.tracks();
  ASSERT_EQ(tracks.size(), 1u);
  auto events = tracer.events_for_track(tracks[0]);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  // Inner ends before outer; args land on the end event.
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::kEnd);
  EXPECT_EQ(events[2].name, "inner");
  ASSERT_EQ(events[2].args.size(), 1u);
  EXPECT_EQ(events[2].args[0].first, "cache");
  EXPECT_EQ(events[2].args[0].second, "miss");
  EXPECT_EQ(events[3].name, "outer");
}

TEST(Tracer, TimestampsAreMonotonicPerTrack) {
  Tracer tracer;
  for (int i = 0; i < 10; ++i) obs::TraceSpan span(obs::TraceContext(&tracer), "s", "test");
  auto events = tracer.events_for_track(tracer.tracks()[0]);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].ts_micros, events[i - 1].ts_micros);
}

TEST(Tracer, NullTracerIsANoOp) {
  Tracer* none = nullptr;
  obs::TraceSpan span(obs::TraceContext(none), "ignored");
  span.arg("k", "v");
  // Nothing to assert beyond "does not crash".
}

TEST(Tracer, CounterAndInstantEvents) {
  Tracer tracer;
  tracer.counter("queue", 3);
  tracer.instant("deadlock", "sim", {{"benchmark", "x"}});
  auto events = tracer.events_for_track(tracer.tracks()[0]);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kCounter);
  EXPECT_EQ(events[0].counter_value, 3);
  EXPECT_EQ(events[1].phase, TraceEvent::Phase::kInstant);
}

// --- Chrome JSON schema under a multi-threaded batch ----------------------

JsonValue traced_batch(Tracer& tracer) {
  const BuiltinBenchmark* b = find_builtin("mac_reduce");
  std::vector<FlowRequest> reqs;
  for (const char* script : {"lt", "gt2; gt5; lt", "gt1; gt2; gt4; gt2; gt5; lt"})
    reqs.push_back(make_builtin_request(*b, script));
  ThreadPool pool(4);
  FlowExecutor::Options opts;
  opts.tracer = &tracer;
  FlowExecutor exec(&pool, opts);
  auto points = exec.run_all(reqs);
  for (const auto& p : points) EXPECT_TRUE(p.ok) << p.script << ": " << p.error;
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  return parse_json(os.str());
}

TEST(ChromeTrace, WellFormedWithBalancedSpansPerTrack) {
  Tracer tracer;
  JsonValue doc = traced_batch(tracer);
  ASSERT_TRUE(doc.is_object());
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.array.empty());

  std::map<int, int> depth;  // tid -> open span count
  std::map<int, std::uint64_t> last_ts;
  for (const JsonValue& ev : events.array) {
    ASSERT_TRUE(ev.is_object());
    EXPECT_TRUE(ev.at("name").is_string());
    EXPECT_TRUE(ev.at("ts").is_number());
    EXPECT_TRUE(ev.at("pid").is_number());
    const std::string& ph = ev.at("ph").string;
    int tid = static_cast<int>(ev.at("tid").number);
    auto ts = static_cast<std::uint64_t>(ev.at("ts").number);
    EXPECT_GE(ts, last_ts[tid]) << "time moved backwards on track " << tid;
    last_ts[tid] = ts;
    if (ph == "B") ++depth[tid];
    else if (ph == "E") {
      --depth[tid];
      EXPECT_GE(depth[tid], 0) << "end without begin on track " << tid;
    } else {
      EXPECT_TRUE(ph == "C" || ph == "i") << "unexpected phase " << ph;
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "unbalanced track " << tid;
}

TEST(ChromeTrace, StageSpansCarryCacheDisposition) {
  Tracer tracer;
  JsonValue doc = traced_batch(tracer);
  std::map<std::string, int> cache_args;  // "hit"/"miss" -> count
  std::map<std::string, int> span_names;
  for (const JsonValue& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").string == "B") ++span_names[ev.at("name").string];
    if (ev.at("ph").string != "E") continue;
    if (const JsonValue* args = ev.find("args"))
      if (const JsonValue* cache = args->find("cache")) ++cache_args[cache->string];
  }
  // Every flow stage appears as a span...
  for (const char* stage : {"flow.run", "frontend", "global", "controllers", "sim"})
    EXPECT_GT(span_names[stage], 0) << stage;
  EXPECT_GT(span_names["gt2"], 0) << "per-step global spans";
  // ...and the cache disposition annotations include both outcomes (three
  // recipes share the frontend, so at least one hit is guaranteed).
  EXPECT_GT(cache_args["miss"], 0);
  EXPECT_GT(cache_args["hit"], 0);
}

TEST(ChromeTrace, GaugesAreSampledAsCounterEvents) {
  Tracer tracer;
  JsonValue doc = traced_batch(tracer);
  std::map<std::string, int> counters;
  for (const JsonValue& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").string != "C") continue;
    EXPECT_TRUE(ev.at("args").at("value").is_number());
    ++counters[ev.at("name").string];
  }
  EXPECT_GT(counters["cache.entries"], 0);
  EXPECT_GT(counters["cache.bytes"], 0);
  EXPECT_GT(counters["pool.pending"], 0);
}

// --- one stage, every sink ------------------------------------------------

// name -> the `cache` args ("" when absent) of every span of that name.
using CacheArgs = std::map<std::string, std::multiset<std::string>>;

std::string cache_arg_of(const std::vector<std::pair<std::string, std::string>>& args) {
  for (const auto& [k, v] : args)
    if (k == "cache") return v;
  return "";
}

TEST(TelemetrySpine, EveryTimingsRowReachesEverySink) {
  Tracer tracer;
  FlowExecutor::Options opts;
  opts.tracer = &tracer;
  FlowExecutor exec(nullptr, opts);
  auto job = std::make_shared<obs::JobTrace>(1);
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"), "gt1; gt2; gt5; lt");
  req.trace = obs::TraceContext(job, 0);
  std::map<std::string, std::size_t> rows;  // name -> row count
  std::map<std::string, std::multiset<bool>> cached;
  for (int run = 0; run < 2; ++run) {  // cold, then warm off the stage cache
    FlowPoint p = exec.run(req);
    ASSERT_TRUE(p.ok) << p.error;
    for (const StageTiming& t : p.timings) {
      ++rows[t.stage];
      cached[t.stage].insert(t.cached);
    }
  }
  ASSERT_EQ(rows.size(), 4u);  // frontend, global, controllers, sim
  EXPECT_EQ(cached["frontend"], (std::multiset<bool>{false, true}));

  CacheArgs process, per_job;
  for (std::uint32_t track : tracer.tracks())
    for (const TraceEvent& ev : tracer.events_for_track(track))
      if (ev.phase == TraceEvent::Phase::kEnd) process[ev.name].insert(cache_arg_of(ev.args));
  for (const obs::TraceSpanRecord& span : job->spans())
    per_job[span.name].insert(cache_arg_of(span.args));

  for (const auto& [name, count] : rows) {
    EXPECT_EQ(process[name].size(), count) << name;
    EXPECT_EQ(process[name], per_job[name]) << name;
    EXPECT_EQ(exec.metrics().histogram("stage." + name).snapshot().count, count) << name;
  }
  EXPECT_EQ(process["frontend"], (std::multiset<std::string>{"hit", "miss"}));
}

// --- structured logger ----------------------------------------------------

TEST(Log, LevelsGateEmission) {
  std::string captured;
  log_capture_to(&captured);
  LogLevel before = log_level();
  set_log_level(LogLevel::kWarn);
  ADC_LOG_INFO("test", "hidden");
  ADC_LOG_WARN("test", "visible", {{"code", 7}});
  set_log_level(before);
  log_capture_to(nullptr);
  EXPECT_EQ(captured.find("hidden"), std::string::npos);
  EXPECT_NE(captured.find("visible"), std::string::npos);
  EXPECT_NE(captured.find("code=7"), std::string::npos);
  EXPECT_NE(captured.find("[warn"), std::string::npos);
}

TEST(Log, FieldRenderingQuotesSpaces) {
  std::string captured;
  log_capture_to(&captured);
  LogLevel before = log_level();
  set_log_level(LogLevel::kInfo);
  ADC_LOG_INFO("test", "msg", {{"k", "two words"}, {"flag", true}});
  set_log_level(before);
  log_capture_to(nullptr);
  EXPECT_NE(captured.find("k=\"two words\""), std::string::npos);
  EXPECT_NE(captured.find("flag=true"), std::string::npos);
}

TEST(Log, LevelNamesRoundTrip) {
  EXPECT_EQ(log_level_from_string("debug"), LogLevel::kDebug);
  EXPECT_EQ(log_level_from_string("error"), LogLevel::kError);
  EXPECT_THROW(log_level_from_string("loud"), std::invalid_argument);
  EXPECT_STREQ(to_string(LogLevel::kInfo), "info");
}

// --- artifact flush registry ----------------------------------------------

TEST(Flush, CallbacksRunOnceAndAreConsumed) {
  int runs = 0;
  register_artifact_flush("test-artifact", [&runs] { ++runs; });
  flush_artifacts_now();
  EXPECT_EQ(runs, 1);
  flush_artifacts_now();  // already consumed
  EXPECT_EQ(runs, 1);
}

TEST(Flush, UnregisteredCallbackDoesNotRun) {
  int runs = 0;
  int token = register_artifact_flush("written-normally", [&runs] { ++runs; });
  unregister_artifact_flush(token);
  flush_artifacts_now();
  EXPECT_EQ(runs, 0);
}

TEST(Flush, MultipleArtifactsFlushIndependently) {
  int a = 0, b = 0;
  register_artifact_flush("a", [&a] { ++a; });
  int tb = register_artifact_flush("b", [&b] { ++b; });
  unregister_artifact_flush(tb);
  flush_artifacts_now();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 0);
}

TEST(Flush, ThrowingCallbackIsContained) {
  int after = 0;
  register_artifact_flush("bad", [] { throw std::runtime_error("disk full"); });
  register_artifact_flush("good", [&after] { ++after; });
  EXPECT_NO_THROW(flush_artifacts_now());
  EXPECT_EQ(after, 1);
}

TEST(Flush, InstallHandlersIsIdempotent) {
  install_flush_handlers();
  install_flush_handlers();  // must not double-register atexit work
}

}  // namespace
}  // namespace adc
