// Trace-layer tests: the span recorder must produce well-formed Chrome
// trace_event JSON (validated with the repo's own parser) with finished,
// connected spans and monotone time per track even under a multi-threaded
// DSE batch, stage spans must carry their cache disposition, every stage
// of a run must reach every telemetry sink, and the structured logger
// must honour levels and render fields.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

#include "obs/trace_context.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"
#include "runtime/flow.hpp"
#include "trace/flush.hpp"
#include "trace/log.hpp"

namespace adc {
namespace {

JsonValue chrome_trace(const obs::Trace& trace) {
  JsonWriter w;
  trace.write_chrome_trace(w, 1);
  return parse_json(w.str());
}

// --- recorder unit ----------------------------------------------------------

TEST(Tracer, SpansBeginAndEndOnOneTrack) {
  obs::Trace trace(0);
  const obs::TraceContext ctx(&trace);
  {
    obs::TraceSpan outer(ctx, "outer", "test");
    obs::TraceSpan inner(outer.context(), "inner", "test");
    inner.arg("cache", "miss");
  }
  auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner");
  // One thread, one track; inner nests inside outer.
  EXPECT_EQ(spans[0].thread, spans[1].thread);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_GE(spans[1].start_us, spans[0].start_us);
  EXPECT_LE(spans[1].end_us, spans[0].end_us);
  // Args land on the close.
  ASSERT_EQ(spans[1].args.size(), 1u);
  EXPECT_EQ(spans[1].args[0].first, "cache");
  EXPECT_EQ(spans[1].args[0].second, "miss");
  EXPECT_TRUE(spans[0].args.empty());
}

TEST(Tracer, TimestampsAreMonotonicPerTrack) {
  obs::Trace trace(0);
  for (int i = 0; i < 10; ++i) obs::TraceSpan span(obs::TraceContext(&trace), "s", "test");
  auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 10u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_GT(spans[i].end_us, spans[i].start_us);
    if (i > 0) {
      EXPECT_GE(spans[i].start_us, spans[i - 1].start_us);
    }
  }
}

TEST(Tracer, NullTracerIsANoOp) {
  obs::Trace* none = nullptr;
  obs::TraceSpan span(obs::TraceContext(none), "ignored");
  span.arg("k", "v");
  EXPECT_FALSE(span.active());
}

TEST(Tracer, CounterAndInstantEvents) {
  obs::Trace trace(0);
  trace.counter("queue", 3);
  trace.instant("deadlock", "sim", {{"benchmark", "x"}});
  EXPECT_TRUE(trace.spans().empty()) << "marks are not spans";
  std::vector<const JsonValue*> events;
  JsonValue doc = chrome_trace(trace);
  for (const JsonValue& ev : doc.at("traceEvents").array)
    if (ev.at("ph").string != "M") events.push_back(&ev);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0]->at("ph").string, "C");
  EXPECT_EQ(events[0]->at("name").string, "queue");
  EXPECT_EQ(events[0]->at("args").at("value").number, 3);
  EXPECT_EQ(events[1]->at("ph").string, "i");
  EXPECT_EQ(events[1]->at("args").at("benchmark").string, "x");
}

TEST(Tracer, CloseOpenEndsSpansInFlight) {
  obs::Trace trace(0);
  const std::uint64_t done = trace.begin("done", "test", 0);
  trace.end(done);
  const std::uint64_t open = trace.begin("open", "test", 0);
  trace.close_open({{"flushed", "interrupted"}});
  auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[0].args.empty()) << "finished spans keep their args";
  EXPECT_GT(spans[1].end_us, spans[1].start_us);
  ASSERT_EQ(spans[1].args.size(), 1u);
  EXPECT_EQ(spans[1].args[0].second, "interrupted");
  // The span's own late close is ignored.
  trace.end(open, {{"late", "true"}});
  EXPECT_EQ(trace.spans()[1].args.size(), 1u);
}

// --- Chrome JSON schema under a multi-threaded batch ----------------------

JsonValue traced_batch(obs::Trace& trace) {
  const BuiltinBenchmark* b = find_builtin("mac_reduce");
  std::vector<FlowRequest> reqs;
  for (const char* script : {"lt", "gt2; gt5; lt", "gt1; gt2; gt4; gt2; gt5; lt"})
    reqs.push_back(make_builtin_request(*b, script));
  ThreadPool pool(4);
  FlowExecutor::Options opts;
  opts.tracer = &trace;
  FlowExecutor exec(&pool, opts);
  auto points = exec.run_all(reqs);
  for (const auto& p : points) EXPECT_TRUE(p.ok) << p.script << ": " << p.error;
  return chrome_trace(trace);
}

TEST(ChromeTrace, WellFormedWithBalancedSpansPerTrack) {
  obs::Trace trace(0);
  JsonValue doc = traced_batch(trace);
  ASSERT_TRUE(doc.is_object());
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.array.empty());

  std::map<int, std::uint64_t> last_ts;  // tid -> last timestamp
  std::set<std::uint64_t> span_ids, parents;
  for (const JsonValue& ev : events.array) {
    ASSERT_TRUE(ev.is_object());
    EXPECT_TRUE(ev.at("name").is_string());
    EXPECT_TRUE(ev.at("pid").is_number());
    const std::string& ph = ev.at("ph").string;
    if (ph == "M") continue;
    int tid = static_cast<int>(ev.at("tid").number);
    auto ts = static_cast<std::uint64_t>(ev.at("ts").number);
    EXPECT_GE(ts, last_ts[tid]) << "time moved backwards on track " << tid;
    last_ts[tid] = ts;
    if (ph == "X") {
      // Only finished spans are exported, each with a duration.
      EXPECT_GT(ev.at("dur").number, 0);
      span_ids.insert(static_cast<std::uint64_t>(ev.at("args").at("span_id").number));
      parents.insert(static_cast<std::uint64_t>(ev.at("args").at("parent_span_id").number));
    } else {
      EXPECT_TRUE(ph == "C" || ph == "i") << "unexpected phase " << ph;
    }
  }
  EXPECT_EQ(span_ids.size(), trace.spans().size()) << "an open span was exported";
  for (std::uint64_t parent : parents)
    EXPECT_TRUE(parent == 0 || span_ids.count(parent)) << "dangling parent " << parent;
}

TEST(ChromeTrace, StageSpansCarryCacheDisposition) {
  obs::Trace trace(0);
  JsonValue doc = traced_batch(trace);
  std::map<std::string, int> cache_args;  // "hit"/"miss" -> count
  std::map<std::string, int> span_names;
  for (const JsonValue& ev : doc.at("traceEvents").array) {
    if (ev.at("ph").string != "X") continue;
    ++span_names[ev.at("name").string];
    if (const JsonValue* cache = ev.at("args").find("cache")) ++cache_args[cache->string];
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
  obs::Trace trace(0);
  JsonValue doc = traced_batch(trace);
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

CacheArgs cache_args_by_name(const obs::Trace& trace) {
  CacheArgs out;
  for (const obs::TraceSpanRecord& span : trace.spans()) {
    std::string cache;
    for (const auto& [k, v] : span.args)
      if (k == "cache") cache = v;
    out[span.name].insert(cache);
  }
  return out;
}

TEST(TelemetrySpine, EveryTimingsRowReachesEverySink) {
  obs::Trace process(0);
  FlowExecutor::Options opts;
  opts.tracer = &process;
  FlowExecutor exec(nullptr, opts);
  auto job = std::make_shared<obs::Trace>(1);
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

  const CacheArgs per_process = cache_args_by_name(process);
  const CacheArgs per_job = cache_args_by_name(*job);
  for (const auto& [name, count] : rows) {
    EXPECT_EQ(per_process.at(name).size(), count) << name;
    EXPECT_EQ(per_process.at(name), per_job.at(name)) << name;
    EXPECT_EQ(exec.metrics().histogram("stage." + name).snapshot().count, count) << name;
  }
  EXPECT_EQ(per_process.at("frontend"), (std::multiset<std::string>{"hit", "miss"}));

  // The process trace is a connected tree too: every parent resolves.
  std::set<std::uint64_t> ids;
  for (const obs::TraceSpanRecord& span : process.spans()) ids.insert(span.id);
  for (const obs::TraceSpanRecord& span : process.spans())
    EXPECT_TRUE(span.parent == 0 || ids.count(span.parent))
        << span.name << " dangles under " << span.parent;
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
