// The observability layer in isolation: the metrics registry (unlabeled
// and labeled series), its sliding-window histograms and the one quantile
// rule both of their quantile kinds use, Prometheus text rendering
// and the validator that re-parses it, the strict HTTP request-line
// parser against a truncation/poison corpus, the real loopback /metrics
// listener, JSONL access-log append/rotate/validate, and per-job trace
// trees exported as Chrome trace_event JSON.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <thread>

#include "obs/access_log.hpp"
#include "obs/http.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/trace_context.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"

using namespace adc;
using namespace adc::obs;

namespace {

std::string temp_path(const char* stem) {
  static std::atomic<int> counter{0};
  return "/tmp/adc_test_obs_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + "_" + stem;
}

// --- registry ---------------------------------------------------------------

TEST(ObsRegistry, SameSeriesIsSameInstrument) {
  Registry r;
  Counter& a = r.counter("req", {{"class", "high"}});
  Counter& b = r.counter("req", {{"class", "high"}});
  Counter& c = r.counter("req", {{"class", "low"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsRegistry, HelpKeptFromFirstRegistration) {
  Registry r;
  r.counter("req", {{"class", "high"}}, "requests by class");
  r.counter("req", {{"class", "low"}}, "a different string, ignored");
  Registry::Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.help.count("req"), 1u);
  EXPECT_EQ(snap.help.at("req"), "requests by class");
}

TEST(ObsRegistry, GaugeScaledMode) {
  Registry r;
  Gauge& g = r.gauge("ewma_ms");
  g.set(std::int64_t{42});
  EXPECT_FALSE(g.scaled());
  EXPECT_EQ(g.value(), 42);
  g.set(1.5);  // switches to fixed-point millis
  EXPECT_TRUE(g.scaled());
  EXPECT_DOUBLE_EQ(g.value_scaled(), 1.5);
}

TEST(ObsRegistry, SnapshotIsSortedAndComplete) {
  Registry r;
  r.counter("b.count").add(1);
  r.counter("a.count").add(2);
  r.gauge("depth", {{"class", "normal"}}).set(std::int64_t{7});
  r.histogram("wait_us").record_micros(100);

  Registry::Snapshot snap = r.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  // Map-ordered: deterministic output independent of registration order.
  EXPECT_EQ(snap.counters[0].name, "a.count");
  EXPECT_EQ(snap.counters[1].name, "b.count");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].labels,
            (Labels{{"class", "normal"}}));
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].hist.count, 1u);

  std::vector<std::string> fams = r.family_names();
  EXPECT_EQ(fams, (std::vector<std::string>{"a.count", "b.count", "depth",
                                            "wait_us"}));
}

TEST(ObsRegistry, WriteJsonShape) {
  Registry r;
  r.counter("req", {{"class", "high"}}).add(4);
  r.gauge("ratio").set(0.25);
  r.histogram("svc_us").record_micros(50);

  JsonWriter w;
  r.write_json(w);
  JsonValue v = parse_json(w.str());
  const JsonValue* counters = v.find("counters");
  ASSERT_TRUE(counters && counters->is_array());
  ASSERT_EQ(counters->array.size(), 1u);
  EXPECT_EQ(counters->array[0].at("name").string, "req");
  EXPECT_EQ(counters->array[0].at("labels").at("class").string, "high");
  EXPECT_EQ(counters->array[0].at("value").number, 4);
  EXPECT_DOUBLE_EQ(v.find("gauges")->array[0].at("value").number, 0.25);
  const JsonValue& h = v.find("histograms")->array[0];
  EXPECT_EQ(h.at("count").number, 1);
  EXPECT_EQ(h.at("sum_us").number, 50);
  ASSERT_NE(h.find("window_p99_us"), nullptr);
}

TEST(ObsGauge, SetOverwritesAndIsSigned) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(std::int64_t{10});
  g.set(std::int64_t{13});
  EXPECT_EQ(g.value(), 13);
  g.set(std::int64_t{-7});
  EXPECT_EQ(g.value(), -7) << "gauges are signed";
}

TEST(MetricsRegistry, NamesAreStableAndShared) {
  Registry reg;
  reg.counter("a").add(2);
  reg.counter("a").add(3);
  reg.gauge("q").set(std::int64_t{4});
  EXPECT_EQ(reg.counter("a").value(), 5u);
  EXPECT_EQ(reg.gauge("q").value(), 4);
  reg.gauge("q").set(std::int64_t{-7});
  EXPECT_EQ(reg.gauge("q").value(), -7) << "gauges are signed";

  reg.update_gauges({{"q", 1}, {"disk.hits", 2}});
  Registry::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].name, "disk.hits");
  EXPECT_EQ(snap.gauges[0].value, 2);
  EXPECT_EQ(snap.gauges[1].value, 1);
}

TEST(ObsRegistry, WriteJsonCarriesLifetimeQuantiles) {
  Registry reg;
  reg.counter("flow.runs").add(3);
  reg.gauge("pool.pending").set(std::int64_t{2});
  for (std::uint64_t i = 1; i <= 100; ++i) reg.histogram("stage.sim").record_micros(i);

  JsonWriter w;
  reg.write_json(w);
  JsonValue doc = parse_json(w.str());
  EXPECT_EQ(doc.at("counters").array.at(0).at("name").string, "flow.runs");
  EXPECT_EQ(doc.at("counters").array.at(0).at("value").number, 3.0);
  EXPECT_EQ(doc.at("gauges").array.at(0).at("value").number, 2.0);
  const JsonValue& h = doc.at("histograms").array.at(0);
  EXPECT_EQ(h.at("name").string, "stage.sim");
  EXPECT_EQ(h.at("count").number, 100.0);
  for (const char* key : {"p50_us", "p90_us", "p99_us", "sum_us", "max_us"})
    EXPECT_TRUE(h.find(key)) << key;
  EXPECT_LE(h.at("p50_us").number, h.at("p99_us").number);
  EXPECT_EQ(h.at("max_us").number, 100.0);
  // Fresh samples: the window and the lifetime agree.
  EXPECT_EQ(h.at("p50_us").number, h.at("window_p50_us").number);
}

// --- the one quantile rule --------------------------------------------------

// Lifetime q-quantile of `samples`, through histogram_quantile_micros.
std::uint64_t quantile_of(const std::vector<std::uint64_t>& samples, double q) {
  SlidingHistogram h;
  for (std::uint64_t v : samples) h.record_micros(v);
  SlidingHistogram::Snapshot s = h.snapshot();
  return histogram_quantile_micros(s.buckets, s.count, s.max_micros, q);
}

TEST(Histogram, EmptyQuantilesAreZero) {
  EXPECT_EQ(quantile_of({}, 0.0), 0u);
  EXPECT_EQ(quantile_of({}, 0.5), 0u);
  EXPECT_EQ(quantile_of({}, 1.0), 0u);
}

TEST(Histogram, SingleSampleEveryQuantileIsTheSample) {
  // Bucket bounds are powers of two; the recorded maximum caps the answer
  // so a lone 100µs sample never reports as 128µs.
  for (double q : {0.0, 0.5, 0.9, 1.0}) EXPECT_EQ(quantile_of({100}, q), 100u) << q;
}

TEST(Histogram, QOneNeverExceedsTheMaximum) {
  const std::vector<std::uint64_t> samples = {3, 5, 9, 1000, 70000};
  EXPECT_EQ(quantile_of(samples, 1.0), 70000u);
  EXPECT_LE(quantile_of(samples, 0.99), 70000u);
}

TEST(Histogram, OutOfRangeQIsClamped) {
  EXPECT_EQ(quantile_of({10}, -3.0), quantile_of({10}, 0.0));
  EXPECT_EQ(quantile_of({10}, 7.0), quantile_of({10}, 1.0));
}

TEST(Histogram, QuantilesAreOrdered) {
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 1; i <= 1000; ++i) samples.push_back(i);
  std::uint64_t p50 = quantile_of(samples, 0.5);
  std::uint64_t p90 = quantile_of(samples, 0.9);
  std::uint64_t p99 = quantile_of(samples, 0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, 1000u);
  EXPECT_GE(p50, 256u);  // the true median (500) lives in bucket [256,512)
}

TEST(Histogram, NearestRankMedianOfTwoSamples) {
  // Nearest rank: p50 of {1, 1000} is the first sample, reported as its
  // bucket's upper bound — not the second sample.
  EXPECT_EQ(quantile_of({1, 1000}, 0.5), 2u);
  EXPECT_EQ(quantile_of({1, 1000}, 1.0), 1000u);
  // The window quantile goes through the same rule.
  SlidingHistogram h;
  h.record_micros(1);
  h.record_micros(1000);
  EXPECT_EQ(h.snapshot().window_p50_micros, 2u);
}

// --- sliding histogram ------------------------------------------------------

TEST(ObsSlidingHistogram, LifetimeAndWindowAgreeWhenFresh) {
  SlidingHistogram h;
  for (int i = 0; i < 100; ++i) h.record_micros(100);
  SlidingHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum_micros, 10000u);
  EXPECT_EQ(s.max_micros, 100u);
  EXPECT_EQ(s.window_count, 100u);
  // Identical samples: every quantile is the sample value (the
  // power-of-two bucket bound is clamped by the lifetime max).
  EXPECT_EQ(s.window_p50_micros, 100u);
  EXPECT_EQ(s.window_p95_micros, 100u);
  EXPECT_EQ(s.window_p99_micros, 100u);
}

TEST(ObsSlidingHistogram, QuantilesAreMonotone) {
  SlidingHistogram h;
  for (int i = 0; i < 90; ++i) h.record_micros(10);
  for (int i = 0; i < 9; ++i) h.record_micros(1000);
  h.record_micros(100000);
  SlidingHistogram::Snapshot s = h.snapshot();
  EXPECT_LE(s.window_p50_micros, s.window_p95_micros);
  EXPECT_LE(s.window_p95_micros, s.window_p99_micros);
  EXPECT_LE(s.window_p99_micros, s.max_micros);
  EXPECT_LT(s.window_p50_micros, 1000u);   // the bulk sits at 10 us
  EXPECT_GE(s.window_p99_micros, 1000u);   // the tail is visible
}

TEST(ObsSlidingHistogram, WindowExpiresLifetimePersists) {
  SlidingHistogram h;
  h.record_micros(500);
  EXPECT_EQ(h.snapshot().window_count, 1u);

  h.advance_for_test(SlidingHistogram::kSlices *
                         SlidingHistogram::kSliceSeconds +
                     SlidingHistogram::kSliceSeconds);
  SlidingHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.window_count, 0u) << "stale slices leaked into the window";
  EXPECT_EQ(s.window_p95_micros, 0u);
  EXPECT_EQ(s.count, 1u) << "lifetime cumulative data must never expire";
  EXPECT_EQ(s.sum_micros, 500u);

  // New samples land in a fresh slice after the gap.
  h.record_micros(700);
  EXPECT_EQ(h.snapshot().window_count, 1u);
  EXPECT_EQ(h.snapshot().count, 2u);
}

TEST(ObsSlidingHistogram, BucketEdgesCoverAndAgree) {
  // The recorder and the Prometheus renderer must agree on edges.
  EXPECT_EQ(histogram_bucket_index(0), histogram_bucket_index(1));
  for (std::uint64_t v : {1ull, 2ull, 100ull, 4096ull, 1000000ull}) {
    std::size_t i = histogram_bucket_index(v);
    // Buckets are half-open [2^i, 2^(i+1)): below the upper edge, at or
    // above the previous one.
    EXPECT_LE(v, histogram_bucket_upper_micros(i)) << v;
    if (i > 0) {
      EXPECT_GE(v, histogram_bucket_upper_micros(i - 1)) << v;
    }
  }
  // The last bucket swallows anything, so +Inf == _count holds.
  EXPECT_EQ(histogram_bucket_index(~0ull), SlidingHistogram::kBuckets - 1);
}

// --- prometheus rendering ---------------------------------------------------

TEST(ObsPrometheus, NameSanitizeAndLabelEscape) {
  EXPECT_EQ(prom_sanitize_name("serve.queue.wait_us"),
            "adc_serve_queue_wait_us");
  EXPECT_EQ(prom_sanitize_name("a-b c"), "adc_a_b_c");
  EXPECT_EQ(prom_escape_label("plain"), "plain");
  EXPECT_EQ(prom_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(ObsPrometheus, GoldenCounterAndGaugeRender) {
  Registry r;
  r.counter("serve.submissions", {{"class", "high"}}, "jobs accepted").add(3);
  r.counter("serve.submissions", {{"class", "low"}}).add(1);
  r.gauge("serve.running", {}, "1 while serving").set(std::int64_t{1});

  const std::string got = render_prometheus(r.snapshot());
  const std::string want =
      "# HELP adc_serve_submissions_total jobs accepted\n"
      "# TYPE adc_serve_submissions_total counter\n"
      "adc_serve_submissions_total{class=\"high\"} 3\n"
      "adc_serve_submissions_total{class=\"low\"} 1\n"
      "# HELP adc_serve_running 1 while serving\n"
      "# TYPE adc_serve_running gauge\n"
      "adc_serve_running 1\n";
  EXPECT_EQ(got, want);
}

TEST(ObsPrometheus, HistogramRenderIsCoherentAndValidates) {
  Registry r;
  SlidingHistogram& h = r.histogram("svc_us", {{"class", "normal"}}, "svc");
  h.record_micros(3);
  h.record_micros(3);
  h.record_micros(5000);

  const std::string text = render_prometheus(r.snapshot());
  EXPECT_EQ(validate_prometheus_text(text), std::vector<std::string>{});
  // Cumulative buckets end in +Inf == _count.
  EXPECT_NE(text.find("adc_svc_us_bucket{class=\"normal\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("adc_svc_us_count{class=\"normal\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("adc_svc_us_sum{class=\"normal\"} 5006\n"),
            std::string::npos);
  // Windowed quantiles surface as a sibling gauge family.
  EXPECT_NE(text.find("# TYPE adc_svc_us_window gauge"), std::string::npos);
  EXPECT_NE(text.find("adc_svc_us_window{class=\"normal\",quantile=\"0.5\"}"),
            std::string::npos);
}

TEST(ObsPrometheus, ValidatorRejectsBrokenText) {
  // Sample with no TYPE anywhere.
  EXPECT_FALSE(validate_prometheus_text("orphan_metric 1\n").empty());
  // Duplicate series.
  EXPECT_FALSE(validate_prometheus_text("# TYPE m counter\nm 1\nm 2\n")
                   .empty());
  // Non-cumulative histogram buckets.
  EXPECT_FALSE(
      validate_prometheus_text("# TYPE h histogram\n"
                               "h_bucket{le=\"1\"} 5\n"
                               "h_bucket{le=\"2\"} 3\n"
                               "h_bucket{le=\"+Inf\"} 5\n"
                               "h_sum 9\nh_count 5\n")
          .empty());
  // +Inf bucket disagreeing with _count.
  EXPECT_FALSE(
      validate_prometheus_text("# TYPE h histogram\n"
                               "h_bucket{le=\"+Inf\"} 4\n"
                               "h_sum 9\nh_count 5\n")
          .empty());
  // Unterminated label block, bad escape, missing value.
  for (const char* bad :
       {"# TYPE m counter\nm{k=\"v\" 1\n", "# TYPE m counter\nm{k=\"\\x\"} 1\n",
        "# TYPE m counter\nm\n", "# TYPE m counter\nm{9bad=\"v\"} 1\n"}) {
    EXPECT_FALSE(validate_prometheus_text(bad).empty()) << bad;
  }
  // The empty body is trivially valid (a daemon with nothing registered).
  EXPECT_TRUE(validate_prometheus_text("").empty());
}

// --- http request-line parser (fuzz corpus) ---------------------------------

TEST(ObsHttp, ParsesWellFormedRequestLines) {
  HttpRequestLine r = parse_http_request_line("GET /metrics HTTP/1.1");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.method, "GET");
  EXPECT_EQ(r.target, "/metrics");
  EXPECT_EQ(r.version, "HTTP/1.1");

  r = parse_http_request_line("GET / HTTP/1.0");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.target, "/");

  // Other token methods parse; the listener answers 405 on its own.
  EXPECT_TRUE(parse_http_request_line("POST /metrics HTTP/1.1").ok);
}

TEST(ObsHttp, TruncatedAndPoisonRequestLinesAreRejected) {
  const char* corpus[] = {
      "",                                // empty
      "GET",                             // method only
      "GET ",                            // truncated after SP
      "GET /metrics",                    // version missing
      "GET /metrics ",                   // trailing SP, empty version
      "GET  /metrics HTTP/1.1",          // double space
      "GET /metrics HTTP/1.1 extra",     // trailing garbage
      " GET /metrics HTTP/1.1",          // leading space
      "GET metrics HTTP/1.1",            // target not origin-form
      "GET http://x/metrics HTTP/1.1",   // absolute-form target
      "GET /metrics HTTP/2.0",           // unknown version
      "GET /metrics HTTQ/1.1",           // mangled protocol
      "G\x01T /metrics HTTP/1.1",        // control byte in method
      "GET /met\trics HTTP/1.1",         // tab inside target
      "\r\nGET /metrics HTTP/1.1",       // stray CRLF prefix
      "GET /metrics\x00junk HTTP/1.1",   // embedded NUL (truncates)
  };
  for (const char* line : corpus) {
    HttpRequestLine r = parse_http_request_line(line);
    EXPECT_FALSE(r.ok) << "accepted: [" << line << "]";
    EXPECT_FALSE(r.error.empty());
  }
  // A megabyte of junk must fail cleanly, not hang or allocate wildly.
  EXPECT_FALSE(parse_http_request_line(std::string(1 << 20, 'A')).ok);
}

TEST(ObsHttp, LoopbackServerServesGetAndSurvivesGarbage) {
  MetricsHttpServer server;
  std::string error;
  ASSERT_TRUE(server.start(
      "127.0.0.1", 0,
      [](const std::string& path, std::string* type, std::string* body) {
        if (path != "/metrics") return false;
        *type = "text/plain; version=0.0.4; charset=utf-8";
        *body = "# TYPE up gauge\nup 1\n";
        return true;
      },
      &error))
      << error;
  ASSERT_GT(server.port(), 0);

  int status = 0;
  std::string body;
  ASSERT_TRUE(
      obs::http_get("127.0.0.1", server.port(), "/metrics", 2000, &status,
                    &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "# TYPE up gauge\nup 1\n");

  ASSERT_TRUE(obs::http_get("127.0.0.1", server.port(), "/nope", 2000,
                            &status, &body, &error))
      << error;
  EXPECT_EQ(status, 404);

  // Raw garbage on the socket: the listener must answer (400) or hang up,
  // and keep serving afterwards either way.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char junk[] = "\x00\xff garbage \r\n\r\n";
  [[maybe_unused]] ssize_t n = ::write(fd, junk, sizeof(junk));
  char buf[256];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
  ::close(fd);

  ASSERT_TRUE(obs::http_get("127.0.0.1", server.port(), "/metrics", 2000,
                            &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_GE(server.requests_served(), 3u);
  server.stop();
  EXPECT_FALSE(server.running());
}

// --- access log -------------------------------------------------------------

AccessLogEntry sample_entry(std::uint64_t id) {
  AccessLogEntry e;
  e.event = "done";
  e.id = id;
  e.trace_id = "0123456789abcdef";
  e.priority = "normal";
  e.client = "test";
  e.bench = "diffeq";
  e.script = "gt2; lt";
  e.status = "ok";
  e.queue_wait_us = 12;
  e.service_us = 3400;
  e.wall_ms = 4;
  e.result_bytes = 900;
  return e;
}

TEST(ObsAccessLog, AppendedLinesValidate) {
  const std::string path = temp_path("access.jsonl");
  {
    AccessLog log(path, /*max_bytes=*/0);
    ASSERT_TRUE(log.ok());
    log.append(sample_entry(1));
    AccessLogEntry rejected;
    rejected.event = "rejected";
    rejected.priority = "high";
    rejected.bench = "diffeq";
    rejected.script = "lt";
    rejected.status = "busy";
    rejected.retry_after_ms = 125;
    log.append(rejected);
    AccessLogEntry cancelled = sample_entry(2);
    cancelled.event = "cancelled";
    cancelled.status = "cancelled";
    log.append(cancelled);
    EXPECT_EQ(log.lines(), 3u);
  }
  std::uint64_t lines = 0;
  EXPECT_EQ(AccessLog::validate(path, &lines), std::vector<std::string>{});
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

TEST(ObsAccessLog, RotationKeepsTwoGenerations) {
  const std::string path = temp_path("rotate.jsonl");
  AccessLog log(path, /*max_bytes=*/400);
  for (std::uint64_t i = 1; i <= 20; ++i) log.append(sample_entry(i));
  log.flush();

  // Both generations exist, both validate, and no line was torn by the
  // rename.
  std::uint64_t cur = 0, old = 0;
  EXPECT_EQ(AccessLog::validate(path, &cur), std::vector<std::string>{});
  EXPECT_EQ(AccessLog::validate(path + ".1", &old),
            std::vector<std::string>{});
  EXPECT_GT(cur, 0u);
  EXPECT_GT(old, 0u);
  EXPECT_LT(cur + old, 20u + 1u);  // rotation dropped older generations
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(ObsAccessLog, ValidateCatchesGarbage) {
  const std::string path = temp_path("bad.jsonl");
  std::ofstream out(path);
  out << "{\"ts_ms\":1,\"event\":\"done\",\"id\":1}\n";  // missing members
  out << "this is not json\n";
  out << "{\"ts_ms\":2,\"event\":\"exploded\",\"id\":2}\n";  // bad enum
  out.close();
  std::vector<std::string> problems = AccessLog::validate(path);
  EXPECT_GE(problems.size(), 3u);
  // A missing file is a problem, not a crash.
  EXPECT_FALSE(AccessLog::validate(temp_path("nonexistent")).empty());
  std::remove(path.c_str());
}

// --- job traces -------------------------------------------------------------

TEST(ObsJobTrace, SpanTreeAndHexId) {
  JobTrace trace(0x0123456789abcdefull);
  EXPECT_EQ(trace.trace_id_hex(), "0123456789abcdef");

  std::uint64_t root = trace.begin("job", "serve", 0);
  std::uint64_t child = trace.begin("queue.wait", "serve", root);
  trace.annotate(root, "benchmark", "diffeq");
  trace.end(child);
  trace.end(root, {{"status", "ok"}});

  std::vector<TraceSpanRecord> spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_GT(spans[0].end_us, 0u);
  // Ends are clamped past starts so zero-width spans stay visible.
  EXPECT_GT(spans[0].end_us, spans[0].start_us);

  // Closing twice or closing an unknown id is harmless.
  trace.end(root);
  trace.end(999);
}

TEST(ObsJobTrace, ChromeExportShapeAndConnectivity) {
  JobTrace trace(42);
  std::uint64_t root = trace.begin("job", "serve", 0);
  std::uint64_t stage = trace.begin("flow.run", "flow", root);
  std::uint64_t open_span = trace.begin("never.closed", "flow", stage);
  (void)open_span;
  std::thread other([&] { trace.end(trace.begin("controller", "ctl", stage)); });
  other.join();
  trace.end(stage);
  trace.end(root, {{"status", "ok"}});

  JsonWriter w;
  trace.write_chrome_trace(w, /*pid=*/7);
  JsonValue doc = parse_json(w.str());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_TRUE(events && events->is_array());

  std::set<std::uint64_t> span_ids;
  std::vector<const JsonValue*> complete;
  for (const JsonValue& e : events->array) {
    const std::string ph = e.at("ph").string;
    EXPECT_EQ(e.at("pid").number, 7);
    if (ph == "M") {
      EXPECT_EQ(e.find("ts"), nullptr) << "metadata events carry no clock";
      continue;
    }
    ASSERT_EQ(ph, "X");
    EXPECT_GT(e.at("dur").number, 0);
    span_ids.insert(
        static_cast<std::uint64_t>(e.at("args").at("span_id").number));
    complete.push_back(&e);
  }
  // The still-open span is excluded; the cross-thread span made it in.
  ASSERT_EQ(complete.size(), 3u);
  for (const JsonValue* e : complete) {
    std::uint64_t parent = static_cast<std::uint64_t>(
        e->at("args").at("parent_span_id").number);
    EXPECT_TRUE(parent == 0 || span_ids.count(parent))
        << "dangling parent_span_id " << parent;
    EXPECT_EQ(e->at("args").at("trace_id").string, trace.trace_id_hex());
  }
  // Two distinct threads touched the trace: both appear as thread_name
  // metadata rows.
  std::set<double> tids;
  for (const JsonValue& e : events->array)
    if (e.at("ph").string == "M" && e.at("name").string == "thread_name")
      tids.insert(e.at("tid").number);
  EXPECT_GE(tids.size(), 2u);
}

TEST(ObsJobTrace, InertContextCostsNothing) {
  TraceContext empty;
  EXPECT_FALSE(empty.active());
  TraceSpan span(empty, "anything");
  EXPECT_FALSE(span.active());
  span.arg("ignored", std::uint64_t{1});
  // Child contexts of an inert span stay inert.
  EXPECT_FALSE(span.context().active());
}

TEST(ObsJobTrace, TraceSpanRaiiAttachesArgsOnClose) {
  auto trace = std::make_shared<JobTrace>(1);
  TraceContext root_ctx(trace, 0);
  std::uint64_t child_id = 0;
  {
    TraceSpan span(root_ctx, "stage", "flow");
    ASSERT_TRUE(span.active());
    span.arg("k", "v");
    TraceSpan child(span.context(), "inner");
    child_id = child.id();
  }
  std::vector<TraceSpanRecord> spans = trace->spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "stage");
  ASSERT_EQ(spans[0].args.size(), 1u);
  EXPECT_EQ(spans[0].args[0].first, "k");
  EXPECT_GT(spans[0].end_us, 0u);
  EXPECT_EQ(spans[1].id, child_id);
  EXPECT_EQ(spans[1].parent, spans[0].id);
}

}  // namespace
