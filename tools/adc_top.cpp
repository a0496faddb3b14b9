// adc_top — live terminal dashboard over a running adc_serve daemon.
//
// Polls the `metrics` protocol op (the same registry `/metrics` exposes,
// as JSON) and renders a refreshing one-screen summary: job throughput,
// per-class queue depths and windowed latency quantiles, cache and disk
// tier occupancy, the cover-memo hit ratio, the live Pareto frontier over
// (control area x cycle time), and the current backpressure hint.
//
//   adc_top --socket /tmp/adc.sock
//   adc_top --connect 127.0.0.1:7788 --interval 500
//   adc_top --socket /tmp/adc.sock --once        # one frame, no ANSI (CI)
//
// Options:
//   --socket PATH        connect to a Unix-domain socket
//   --connect HOST:PORT  connect over TCP
//   --interval MS        refresh period (default 1000)
//   --once               print a single frame and exit (no screen clearing)
//   --help
//
// Exit codes: 0 on a clean run (--once or Ctrl-C), 1 on transport errors.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "report/json.hpp"
#include "report/json_parse.hpp"
#include "serve/client.hpp"

#include "cli_args.hpp"

using namespace adc;
using serve::ServeClient;

namespace {

constexpr char kTool[] = "adc_top";

int usage(int code) {
  std::fprintf(code ? stderr : stdout,
               "usage: adc_top (--socket PATH | --connect HOST:PORT) "
               "[--interval MS] [--once]\n");
  return code;
}

// Locates one series in an obs registry JSON array ("counters"/"gauges"/
// "histograms") by family name and an optional single label match.
const JsonValue* find_series(const JsonValue* arr, const std::string& name,
                             const char* label_key = nullptr,
                             const char* label_val = nullptr) {
  if (!arr || !arr->is_array()) return nullptr;
  for (const JsonValue& s : arr->array) {
    const JsonValue* n = s.find("name");
    if (!n || !n->is_string() || n->string != name) continue;
    if (!label_key) return &s;
    const JsonValue* labels = s.find("labels");
    const JsonValue* v = labels ? labels->find(label_key) : nullptr;
    if (v && v->is_string() && v->string == label_val) return &s;
  }
  return nullptr;
}

double number_of(const JsonValue* series, const char* key) {
  if (!series) return 0;
  const JsonValue* v = series->find(key);
  return v && v->is_number() ? v->number : 0;
}

// Member `key` of `obj` as a count; 0 when absent or no uint64.
std::uint64_t uint_of(const JsonValue* obj, const char* key) {
  const JsonValue* v = obj ? obj->find(key) : nullptr;
  return v ? json_integer<std::uint64_t>(*v).value_or(0) : 0;
}

void render(const JsonValue& reply, const std::string& endpoint) {
  const JsonValue* obs = reply.find("obs");
  const JsonValue* counters = obs ? obs->find("counters") : nullptr;
  const JsonValue* gauges = obs ? obs->find("gauges") : nullptr;
  const JsonValue* hists = obs ? obs->find("histograms") : nullptr;

  const JsonValue* state = reply.find("state");
  const JsonValue* jobs = reply.find("jobs");
  const std::uint64_t uptime_ms = uint_of(&reply, "uptime_ms");

  std::printf("adc_top — %s — %s — up %" PRIu64 ".%03" PRIu64 "s\n",
              endpoint.c_str(),
              state && state->is_string() ? state->string.c_str() : "?",
              uptime_ms / 1000, uptime_ms % 1000);
  std::printf(
      "jobs   submitted %-8" PRIu64 " completed %-8" PRIu64
      " cancelled %-6" PRIu64 " rejected %-6" PRIu64 "\n",
      uint_of(jobs, "submitted"), uint_of(jobs, "completed"),
      uint_of(jobs, "cancelled"), uint_of(jobs, "rejected"));
  std::printf(
      "now    running %-8" PRIu64 " queued %-8" PRIu64
      " retry_after %.0f ms   service ewma %.1f ms\n",
      uint_of(jobs, "running"), uint_of(jobs, "queued"),
      number_of(find_series(gauges, "serve.retry_after_ms"), "value"),
      number_of(find_series(gauges, "serve.service_ewma_ms"), "value"));

  std::printf("\n%-8s %12s %12s | %-28s | %-28s\n", "class", "queue depth",
              "completed", "queue-wait p50/p95/p99 (us, 60s)",
              "service p50/p95/p99 (us, 60s)");
  for (const char* cls : {"high", "normal", "low"}) {
    const JsonValue* qw = find_series(hists, "serve.queue.wait_us", "class", cls);
    const JsonValue* sv = find_series(hists, "serve.service_us", "class", cls);
    std::printf(
        "%-8s %12" PRIu64 " %12" PRIu64 " | %8" PRIu64 " %8" PRIu64 " %8" PRIu64
        "   | %8" PRIu64 " %8" PRIu64 " %8" PRIu64 "\n",
        cls,
        uint_of(find_series(gauges, "serve.queue.depth", "class", cls), "value"),
        uint_of(find_series(counters, "serve.completions", "class", cls), "value"),
        uint_of(qw, "window_p50_us"), uint_of(qw, "window_p95_us"),
        uint_of(qw, "window_p99_us"), uint_of(sv, "window_p50_us"),
        uint_of(sv, "window_p95_us"), uint_of(sv, "window_p99_us"));
  }

  std::printf(
      "\ncache  entries %-7" PRIu64 " bytes %-10" PRIu64 " hit ratio %.3f\n",
      uint_of(find_series(gauges, "serve.cache.entries"), "value"),
      uint_of(find_series(gauges, "serve.cache.bytes"), "value"),
      number_of(find_series(gauges, "serve.cache.hit_ratio"), "value"));
  std::printf(
      "disk   hits %-9" PRIu64 " misses %-8" PRIu64 " stores %-8" PRIu64
      " bytes %-10" PRIu64 "\n",
      uint_of(find_series(gauges, "serve.disk.hits"), "value"),
      uint_of(find_series(gauges, "serve.disk.misses"), "value"),
      uint_of(find_series(gauges, "serve.disk.stores"), "value"),
      uint_of(find_series(gauges, "serve.disk.bytes"), "value"));
  std::printf(
      "flow   timeouts %-6" PRIu64 " faults %-8" PRIu64 " deadlocks %-6" PRIu64
      " bad requests %-6" PRIu64 "\n",
      uint_of(find_series(gauges, "serve.flow.timeouts"), "value"),
      uint_of(find_series(gauges, "serve.flow.faults"), "value"),
      uint_of(find_series(gauges, "serve.flow.deadlocks"), "value"),
      uint_of(find_series(counters, "serve.bad_requests"), "value"));
  const std::uint64_t memo_hits =
      uint_of(find_series(gauges, "logic.memo.hits"), "value");
  const std::uint64_t memo_lookups =
      memo_hits + uint_of(find_series(gauges, "logic.memo.misses"), "value");
  std::printf(
      "memo   hits %-9" PRIu64 " entries %-7" PRIu64 " hit ratio %.3f\n",
      memo_hits, uint_of(find_series(gauges, "logic.memo.entries"), "value"),
      memo_lookups ? static_cast<double>(memo_hits) /
                         static_cast<double>(memo_lookups)
                   : 0.0);
  std::printf(
      "pareto points %-8" PRIu64 " frontier %-6" PRIu64 " dominated %-6" PRIu64
      " best cycle %-6" PRIu64 " best area %-6" PRIu64 "\n",
      uint_of(find_series(gauges, "analysis.points"), "value"),
      uint_of(find_series(gauges, "analysis.frontier_size"), "value"),
      uint_of(find_series(gauges, "analysis.dominated"), "value"),
      uint_of(find_series(gauges, "analysis.best_cycle_time"), "value"),
      uint_of(find_series(gauges, "analysis.best_area_transistors"), "value"));
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, connect_spec;
  std::pair<std::string, std::uint16_t> endpoint;  // --connect
  int interval_ms = 1000;
  bool once = false;

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
    else if (arg == "--socket") socket_path = next();
    else if (arg == "--connect") endpoint = cli::host_port(kTool, arg, connect_spec = next());
    else if (arg == "--interval") cli::set_number(interval_ms, kTool, arg, next());
    else if (arg == "--once") once = true;
    else return usage(2);
  }
  if (socket_path.empty() == connect_spec.empty()) {
    std::fprintf(stderr, "adc_top: need exactly one of --socket / --connect\n");
    return usage(2);
  }
  if (interval_ms < 50) interval_ms = 50;

  try {
    ServeClient client = [&] {
      if (!socket_path.empty()) return ServeClient::connect_unix(socket_path);
      return ServeClient::connect_tcp(endpoint.first, endpoint.second);
    }();
    const std::string endpoint =
        socket_path.empty() ? connect_spec : socket_path;

    for (;;) {
      JsonValue reply = client.request("{\"op\":\"metrics\"}");
      const JsonValue* ok = reply.find("ok");
      if (!ok || !ok->boolean)
        throw std::runtime_error("metrics op failed: " + to_json(reply));
      if (!once) std::printf("\033[H\033[2J");  // home + clear
      render(reply, endpoint);
      std::fflush(stdout);
      if (once) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adc_top: %s\n", e.what());
    return 1;
  }
}
