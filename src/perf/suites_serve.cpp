// The serve.* suites: the adc_serve daemon measured end-to-end through
// its own wire protocol.  Each iteration runs a real server (in-process,
// Unix-domain socket) and real clients on their own threads, so the
// numbers cover framing, queueing, dispatch and result delivery — the
// full client-observed path, not just FlowExecutor::run.
//
//   serve.roundtrip   one warm-cache submit→result round-trip: the
//                     protocol + queue overhead floor
//   serve.saturation  N concurrent clients driving the DIFFEQ GT ablation
//                     grid; counters report client-observed p50/p99 job
//                     latency and aggregate jobs/sec

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "perf/measure.hpp"
#include "perf/suites.hpp"
#include "report/json.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

#include <unistd.h>

namespace adc {
namespace perf {

namespace {

// Per-benchmark socket paths: serve.roundtrip keeps its warm server alive
// for the whole process, so serve.saturation must not contend for the
// same endpoint.
std::string bench_socket_path(const char* which) {
  return "/tmp/adc_serve_bench_" + std::to_string(::getpid()) + "_" + which +
         ".sock";
}

std::string submit_payload(const std::string& script) {
  JsonWriter w;
  w.begin_object();
  w.kv("op", "submit");
  w.kv("bench", "diffeq");
  w.kv("script", script);
  w.kv("simulate", false);
  w.end_object();
  return w.str();
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[idx];
}

serve::ServerOptions bench_server_options(const char* which) {
  serve::ServerOptions o;
  o.unix_socket = bench_socket_path(which);
  o.workers = 2;
  o.queue_capacity = 256;  // above every grid size used here: no rejects,
                           // the suite measures latency, not backpressure
  return o;
}

}  // namespace

void register_serve_suites() {
  BenchRegistry::instance().add(
      {"serve", "serve.roundtrip", [](BenchContext& ctx) {
         // Persistent warm server: after the first iteration every job is
         // a stage-cache hit, so the measured time is protocol + queue +
         // dispatch overhead.
         static const std::shared_ptr<serve::ServeServer> server = [] {
           auto s = std::make_shared<serve::ServeServer>(
               bench_server_options("rt"));
           s->start();
           return s;
         }();
         serve::ServeClient client =
             serve::ServeClient::connect_unix(server->unix_path());
         std::uint64_t id = client.submit(submit_payload(kPaperRecipe));
         JsonValue point = client.wait_result(id);
         const JsonValue* lits = point.find("literals");
         ctx.counters["literals"] = lits ? lits->number : 0.0;
       }});

  BenchRegistry::instance().add(
      {"serve", "serve.saturation", [](BenchContext& ctx) {
         const std::size_t n_clients = ctx.quick ? 2 : 4;
         std::vector<std::string> grid = gt_ablation_grid(true);
         if (ctx.quick) grid.resize(8);

         // Fresh server per iteration: every client resolves the same
         // grid, so cross-client stage-cache sharing is part of what is
         // being measured (as in production), but nothing leaks across
         // iterations.
         serve::ServeServer server(bench_server_options("sat"));
         server.start();

         std::vector<std::vector<double>> latencies(n_clients);
         std::vector<std::thread> clients;
         std::uint64_t t0 = wall_now_micros();
         for (std::size_t c = 0; c < n_clients; ++c) {
           clients.emplace_back([&, c] {
             serve::ServeClient cl =
                 serve::ServeClient::connect_unix(server.unix_path());
             std::vector<std::pair<std::uint64_t, std::uint64_t>> submitted;
             for (const auto& script : grid)
               submitted.push_back(
                   {cl.submit(submit_payload(script)), wall_now_micros()});
             for (auto [id, at] : submitted) {
               cl.wait_result(id);
               latencies[c].push_back(
                   static_cast<double>(wall_now_micros() - at) / 1000.0);
             }
           });
         }
         for (auto& t : clients) t.join();
         double wall_s = static_cast<double>(wall_now_micros() - t0) / 1e6;
         server.request_shutdown(true);
         server.wait();

         std::vector<double> all;
         for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
         ctx.counters["clients"] = static_cast<double>(n_clients);
         ctx.counters["jobs"] = static_cast<double>(all.size());
         ctx.counters["jobs_per_sec"] =
             wall_s > 0.0 ? static_cast<double>(all.size()) / wall_s : 0.0;
         ctx.counters["p50_ms"] = percentile(all, 0.50);
         ctx.counters["p99_ms"] = percentile(all, 0.99);
       }});
}

}  // namespace perf
}  // namespace adc
