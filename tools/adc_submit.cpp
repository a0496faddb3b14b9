// adc_submit — client for the adc_serve daemon.
//
// Submits synthesis jobs over the length-prefixed JSON protocol, waits
// for the results and reports them with the same table/JSON/exit-code
// conventions as adc_dse — so scripts can point either tool at the same
// grid and diff the output.
//
//   adc_submit --socket /tmp/adc.sock --bench diffeq --grid gt
//   adc_submit --connect 127.0.0.1:7788 --recipes "gt1; lt | gt2; lt"
//   adc_submit --socket /tmp/adc.sock --stats
//   adc_submit --socket /tmp/adc.sock --shutdown
//
// Options:
//   --socket PATH           connect to a Unix-domain socket
//   --connect HOST:PORT     connect over TCP
//   --bench NAME[,NAME...]  builtin benchmarks (default diffeq)
//   --recipes "S1 | S2"     explicit recipe list ('|'-separated)
//   --grid gt|gt-nolt       the 32-recipe GT ablation grid
//   --priority P            high|normal|low (default normal)
//   --deadline-ms N         per-job deadline (server may cap it)
//   --seed N                event-sim seed
//   --no-sim                skip event simulation
//   --client NAME           client name attached to the server's access log
//   --json FILE             machine-readable report ('-' = stdout)
//   --trace-out FILE        fetch every job's span tree from the daemon
//                           (the `trace` op) and write one merged
//                           Perfetto-loadable Chrome trace_event document
//   --stats                 print the server's stats document and exit
//   --metrics               print the server's live metrics document and exit
//   --ping                  connectivity check (exit 0 on a pong)
//   --cancel ID             cancel one job and exit
//   --shutdown              ask the server to drain and exit
//   --no-drain              with --shutdown: cancel instead of draining
//   --log-level LEVEL       error|warn|info|debug|trace
//   --help
//
// Exit codes mirror adc_dse (worst job outcome wins): 0 ok, 4 deadlock,
// 5 timeout/cancelled, 6 fault/error, 2 usage, 1 transport/internal.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "report/json.hpp"
#include "report/json_parse.hpp"
#include "report/table.hpp"
#include "runtime/flow.hpp"
#include "serve/client.hpp"
#include "trace/log.hpp"

#include "cli_args.hpp"

using namespace adc;
using serve::ServeClient;

namespace {

constexpr char kTool[] = "adc_submit";

int usage(int code) {
  std::fprintf(code ? stderr : stdout,
               "usage: adc_submit (--socket PATH | --connect HOST:PORT) "
               "[--bench NAMES] [--recipes \"S1 | S2\"] [--grid gt|gt-nolt] "
               "[--priority high|normal|low] [--deadline-ms N] [--seed N] "
               "[--no-sim] [--client NAME] [--json FILE] [--trace-out FILE] "
               "[--stats | --metrics | --ping | --cancel ID | --shutdown "
               "[--no-drain]] [--log-level LEVEL]\n"
               "\n"
               "exit codes (worst job outcome wins):\n"
               "  0  every job completed ok\n"
               "  1  transport or internal error\n"
               "  2  usage error\n"
               "  6  a job failed (fault or synthesis error)\n"
               "  5  a job timed out or was cancelled\n"
               "  4  a job's event simulation deadlocked\n");
  return code;
}

std::string member_string(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  return m && m->is_string() ? m->string : std::string();
}

std::int64_t member_int(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  return m ? json_integer<std::int64_t>(*m).value_or(0) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, connect_spec, grid, json_path, trace_path, client_name;
  std::vector<std::string> bench_names, recipes;
  std::string priority = "normal";
  std::uint64_t deadline_ms = 0, seed = 1;
  bool simulate = true, do_stats = false, do_metrics = false, do_ping = false,
       do_shutdown = false;
  bool drain = true;
  std::int64_t cancel_id = -1;
  std::pair<std::string, std::uint16_t> endpoint;  // --connect

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
    else if (arg == "--bench") for (auto& n : cli::split(next(), ',')) bench_names.push_back(n);
    else if (arg == "--recipes") for (auto& r : cli::split(next(), '|')) recipes.push_back(r);
    else if (arg == "--grid") grid = next();
    else if (arg == "--priority") priority = next();
    else if (arg == "--deadline-ms") cli::set_number(deadline_ms, kTool, arg, next());
    else if (arg == "--seed") cli::set_number(seed, kTool, arg, next());
    else if (arg == "--no-sim") simulate = false;
    else if (arg == "--client") client_name = next();
    else if (arg == "--json") json_path = next();
    else if (arg == "--trace-out") trace_path = next();
    else if (arg == "--stats") do_stats = true;
    else if (arg == "--metrics") do_metrics = true;
    else if (arg == "--ping") do_ping = true;
    else if (arg == "--cancel") cli::set_number(cancel_id, kTool, arg, next(), 0);
    else if (arg == "--shutdown") do_shutdown = true;
    else if (arg == "--no-drain") drain = false;
    else if (arg == "--log-level") {
      try {
        set_log_level(log_level_from_string(next()));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "adc_submit: %s\n", e.what());
        return 2;
      }
    }
    else return usage(2);
  }
  if (socket_path.empty() == connect_spec.empty()) {
    std::fprintf(stderr, "adc_submit: need exactly one of --socket / --connect\n");
    return usage(2);
  }

  try {
    ServeClient client = [&] {
      if (!socket_path.empty()) return ServeClient::connect_unix(socket_path);
      return ServeClient::connect_tcp(endpoint.first, endpoint.second);
    }();

    // Control-plane one-shots.
    if (do_ping) {
      JsonValue reply = client.request("{\"op\":\"ping\"}");
      bool ok = reply.find("ok") && reply.find("ok")->boolean;
      std::fprintf(stderr, "adc_submit: %s\n", ok ? "pong" : "ping failed");
      return ok ? 0 : 1;
    }
    if (do_stats) {
      JsonValue reply = client.request("{\"op\":\"stats\"}");
      std::printf("%s\n", to_json(reply, true).c_str());
      return reply.find("ok") && reply.find("ok")->boolean ? 0 : 1;
    }
    if (do_metrics) {
      JsonValue reply = client.request("{\"op\":\"metrics\"}");
      std::printf("%s\n", to_json(reply, true).c_str());
      return reply.find("ok") && reply.find("ok")->boolean ? 0 : 1;
    }
    if (cancel_id >= 0) {
      JsonWriter w;
      w.begin_object();
      w.kv("op", "cancel");
      w.kv("id", static_cast<std::uint64_t>(cancel_id));
      w.end_object();
      JsonValue reply = client.request(w.str());
      std::printf("%s\n", to_json(reply).c_str());
      return reply.find("ok") && reply.find("ok")->boolean ? 0 : 1;
    }
    if (do_shutdown) {
      JsonWriter w;
      w.begin_object();
      w.kv("op", "shutdown");
      w.kv("drain", drain);
      w.end_object();
      JsonValue reply = client.request(w.str());
      std::printf("%s\n", to_json(reply).c_str());
      return reply.find("ok") && reply.find("ok")->boolean ? 0 : 1;
    }

    // Job plane: assemble the recipe grid, submit everything, then wait.
    // The grid is adc_dse's, so both tools address the same cache entries.
    if (!grid.empty()) {
      if (grid != "gt" && grid != "gt-nolt")
        throw std::invalid_argument("unknown grid '" + grid + "'");
      for (auto& s : gt_ablation_grid(grid == "gt")) recipes.push_back(s);
    }
    if (recipes.empty()) recipes = {"", gt_ablation_grid(false).back(), kPaperRecipe};
    if (bench_names.empty()) bench_names.push_back("diffeq");

    struct Submitted {
      std::uint64_t id;
      std::string bench, script;
    };
    std::vector<Submitted> jobs;
    for (const auto& bench : bench_names) {
      for (const auto& recipe : recipes) {
        JsonWriter w;
        w.begin_object();
        w.kv("op", "submit");
        w.kv("bench", bench);
        w.kv("script", recipe);
        w.kv("priority", priority);
        w.kv("simulate", simulate);
        w.kv("seed", seed);
        if (!client_name.empty()) w.kv("client", client_name);
        if (deadline_ms > 0) w.kv("deadline_ms", deadline_ms);
        w.end_object();
        jobs.push_back({client.submit(w.str()), bench, recipe});
      }
    }

    // A reply without a known status counts as an error.
    std::vector<JsonValue> points;
    std::vector<FlowStatus> statuses;
    points.reserve(jobs.size());
    for (const auto& job : jobs) {
      points.push_back(client.wait_result(job.id));
      statuses.push_back(parse_flow_status(member_string(points.back(), "status"))
                             .value_or(FlowStatus::kError));
    }
    auto count = [&](FlowStatus s) {
      return static_cast<std::size_t>(std::count(statuses.begin(), statuses.end(), s));
    };

    // Every job is terminal, so its span tree is complete: fetch each one
    // from the daemon and merge the event lists into a single document —
    // one Perfetto process per job (pid = job id).
    if (!trace_path.empty()) {
      JsonWriter w;
      w.begin_object();
      w.kv("displayTimeUnit", "ms");
      w.key("traceEvents");
      w.begin_array();
      std::size_t fetched = 0;
      for (const auto& job : jobs) {
        JsonWriter rq;
        rq.begin_object();
        rq.kv("op", "trace");
        rq.kv("id", job.id);
        rq.end_object();
        JsonValue reply = client.request(rq.str());
        const JsonValue* ok = reply.find("ok");
        const JsonValue* trace = reply.find("trace");
        const JsonValue* events = trace ? trace->find("traceEvents") : nullptr;
        if (!ok || !ok->boolean || !events || !events->is_array()) {
          std::fprintf(stderr, "adc_submit: no trace for job %llu\n",
                       static_cast<unsigned long long>(job.id));
          continue;
        }
        for (const JsonValue& ev : events->array) write_json_value(w, ev);
        ++fetched;
      }
      w.end_array();
      w.end_object();
      std::ofstream out(trace_path);
      out << w.str() << "\n";
      if (!out) throw std::runtime_error("cannot write " + trace_path);
      std::fprintf(stderr, "adc_submit: wrote %s (%zu job traces)\n",
                   trace_path.c_str(), fetched);
    }

    if (json_path.empty()) {
      Table t({"id", "benchmark", "script", "channels", "latency", "status",
               "disk"});
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JsonValue& p = points[i];
        const JsonValue* disk = p.find("from_disk_cache");
        t.add_row({std::to_string(jobs[i].id), jobs[i].bench,
                   jobs[i].script.empty() ? "(none)" : jobs[i].script,
                   std::to_string(member_int(p, "channels")),
                   std::to_string(member_int(p, "latency")),
                   member_string(p, "status"),
                   disk && disk->is_bool() && disk->boolean ? "warm" : "-"});
      }
      std::printf("%s", t.to_string().c_str());
      std::printf("\n%zu jobs: %zu ok, %zu deadlock, %zu timeout/cancelled, "
                  "%zu failed\n",
                  jobs.size(), count(FlowStatus::kOk), count(FlowStatus::kDeadlock),
                  count(FlowStatus::kTimeout) + count(FlowStatus::kCancelled),
                  count(FlowStatus::kFault) + count(FlowStatus::kError));
    } else {
      JsonWriter w(true);
      w.begin_object();
      w.kv("tool", "adc_submit");
      w.kv("jobs", static_cast<std::uint64_t>(jobs.size()));
      w.key("points");
      w.begin_array();
      for (const JsonValue& p : points) write_json_value(w, p);
      w.end_array();
      w.end_object();
      if (json_path == "-") {
        std::printf("%s\n", w.str().c_str());
      } else {
        std::ofstream out(json_path);
        out << w.str() << "\n";
        if (!out) throw std::runtime_error("cannot write " + json_path);
        std::fprintf(stderr, "adc_submit: wrote %s (%zu points)\n",
                     json_path.c_str(), jobs.size());
      }
    }

    return batch_exit_code(statuses);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adc_submit: %s\n", e.what());
    return 1;
  }
}
