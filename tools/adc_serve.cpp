// adc_serve — the synthesis-as-a-service daemon.
//
// Listens on a Unix-domain socket and/or loopback TCP for length-prefixed
// JSON requests (docs/SERVING.md has the protocol grammar) and runs every
// client's synthesis jobs through one shared FlowExecutor: one
// content-addressed stage cache, one work-stealing pool, and — with
// --cache-dir — one crash-safe persistent point cache shared by every
// client and every daemon restart.
//
//   adc_serve --socket /tmp/adc.sock --cache-dir /var/cache/adc
//   adc_serve --port 0 --ready-file ready.json     # ephemeral port, CI
//
// Options:
//   --socket PATH           listen on a Unix-domain socket
//   --port N                listen on loopback TCP (0 = ephemeral port)
//   --host ADDR             TCP bind address (default 127.0.0.1)
//   --workers N             concurrent jobs in flight (default 2)
//   --jobs N                threads in the shared synthesis pool
//                           (default: hardware)
//   --queue-capacity N      bounded job queue; a submit against a full
//                           queue is rejected with a "busy" reply and a
//                           retry_after_ms hint (default 64)
//   --cache-dir DIR         persistent disk-tier point cache shared across
//                           clients and restarts
//   --cache-bytes N         disk-tier LRU size cap (default 256 MiB)
//   --stage-deadline-ms N   per-stage wall budget applied to every job
//   --job-deadline-ms N     default whole-job wall budget
//   --max-job-deadline-ms N cap on client-requested deadlines
//   --max-frame-bytes N     wire frame size limit (default 8 MiB)
//   --metrics-port N        Prometheus text exposition via HTTP GET
//                           /metrics (0 = ephemeral; default off)
//   --metrics-host ADDR     bind address for /metrics (default 127.0.0.1)
//   --access-log FILE       structured JSONL access log, one line per
//                           finished/rejected job (docs/OBSERVABILITY.md)
//   --access-log-max-bytes N  rotate the log past this size (default 64 MiB)
//   --trace-out FILE        Chrome trace_event JSON across all jobs of all
//                           clients (flushed on shutdown and on signals)
//   --ready-file FILE       write {"unix":...,"port":N,"metrics_port":N,
//                           "pid":N} after the listeners are bound
//                           (scripts poll this)
//   --fault SPEC            arm the deterministic fault injector
//   --log-level LEVEL       error|warn|info|debug|trace
//   --help
//
// Shutdown: the `shutdown` op, SIGTERM or SIGINT all trigger a graceful
// drain — accepting stops, queued and running jobs complete, replies are
// delivered, artifacts flush, the cache is left intact on disk.  A second
// signal while draining falls back to flush+re-raise (the pre-daemon
// behavior), so a wedged drain can still be killed.
//
// Exit codes: 0 clean drain, 5 cancelling shutdown aborted jobs, 2 usage,
// 1 internal error.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "report/json.hpp"
#include "runtime/fault.hpp"
#include "serve/server.hpp"
#include "trace/flush.hpp"
#include "trace/log.hpp"

using namespace adc;

namespace {

int usage(int code) {
  std::fprintf(code ? stderr : stdout,
               "usage: adc_serve [--socket PATH] [--port N] [--host ADDR] "
               "[--workers N] [--jobs N] [--queue-capacity N] "
               "[--cache-dir DIR] [--cache-bytes N] "
               "[--stage-deadline-ms N] [--job-deadline-ms N] "
               "[--max-job-deadline-ms N] [--max-frame-bytes N] "
               "[--metrics-port N] [--metrics-host ADDR] "
               "[--access-log FILE] [--access-log-max-bytes N] "
               "[--trace-out FILE] [--ready-file FILE] [--fault SPEC] "
               "[--log-level LEVEL]\n"
               "\n"
               "exit codes:\n"
               "  0  clean draining shutdown\n"
               "  5  cancelling shutdown aborted jobs\n"
               "  2  usage error\n"
               "  1  internal error (bind failure, bad option value, ...)\n");
  return code;
}

// SIGTERM/SIGINT drain path.  The handler may only do async-signal-safe
// work, so it writes one byte onto the server's shutdown pipe; the accept
// loop picks it up and runs the ordinary graceful drain.
int g_shutdown_fd = -1;

void drain_on_signal(int) {
  if (g_shutdown_fd >= 0) {
    [[maybe_unused]] ssize_t n = ::write(g_shutdown_fd, "d", 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions opts;
  std::string trace_path, ready_file, fault_spec;
  std::size_t pool_jobs = std::thread::hardware_concurrency();

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
    else if (arg == "--socket") opts.unix_socket = next();
    else if (arg == "--port") opts.port = std::stoi(next());
    else if (arg == "--host") opts.host = next();
    else if (arg == "--workers") opts.workers = std::stoul(next());
    else if (arg == "--jobs") pool_jobs = std::stoul(next());
    else if (arg == "--queue-capacity") opts.queue_capacity = std::stoul(next());
    else if (arg == "--cache-dir") opts.flow.disk_cache_dir = next();
    else if (arg == "--cache-bytes") opts.flow.disk_cache_bytes = std::stoull(next());
    else if (arg == "--stage-deadline-ms") opts.stage_deadline_ms = std::stoull(next());
    else if (arg == "--job-deadline-ms") opts.default_deadline_ms = std::stoull(next());
    else if (arg == "--max-job-deadline-ms") opts.max_deadline_ms = std::stoull(next());
    else if (arg == "--max-frame-bytes")
      opts.max_frame_bytes = static_cast<std::uint32_t>(std::stoul(next()));
    else if (arg == "--metrics-port") opts.metrics_port = std::stoi(next());
    else if (arg == "--metrics-host") opts.metrics_host = next();
    else if (arg == "--access-log") opts.access_log = next();
    else if (arg == "--access-log-max-bytes")
      opts.access_log_max_bytes = std::stoll(next());
    else if (arg == "--trace-out") trace_path = next();
    else if (arg == "--ready-file") ready_file = next();
    else if (arg == "--fault") fault_spec = next();
    else if (arg == "--log-level") {
      try {
        set_log_level(log_level_from_string(next()));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "adc_serve: %s\n", e.what());
        return 2;
      }
    }
    else return usage(2);
  }
  if (opts.unix_socket.empty() && opts.port < 0) {
    std::fprintf(stderr, "adc_serve: need --socket PATH and/or --port N\n");
    return usage(2);
  }

  try {
    fault().configure_from_env();
    if (!fault_spec.empty()) fault().configure(fault_spec);
    opts.pool_threads = pool_jobs;

    auto trace = std::make_shared<obs::Trace>(0);
    int trace_token = -1;
    if (!trace_path.empty()) {
      opts.flow.tracer = trace.get();
      trace_token = register_artifact_flush(trace_path, [trace, trace_path] {
        trace->close_open({{"flushed", "interrupted"}});
        obs::write_chrome_trace_file(*trace, trace_path);
      });
    }

    serve::ServeServer server(std::move(opts));
    server.start();

    // First SIGTERM/SIGINT: graceful drain through the shutdown pipe.
    // Second: the flush registry's default handler (flush + re-raise).
    g_shutdown_fd = server.shutdown_pipe_fd();
    set_signal_drain_hook(drain_on_signal);

    if (!ready_file.empty()) {
      JsonWriter w;
      w.begin_object();
      w.kv("unix", server.unix_path());
      w.kv("port", static_cast<std::int64_t>(server.tcp_port()));
      w.kv("metrics_port", static_cast<std::int64_t>(server.metrics_http_port()));
      w.kv("pid", static_cast<std::int64_t>(::getpid()));
      w.end_object();
      std::ofstream out(ready_file);
      out << w.str() << "\n";
      if (!out) throw std::runtime_error("cannot write " + ready_file);
    }
    std::fprintf(stderr, "adc_serve: listening%s%s%s (pid %d)\n",
                 server.unix_path().empty() ? "" : " on ",
                 server.unix_path().c_str(),
                 server.tcp_port() >= 0
                     ? (" tcp:" + std::to_string(server.tcp_port())).c_str()
                     : "",
                 static_cast<int>(::getpid()));

    int rc = server.wait();
    set_signal_drain_hook(nullptr);

    if (!trace_path.empty()) {
      unregister_artifact_flush(trace_token);
      if (!obs::write_chrome_trace_file(*trace, trace_path))
        throw std::runtime_error("cannot write " + trace_path);
      std::fprintf(stderr, "adc_serve: wrote %s\n", trace_path.c_str());
    }
    serve::ServerStats s = server.stats();
    std::fprintf(stderr,
                 "adc_serve: drained (%llu submitted, %llu completed, "
                 "%llu cancelled, %llu rejected)\n",
                 static_cast<unsigned long long>(s.submitted),
                 static_cast<unsigned long long>(s.completed),
                 static_cast<unsigned long long>(s.cancelled),
                 static_cast<unsigned long long>(s.rejected));
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adc_serve: %s\n", e.what());
    return 1;
  }
}
