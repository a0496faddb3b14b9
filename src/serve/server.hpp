#pragma once
// The synthesis-as-a-service daemon core (tools/adc_serve is a thin CLI
// over this class; tests and the serve.* bench suites embed it directly).
//
// One ServeServer owns
//  * the listeners: a Unix-domain socket and/or a loopback TCP socket,
//    each accepting length-prefixed JSON frames (serve/protocol.hpp);
//  * a bounded multi-class JobQueue (serve/queue.hpp) — the backpressure
//    boundary: a submit against a full queue is rejected with a
//    structured "busy" reply carrying a retry-after hint derived from the
//    observed service rate, never buffered unboundedly;
//  * a shared FlowExecutor on a work-stealing ThreadPool.  Every job of
//    every client runs through the same content-addressed StageCache, so
//    overlapping recipe grids from different clients share their
//    synthesis work; with Options::flow.disk_cache_dir set, completed
//    points also land in the crash-safe disk tier and replay warm across
//    daemon restarts — the second client over the same cache directory
//    starts hot;
//  * `workers` dispatcher threads pulling jobs off the queue and running
//    them to completion, with per-job deadlines and cancellation wired to
//    the job's CancelToken (runtime/cancel.hpp + the Watchdog).
//
// Shutdown: request_shutdown(drain) — from the shutdown op, the CLI's
// SIGTERM hook (via the async-signal-safe shutdown_pipe_fd()) or a test —
// stops the accept loop, closes the queue, and either drains the accepted
// backlog (drain=true: every queued and running job still completes and
// its waiters get their replies) or cancels it (drain=false: queued jobs
// report status=cancelled, running jobs' tokens trip).  wait() returns
// once every thread has been joined; artifact flushing stays the caller's
// business (trace/flush.hpp).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/grid.hpp"
#include "obs/access_log.hpp"
#include "obs/http.hpp"
#include "obs/registry.hpp"
#include "obs/trace_context.hpp"
#include "runtime/flow.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"

namespace adc {

struct JsonValue;  // report/json_parse.hpp

namespace serve {

struct ServerOptions {
  // Listeners: either or both.  An empty unix_socket disables it; a
  // negative port disables TCP, port 0 binds an ephemeral port (read it
  // back with tcp_port()).
  std::string unix_socket;
  std::string host = "127.0.0.1";
  int port = -1;

  std::size_t workers = 2;          // concurrent jobs in flight
  std::size_t queue_capacity = 64;  // 0 = unbounded (tests only)
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;

  // Pool backing the FlowExecutor (controller fan-out inside each job);
  // 0 = hardware concurrency.
  std::size_t pool_threads = 0;

  // Per-job budgets applied to every submission (a client's own
  // deadline_ms may only tighten, never exceed, max_deadline_ms).
  std::uint64_t stage_deadline_ms = 0;
  std::uint64_t default_deadline_ms = 0;
  std::uint64_t max_deadline_ms = 0;  // 0 = no cap

  // Forwarded to the shared executor (disk_cache_dir is the persistent,
  // client-shared tier; the process trace covers every job of every client).
  FlowExecutor::Options flow;

  // --- observability (src/obs/) --------------------------------------------
  // Prometheus text exposition over loopback HTTP ("GET /metrics"); -1
  // disables the endpoint, 0 binds an ephemeral port (read it back with
  // metrics_http_port()).
  int metrics_port = -1;
  std::string metrics_host = "127.0.0.1";
  // Structured JSONL access log, one line per finished/rejected job
  // (obs/access_log.hpp); empty disables it.
  std::string access_log;
  std::int64_t access_log_max_bytes = 64ll << 20;
};

struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   // reached a terminal FlowStatus via a worker
  std::uint64_t cancelled = 0;   // cancelled while still queued
  std::uint64_t rejected = 0;    // backpressure + drain rejections
  std::uint64_t bad_requests = 0;
  std::uint64_t connections = 0;
  std::size_t queued = 0;   // instantaneous
  std::size_t running = 0;  // instantaneous
};

class ServeServer {
 public:
  explicit ServeServer(ServerOptions opts);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  // Binds the configured listeners and spawns the accept/worker threads.
  // Throws std::runtime_error when nothing could be bound.
  void start();

  // Actual TCP port after start() (ephemeral binds resolved); -1 when TCP
  // is disabled.
  int tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return opts_.unix_socket; }

  // Thread-safe shutdown request; idempotent (the first request's drain
  // mode wins).  Returns immediately — wait() observes completion.
  void request_shutdown(bool drain);

  // Write end of the self-pipe: writing 'd' requests a draining shutdown,
  // 'c' a cancelling one.  A single write() is async-signal-safe, which
  // is exactly what the SIGTERM hook needs.
  int shutdown_pipe_fd() const { return wake_pipe_[1]; }

  // Blocks until a shutdown request has been fully processed and every
  // thread joined.  Returns 0 after a clean drain, 5 after a cancelling
  // shutdown that aborted jobs (mirrors the CLI timeout/cancel exit code).
  int wait();

  bool running() const { return started_ && !stopped_; }

  ServerStats stats() const;
  const JobQueue& queue() const { return queue_; }
  FlowExecutor& executor() { return *exec_; }

  // Serving-side telemetry registry (obs/registry.hpp) — what /metrics and
  // the `metrics` op export.  Live for the server's lifetime.
  obs::Registry& obs_registry() { return registry_; }
  // Actual /metrics port after start() (ephemeral binds resolved); -1 when
  // the endpoint is disabled.
  int metrics_http_port() const {
    return metrics_http_.running() ? static_cast<int>(metrics_http_.port()) : -1;
  }

 private:
  enum class JobState { kQueued, kRunning, kDone, kCancelled };

  struct Job {
    std::uint64_t id = 0;
    Priority priority = Priority::kNormal;
    JobState state = JobState::kQueued;
    FlowRequest req;
    FlowPoint result;
    std::string client;  // client-supplied name (access-log attribution)
    // Per-request span tree (obs/trace_context.hpp): the root span covers
    // submit -> terminal state, queue_span the submit -> dequeue wait.
    std::shared_ptr<obs::Trace> trace;
    std::uint64_t root_span = 0;
    std::uint64_t queue_span = 0;
    std::uint64_t submit_micros = 0;   // steady-clock stamp at accept
    std::uint64_t dequeue_micros = 0;  // steady-clock stamp at worker claim
    std::uint64_t wall_ms = 0;         // queue + service time at completion
  };

  void accept_loop();
  void handle_connection(int fd);
  void worker_loop();
  std::string handle_request(const std::string& payload, bool& close_conn);

  // Op handlers (payload already parsed; each returns the reply JSON).
  std::string op_submit(const JsonValue& req);
  std::string op_status(const JsonValue& req);
  std::string op_result(const JsonValue& req);
  std::string op_cancel(const JsonValue& req);
  std::string op_stats();
  std::string op_metrics();
  std::string op_trace(const JsonValue& req);
  std::string op_shutdown(const JsonValue& req);

  std::uint64_t retry_after_ms_locked() const;
  void finish_shutdown();

  // --- observability helpers ----------------------------------------------
  // Resolves every counter and histogram the hot paths touch and declares
  // the gauge sources (queue depths, cache/disk/pool occupancy, retry-after
  // EWMA, cover memo, frontier), so the exported metric catalogue is
  // complete (and deterministic) from construction.  A gauge source takes
  // mu_, so never read registry_ while holding mu_.
  void register_instruments();
  // Closes a cancelled job's spans and writes its access-log line.  Call
  // *outside* mu_ — the job is terminal, nobody writes it now.
  void observe_cancelled(const std::shared_ptr<Job>& job);

  ServerOptions opts_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<FlowExecutor> exec_;
  JobQueue queue_;

  mutable std::mutex mu_;
  std::condition_variable job_cv_;  // job state transitions (result waiters)
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::uint64_t next_id_ = 1;
  // The job tallies live in registry_'s counters (stats() sums them);
  // these two are the figures no counter holds.
  std::size_t running_ = 0;
  std::uint64_t connections_ = 0;
  double service_ewma_ms_ = 0.0;  // completed-job wall time, exp. smoothed

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  int wake_pipe_[2] = {-1, -1};
  bool owns_unix_path_ = false;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> accepting_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> drain_{true};
  std::uint64_t start_micros_ = 0;

  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::set<int> conn_fds_;

  // --- observability -------------------------------------------------------
  obs::Registry registry_;
  // Live Pareto frontier over (control area x cycle time): every
  // simulated ok job folds in, exported as the analysis.* gauges.
  analysis::FrontierTracker frontier_;
  std::unique_ptr<obs::AccessLog> access_log_;
  obs::MetricsHttpServer metrics_http_;
  // Hot-path instruments resolved once in register_instruments(); indexed
  // by priority class where labeled.
  obs::Counter* submissions_[kPriorityClasses] = {};
  obs::Counter* rejections_busy_[kPriorityClasses] = {};
  obs::Counter* rejections_closed_[kPriorityClasses] = {};
  obs::Counter* completions_[kPriorityClasses] = {};
  obs::Counter* cancellations_ = nullptr;
  obs::Counter* bad_requests_ = nullptr;
  obs::SlidingHistogram* queue_wait_[kPriorityClasses] = {};
  obs::SlidingHistogram* service_time_[kPriorityClasses] = {};
};

}  // namespace serve
}  // namespace adc
