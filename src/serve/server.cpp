#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "analysis/build.hpp"
#include "obs/prometheus.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"
#include "trace/log.hpp"

namespace adc {
namespace serve {

namespace {

std::uint64_t steady_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_cloexec(int fd) {
  int flags = ::fcntl(fd, F_GETFD);
  if (flags >= 0) ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

// Full-buffer send, riding out EINTR and short writes.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// splitmix64 finalizer.  Trace ids derive from the daemon start stamp and
// the job id: deterministic enough to test against, distinct across
// restarts, no PRNG state to seed or lock.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

const char* kClassNames[kPriorityClasses] = {"high", "normal", "low"};

// The request's job "id", or nothing when it is missing or not one.
std::optional<std::uint64_t> job_id(const JsonValue& doc) {
  const JsonValue* v = doc.find("id");
  return v ? json_integer<std::uint64_t>(*v) : std::nullopt;
}

// Sets *out from the numeric member `key`, if there is one; false when no
// T holds that number (a client error, never a silent conversion).
template <class T>
bool read_integer(const JsonValue& doc, const char* key, T* out) {
  const JsonValue* v = doc.find(key);
  if (!v || !v->is_number()) return true;
  const std::optional<T> n = json_integer<T>(*v);
  if (n) *out = *n;
  return n.has_value();
}

// The `jobs` object of the stats and metrics replies.
void write_jobs(JsonWriter& w, const ServerStats& s) {
  w.key("jobs");
  w.begin_object();
  w.kv("submitted", s.submitted);
  w.kv("completed", s.completed);
  w.kv("cancelled", s.cancelled);
  w.kv("rejected", s.rejected);
  w.kv("queued", static_cast<std::uint64_t>(s.queued));
  w.kv("running", static_cast<std::uint64_t>(s.running));
  w.end_object();
}

// One gauge source's reading: its values, in declaration order.
template <class... T>
std::vector<double> gauge_values(T... v) {
  return {static_cast<double>(v)...};
}

const char* job_state_name(int s) {
  switch (s) {
    case 0: return "queued";
    case 1: return "running";
    case 2: return "done";
    case 3: return "cancelled";
  }
  return "unknown";
}

}  // namespace

ServeServer::ServeServer(ServerOptions opts)
    : opts_(std::move(opts)), queue_(opts_.queue_capacity) {
  pool_ = std::make_unique<ThreadPool>(opts_.pool_threads);
  exec_ = std::make_unique<FlowExecutor>(pool_.get(), opts_.flow);
  if (opts_.workers == 0) opts_.workers = 1;
  register_instruments();
}

ServeServer::~ServeServer() {
  if (started_ && !stopped_) {
    request_shutdown(false);
    wait();
  }
  for (int fd : {wake_pipe_[0], wake_pipe_[1]})
    if (fd >= 0) ::close(fd);
}

void ServeServer::start() {
  if (started_) throw std::logic_error("serve: start() called twice");
  if (opts_.unix_socket.empty() && opts_.port < 0)
    throw std::invalid_argument("serve: no listener configured (need a unix "
                                "socket path and/or a TCP port)");
  if (::pipe(wake_pipe_) != 0)
    throw std::runtime_error("serve: pipe() failed: " +
                             std::string(std::strerror(errno)));
  set_cloexec(wake_pipe_[0]);
  set_cloexec(wake_pipe_[1]);

  if (!opts_.unix_socket.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.unix_socket.size() >= sizeof(addr.sun_path))
      throw std::invalid_argument("serve: unix socket path too long: " +
                                  opts_.unix_socket);
    std::strncpy(addr.sun_path, opts_.unix_socket.c_str(),
                 sizeof(addr.sun_path) - 1);
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0)
      throw std::runtime_error("serve: socket(AF_UNIX) failed: " +
                               std::string(std::strerror(errno)));
    set_cloexec(unix_fd_);
    bool bound =
        ::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    if (!bound && errno == EADDRINUSE) {
      // A stale socket file from a dead daemon refuses connections; detect
      // that, reclaim the path, and retry once.
      int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      bool live = probe >= 0 &&
                  ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) == 0;
      if (probe >= 0) ::close(probe);
      if (!live) {
        ::unlink(opts_.unix_socket.c_str());
        bound = ::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0;
      }
    }
    if (!bound) {
      ::close(unix_fd_);
      unix_fd_ = -1;
      throw std::runtime_error("serve: cannot bind " + opts_.unix_socket +
                               ": " + std::strerror(errno));
    }
    owns_unix_path_ = true;
    if (::listen(unix_fd_, 64) != 0)
      throw std::runtime_error("serve: listen(" + opts_.unix_socket +
                               ") failed: " + std::strerror(errno));
  }

  if (opts_.port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0)
      throw std::runtime_error("serve: socket(AF_INET) failed: " +
                               std::string(std::strerror(errno)));
    set_cloexec(tcp_fd_);
    int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
    if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1)
      throw std::invalid_argument("serve: bad host '" + opts_.host + "'");
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(tcp_fd_, 64) != 0)
      throw std::runtime_error("serve: cannot bind " + opts_.host + ":" +
                               std::to_string(opts_.port) + ": " +
                               std::strerror(errno));
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
      tcp_port_ = ntohs(bound.sin_port);
  }

  start_micros_ = steady_micros();
  if (!opts_.access_log.empty())
    access_log_ = std::make_unique<obs::AccessLog>(opts_.access_log,
                                                   opts_.access_log_max_bytes);
  if (opts_.metrics_port >= 0) {
    std::string err;
    bool up = metrics_http_.start(
        opts_.metrics_host, static_cast<std::uint16_t>(opts_.metrics_port),
        [this](const std::string& path, std::string* type, std::string* body) {
          if (path != "/metrics") return false;
          *type = "text/plain; version=0.0.4; charset=utf-8";
          *body = obs::render_prometheus(registry_.snapshot());
          return true;
        },
        &err);
    if (!up) throw std::runtime_error("serve: metrics endpoint: " + err);
  }
  started_ = true;
  accepting_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (std::size_t i = 0; i < opts_.workers; ++i)
    worker_threads_.emplace_back([this] { worker_loop(); });
  ADC_LOG_INFO("serve", "server started",
               {{"unix", opts_.unix_socket},
                {"port", static_cast<std::int64_t>(tcp_port_)},
                {"metrics_port", static_cast<std::int64_t>(metrics_http_port())},
                {"workers", opts_.workers},
                {"queue_capacity", opts_.queue_capacity}});
}

void ServeServer::register_instruments() {
  for (std::size_t i = 0; i < kPriorityClasses; ++i) {
    obs::Labels cls{{"class", kClassNames[i]}};
    submissions_[i] = &registry_.counter(
        "serve.submissions", cls, "jobs accepted into the queue");
    rejections_busy_[i] = &registry_.counter(
        "serve.rejections", {{"class", kClassNames[i]}, {"reason", "busy"}},
        "submissions rejected, by class and reason");
    rejections_closed_[i] = &registry_.counter(
        "serve.rejections",
        {{"class", kClassNames[i]}, {"reason", "shutting_down"}}, "");
    completions_[i] = &registry_.counter(
        "serve.completions", cls, "jobs run to a terminal status by a worker");
    queue_wait_[i] = &registry_.histogram(
        "serve.queue.wait_us", cls, "submit-to-dequeue wait per priority class");
    service_time_[i] = &registry_.histogram(
        "serve.service_us", cls, "dequeue-to-done service time per priority class");
  }
  cancellations_ =
      &registry_.counter("serve.cancellations", {}, "jobs cancelled while queued");
  bad_requests_ = &registry_.counter(
      "serve.bad_requests", {}, "malformed frames, bad JSON and unknown ops");

  // Gauge sources: each reads its owner when the registry is read, so a
  // scrape sees the current value.  Lock order mu_ -> queue, as in
  // retry_after_ms_locked().
  registry_.gauge_source(
      {{"serve.queue.depth", {{"class", "high"}}, "jobs waiting, per priority class"},
       {"serve.queue.depth", {{"class", "normal"}}, ""},
       {"serve.queue.depth", {{"class", "low"}}, ""},
       {"serve.running", {}, "jobs executing right now"},
       {"serve.connections", {}, "client connections accepted since start"},
       {"serve.retry_after_ms", {},
        "backpressure hint currently sent with busy replies"},
       {"serve.service_ewma_ms", {},
        "exponentially smoothed per-job wall time feeding that hint"}},
      [this] {
        std::lock_guard<std::mutex> lock(mu_);
        return gauge_values(queue_.depth(Priority::kHigh),
                            queue_.depth(Priority::kNormal),
                            queue_.depth(Priority::kLow), running_, connections_,
                            retry_after_ms_locked(), service_ewma_ms_);
      });
  registry_.gauge_source(
      {{"serve.cache.entries", {}, "stage-cache entries resident"},
       {"serve.cache.bytes", {}, "stage-cache bytes resident"},
       {"serve.cache.hit_ratio", {}, "stage-cache hits+joins over lookups, lifetime"}},
      [this] {
        CacheStats cs = exec_->cache().stats();
        return gauge_values(cs.entries, cs.bytes, cs.hit_rate());
      });
  // Zeros without a persistent tier, so the catalogue never depends on it.
  registry_.gauge_source(
      {{"serve.disk.hits", {}, "disk-tier replays served"},
       {"serve.disk.misses", {}, "disk-tier probes that missed"},
       {"serve.disk.stores", {}, "points persisted to the disk tier"},
       {"serve.disk.corrupt", {}, "disk-tier entries failing checksum"},
       {"serve.disk.bytes", {}, "disk-tier bytes resident"}},
      [this] {
        const DiskCache* dc = exec_->disk_cache();
        if (!dc) return std::vector<double>(5, 0.0);
        DiskCache::Stats ds = dc->stats();
        return gauge_values(ds.hits, ds.misses, ds.puts, ds.corrupt,
                            dc->total_bytes());
      });
  const obs::Counter* flow[] = {&exec_->metrics().counter("flow.timeouts"),
                                &exec_->metrics().counter("flow.faults"),
                                &exec_->metrics().counter("flow.deadlocks")};
  registry_.gauge_source(
      {{"serve.pool.pending", {}, "pool subtasks queued"},
       {"serve.pool.tasks_executed", {}, "pool subtasks completed"},
       {"serve.flow.timeouts", {}, "jobs unwound by a deadline watchdog"},
       {"serve.flow.faults", {}, "jobs stopped by an injected fault"},
       {"serve.flow.deadlocks", {}, "jobs whose event simulation stalled"}},
      [this, flow] {
        return gauge_values(pool_->pending(), pool_->tasks_executed(),
                            flow[0]->value(), flow[1]->value(), flow[2]->value());
      });
  // The executor's content-addressed cover memo (logic/memo.hpp): repeated
  // function specifications replay their minimized cover instead of
  // re-running candidate generation + covering.
  registry_.gauge_source(
      {{"logic.memo.hits", {}, "cover-memo replays"},
       {"logic.memo.misses", {}, "cover-memo lookups that ran the minimizer"},
       {"logic.memo.fills", {}, "covers computed and stored in the memo"},
       {"logic.memo.entries", {}, "memo entries resident in memory"}},
      [this] {
        LogicMemo::Stats ms = exec_->logic_memo().stats();
        return gauge_values(ms.hits, ms.misses, ms.fills, ms.entries);
      });
  // Design-space explainability (analysis/grid.hpp): the live Pareto
  // frontier over (control area x cycle time) across every simulated ok
  // job this daemon has completed.
  registry_.gauge_source(
      {{"analysis.points", {}, "simulated ok jobs folded into the frontier"},
       {"analysis.frontier_size", {}, "non-dominated (area, cycle) points"},
       {"analysis.dominated", {}, "jobs dominated by a frontier member"},
       {"analysis.best_cycle_time", {}, "fastest simulated cycle time seen"},
       {"analysis.best_area_transistors", {}, "smallest control-area estimate seen"}},
      [this] {
        analysis::FrontierTracker::Snapshot fs = frontier_.snapshot();
        return gauge_values(fs.points, fs.frontier_size, fs.dominated,
                            fs.best_cycle_time, fs.best_area_transistors);
      });
}

void ServeServer::accept_loop() {
  while (!shutdown_requested_) {
    pollfd fds[3];
    nfds_t n = 0;
    fds[n++] = {wake_pipe_[0], POLLIN, 0};
    if (unix_fd_ >= 0) fds[n++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[n++] = {tcp_fd_, POLLIN, 0};
    int r = ::poll(fds, n, 500);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents & POLLIN) {
      char buf[16];
      ssize_t got = ::read(wake_pipe_[0], buf, sizeof(buf));
      for (ssize_t i = 0; i < got; ++i)
        if (buf[i] == 'd' || buf[i] == 'c') request_shutdown(buf[i] == 'd');
      continue;  // re-check shutdown_requested_
    }
    for (nfds_t i = 1; i < n; ++i) {
      if (!(fds[i].revents & POLLIN)) continue;
      int fd = ::accept(fds[i].fd, nullptr, nullptr);
      if (fd < 0) continue;
      set_cloexec(fd);
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (shutdown_requested_) {
        ::close(fd);
        continue;
      }
      conn_fds_.insert(fd);
      conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
      std::lock_guard<std::mutex> slock(mu_);
      ++connections_;
    }
  }
  // Close the listeners right away: a client sitting in the listen
  // backlog that was never accepted sees EOF on its first read instead of
  // hanging until wait() tears the socket down.
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  accepting_ = false;
}

void ServeServer::handle_connection(int fd) {
  FrameReader reader(opts_.max_frame_bytes);
  char buf[64 * 1024];
  bool close_conn = false;
  while (!close_conn) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed (or our drain shut the read side)
    reader.feed(buf, static_cast<std::size_t>(n));
    std::string payload;
    try {
      while (!close_conn && reader.next(payload)) {
        std::string reply = handle_request(payload, close_conn);
        if (!send_all(fd, encode_frame(reply, opts_.max_frame_bytes))) {
          close_conn = true;
          break;
        }
      }
    } catch (const FrameError& e) {
      // Unrecoverable stream defect: reply best-effort, then drop the
      // connection — there is no frame boundary left to resync on.
      bad_requests_->add();
      send_all(fd, encode_frame(error_reply("", "too_large", e.what()),
                                opts_.max_frame_bytes));
      close_conn = true;
    }
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  conn_fds_.erase(fd);
  ::close(fd);
}

std::string ServeServer::handle_request(const std::string& payload,
                                        bool& close_conn) {
  JsonValue doc;
  try {
    doc = parse_json(payload);
  } catch (const std::exception& e) {
    bad_requests_->add();
    return error_reply("", "bad_request",
                       std::string("malformed JSON: ") + e.what());
  }
  const JsonValue* opv = doc.find("op");
  if (!doc.is_object() || !opv || !opv->is_string()) {
    bad_requests_->add();
    return error_reply("", "bad_request",
                       "request must be an object with a string \"op\"");
  }
  const std::string& op = opv->string;
  try {
    if (op == "ping") {
      JsonWriter w;
      begin_ok_reply(w, op);
      w.end_object();
      return w.str();
    }
    if (op == "submit") return op_submit(doc);
    if (op == "status") return op_status(doc);
    if (op == "result") return op_result(doc);
    if (op == "cancel") return op_cancel(doc);
    if (op == "stats") return op_stats();
    if (op == "metrics") return op_metrics();
    if (op == "trace") return op_trace(doc);
    if (op == "shutdown") {
      std::string reply = op_shutdown(doc);
      close_conn = true;
      return reply;
    }
  } catch (const std::exception& e) {
    bad_requests_->add();
    return error_reply(op, "bad_request", e.what());
  }
  bad_requests_->add();
  return error_reply(op, "bad_request", "unknown op '" + op + "'");
}

std::uint64_t ServeServer::retry_after_ms_locked() const {
  // How long until a queue slot plausibly frees up: the smoothed per-job
  // service time times the backlog ahead of a new arrival, spread over
  // the worker lanes.  Clamped so a cold server still suggests a sane
  // pause and a deep backlog cannot push clients out forever.
  double per_job = service_ewma_ms_ > 0.0 ? service_ewma_ms_ : 100.0;
  double backlog = static_cast<double>(queue_.depth() + running_ + 1);
  double ms = per_job * backlog / static_cast<double>(opts_.workers);
  if (ms < 25.0) ms = 25.0;
  if (ms > 10000.0) ms = 10000.0;
  return static_cast<std::uint64_t>(ms);
}

std::string ServeServer::op_submit(const JsonValue& doc) {
  if (shutdown_requested_)
    return error_reply("submit", "shutting_down", "server is draining");

  FlowRequest req;
  const JsonValue* bench = doc.find("bench");
  const JsonValue* source = doc.find("source");
  if (bench && bench->is_string()) {
    const BuiltinBenchmark* b = find_builtin(bench->string);
    if (!b)
      return error_reply("submit", "bad_request",
                         "unknown builtin benchmark '" + bench->string + "'");
    req = make_builtin_request(*b, req.script);
  } else if (source && source->is_string()) {
    req.source = source->string;
    req.benchmark = "client";
    if (const JsonValue* name = doc.find("name"); name && name->is_string())
      req.benchmark = name->string;
  } else {
    return error_reply("submit", "bad_request",
                       "submit needs \"bench\" (builtin name) or \"source\" "
                       "(program text)");
  }
  if (const JsonValue* script = doc.find("script"); script && script->is_string())
    req.script = script->string;
  try {
    // Reject unparseable recipes at the door — a queue slot is too
    // expensive to spend on a guaranteed status=error.
    req.script = TransformScript::parse(req.script).to_string();
  } catch (const std::exception& e) {
    return error_reply("submit", "bad_request",
                       std::string("bad script: ") + e.what());
  }
  if (const JsonValue* init = doc.find("init"); init && init->is_object())
    for (const auto& [k, v] : init->object) {
      std::optional<std::int64_t> n = json_integer<std::int64_t>(v);
      if (!n)
        return error_reply("submit", "bad_request",
                           "init value '" + k + "' is not a 64-bit integer");
      req.init[k] = *n;
    }
  if (const JsonValue* v = doc.find("simulate"); v && v->is_bool())
    req.simulate = v->boolean;
  req.stage_deadline_ms = opts_.stage_deadline_ms;
  req.deadline_ms = opts_.default_deadline_ms;
  if (!read_integer(doc, "seed", &req.sim.seed) ||
      !read_integer(doc, "deadline_ms", &req.deadline_ms))
    return error_reply("submit", "bad_request",
                       "seed and deadline_ms must be non-negative integers");
  if (opts_.max_deadline_ms > 0 &&
      (req.deadline_ms == 0 || req.deadline_ms > opts_.max_deadline_ms))
    req.deadline_ms = opts_.max_deadline_ms;

  Priority prio = Priority::kNormal;
  if (const JsonValue* v = doc.find("priority")) {
    if (!v->is_string() || !parse_priority(v->string, &prio))
      return error_reply("submit", "bad_request",
                         "priority must be \"high\", \"normal\" or \"low\"");
  }
  const std::size_t cls = static_cast<std::size_t>(prio);

  auto job = std::make_shared<Job>();
  job->priority = prio;
  if (const JsonValue* v = doc.find("client"); v && v->is_string())
    job->client = v->string;
  job->req = std::move(req);
  job->submit_micros = steady_micros();

  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    job->id = id;
    // Trace minted at accept: the root span covers the job's whole
    // lifetime, queue.wait its time until a worker claims it.
    job->trace = std::make_shared<obs::Trace>(mix64(start_micros_ + id));
    job->root_span = job->trace->begin("job", "serve", 0);
    job->trace->annotate(job->root_span, "benchmark", job->req.benchmark);
    job->trace->annotate(job->root_span, "script", job->req.script);
    job->trace->annotate(job->root_span, "priority", to_string(prio));
    job->queue_span = job->trace->begin("queue.wait", "serve", job->root_span);
    jobs_[id] = job;
  }
  JobQueue::PushResult pushed = queue_.push(id, prio);
  if (pushed != JobQueue::PushResult::kAccepted) {
    bool closed = pushed == JobQueue::PushResult::kClosed;
    std::uint64_t retry = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.erase(id);
      (closed ? rejections_closed_ : rejections_busy_)[cls]->add();
      retry = retry_after_ms_locked();
    }
    if (access_log_) {
      obs::AccessLogEntry e;
      e.event = "rejected";  // schema: no id/trace — the client never got one
      e.priority = to_string(prio);
      e.client = job->client;
      e.bench = job->req.benchmark;
      e.script = job->req.script;
      e.status = closed ? "shutting_down" : "busy";
      e.retry_after_ms = closed ? 0 : retry;
      access_log_->append(e);
    }
    if (closed)
      return error_reply("submit", "shutting_down", "server is draining");
    // error_reply() plus the rejecting class — a client deciding whether
    // to retry at a different priority needs to know *which* lane is full.
    JsonWriter w;
    w.begin_object();
    w.kv("ok", false);
    w.kv("op", "submit");
    w.kv("code", "busy");
    w.kv("error", "job queue is full (" + std::to_string(queue_.capacity()) +
                      " jobs)");
    w.kv("class", to_string(prio));
    w.kv("retry_after_ms", retry);
    w.end_object();
    return w.str();
  }
  submissions_[cls]->add();
  ADC_LOG_DEBUG("serve", "job accepted",
                {{"id", id},
                 {"benchmark", job->req.benchmark},
                 {"script", job->req.script},
                 {"priority", std::string(to_string(prio))}});
  JsonWriter w;
  begin_ok_reply(w, "submit");
  w.kv("id", id);
  w.kv("trace_id", job->trace->trace_id_hex());
  w.kv("priority", to_string(prio));
  w.kv("queue_depth", static_cast<std::uint64_t>(queue_.depth()));
  w.end_object();
  return w.str();
}

std::string ServeServer::op_status(const JsonValue& doc) {
  const std::optional<std::uint64_t> idv = job_id(doc);
  if (!idv)
    return error_reply("status", "bad_request", "status needs an integer \"id\"");
  const std::uint64_t id = *idv;
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it != jobs_.end()) job = it->second;
  }
  if (!job)
    return error_reply("status", "not_found",
                       "no job " + std::to_string(id));
  JsonWriter w;
  begin_ok_reply(w, "status");
  w.kv("id", id);
  if (job->trace) w.kv("trace_id", job->trace->trace_id_hex());
  {
    std::lock_guard<std::mutex> lock(mu_);
    w.kv("state", job_state_name(static_cast<int>(job->state)));
    if (job->state == JobState::kQueued) {
      std::size_t pos = queue_.position(id);
      if (pos != static_cast<std::size_t>(-1))
        w.kv("position", static_cast<std::uint64_t>(pos));
    }
    if (job->state == JobState::kDone) {
      w.kv("status", to_string(job->result.status));
      w.kv("wall_ms", job->wall_ms);
      if (job->result.from_disk_cache) w.kv("from_disk_cache", true);
    }
  }
  w.end_object();
  return w.str();
}

std::string ServeServer::op_result(const JsonValue& doc) {
  const std::optional<std::uint64_t> idv = job_id(doc);
  if (!idv)
    return error_reply("result", "bad_request", "result needs an integer \"id\"");
  const std::uint64_t id = *idv;
  bool block = true;
  if (const JsonValue* v = doc.find("wait"); v && v->is_bool()) block = v->boolean;
  std::uint64_t timeout_ms = 0;
  if (!read_integer(doc, "timeout_ms", &timeout_ms))
    return error_reply("result", "bad_request",
                       "timeout_ms must be a non-negative integer");

  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it != jobs_.end()) job = it->second;
  }
  if (!job)
    return error_reply("result", "not_found", "no job " + std::to_string(id));

  FlowPoint point;
  std::uint64_t wall_ms = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto terminal = [&] {
      return job->state == JobState::kDone || job->state == JobState::kCancelled;
    };
    if (block) {
      if (timeout_ms > 0) {
        if (!job_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                              terminal))
          return error_reply("result", "busy",
                             "job " + std::to_string(id) +
                                 " still " +
                                 job_state_name(static_cast<int>(job->state)),
                             retry_after_ms_locked());
      } else {
        job_cv_.wait(lock, terminal);
      }
    } else if (!terminal()) {
      JsonWriter w;
      begin_ok_reply(w, "result");
      w.kv("id", id);
      w.kv("state", job_state_name(static_cast<int>(job->state)));
      w.end_object();
      return w.str();
    }
    point = job->result;
    wall_ms = job->wall_ms;
  }
  JsonWriter w;
  begin_ok_reply(w, "result");
  w.kv("id", id);
  if (job->trace) w.kv("trace_id", job->trace->trace_id_hex());
  w.kv("state", "done");
  w.kv("wall_ms", wall_ms);
  w.key("point");
  write_json(w, point);
  w.end_object();
  return w.str();
}

std::string ServeServer::op_cancel(const JsonValue& doc) {
  const std::optional<std::uint64_t> idv = job_id(doc);
  if (!idv)
    return error_reply("cancel", "bad_request", "cancel needs an integer \"id\"");
  const std::uint64_t id = *idv;
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it != jobs_.end()) job = it->second;
  }
  if (!job)
    return error_reply("cancel", "not_found", "no job " + std::to_string(id));

  std::string outcome;
  if (queue_.remove(id)) {
    bool cancelled = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (job->state == JobState::kQueued) {
        job->state = JobState::kCancelled;
        job->result.benchmark = job->req.benchmark;
        job->result.script = job->req.script;
        job->result.ok = false;
        job->result.status = FlowStatus::kCancelled;
        job->result.error = "cancelled by client";
        job->wall_ms = (steady_micros() - job->submit_micros) / 1000;
        cancellations_->add();
        cancelled = true;
        job_cv_.notify_all();
      }
    }
    if (cancelled) observe_cancelled(job);
    outcome = "dequeued";
  } else {
    // Already claimed by a worker (or finished): trip the token; the
    // stages unwind cooperatively and the job completes as cancelled.
    job->req.cancel.request("cancelled by client");
    std::lock_guard<std::mutex> lock(mu_);
    outcome = job->state == JobState::kDone ? "already_done" : "signalled";
  }
  JsonWriter w;
  begin_ok_reply(w, "cancel");
  w.kv("id", id);
  w.kv("outcome", outcome);
  w.end_object();
  return w.str();
}

std::string ServeServer::op_stats() {
  JsonWriter w;
  begin_ok_reply(w, "stats");
  w.kv("state", shutdown_requested_ ? "draining" : "serving");
  w.kv("uptime_ms", (steady_micros() - start_micros_) / 1000);
  write_jobs(w, stats());
  JobQueue::Stats qs = queue_.stats();
  w.key("queue");
  w.begin_object();
  w.kv("depth", static_cast<std::uint64_t>(queue_.depth()));
  w.kv("capacity", static_cast<std::uint64_t>(queue_.capacity()));
  w.kv("max_depth", qs.max_depth);
  w.kv("accepted", qs.accepted);
  w.kv("rejected_full", qs.rejected_full);
  w.kv("rejected_closed", qs.rejected_closed);
  w.end_object();
  CacheStats cs = exec_->cache().stats();
  w.key("cache");
  w.begin_object();
  w.kv("hits", cs.hits);
  w.kv("joins", cs.joins);
  w.kv("misses", cs.misses);
  w.kv("entries", cs.entries);
  w.kv("hit_rate", cs.hit_rate());
  w.end_object();
  if (const DiskCache* dc = exec_->disk_cache()) {
    DiskCache::Stats ds = dc->stats();
    w.key("disk_cache");
    w.begin_object();
    w.kv("dir", dc->dir());
    w.kv("hits", ds.hits);
    w.kv("misses", ds.misses);
    w.kv("stores", ds.puts);
    w.kv("evictions", ds.evictions);
    w.kv("corrupt", ds.corrupt);
    w.kv("total_bytes", dc->total_bytes());
    w.end_object();
  }
  w.key("pool");
  w.begin_object();
  w.kv("threads", static_cast<std::uint64_t>(pool_->size()));
  w.kv("pending", static_cast<std::uint64_t>(pool_->pending()));
  w.kv("tasks_executed", pool_->tasks_executed());
  w.end_object();
  w.kv("workers", static_cast<std::uint64_t>(opts_.workers));
  w.kv("metrics_port", static_cast<std::int64_t>(metrics_http_port()));
  w.key("metrics");
  exec_->metrics().write_json(w);
  w.end_object();
  return w.str();
}

void ServeServer::observe_cancelled(const std::shared_ptr<Job>& job) {
  if (job->trace) {
    job->trace->end(job->queue_span, {{"outcome", "cancelled"}});
    job->trace->end(job->root_span, {{"status", "cancelled"}});
  }
  if (!access_log_) return;
  obs::AccessLogEntry e;
  e.event = "cancelled";
  e.id = job->id;
  e.trace_id = job->trace ? job->trace->trace_id_hex() : "";
  e.priority = to_string(job->priority);
  e.client = job->client;
  e.bench = job->req.benchmark;
  e.script = job->req.script;
  e.status = "cancelled";
  e.wall_ms = job->wall_ms;
  access_log_->append(e);
}

std::string ServeServer::op_metrics() {
  JsonWriter w;
  begin_ok_reply(w, "metrics");
  w.kv("state", shutdown_requested_ ? "draining" : "serving");
  w.kv("uptime_ms", (steady_micros() - start_micros_) / 1000);
  w.kv("workers", static_cast<std::uint64_t>(opts_.workers));
  write_jobs(w, stats());
  w.key("obs");
  registry_.write_json(w);
  w.end_object();
  return w.str();
}

std::string ServeServer::op_trace(const JsonValue& doc) {
  const std::optional<std::uint64_t> idv = job_id(doc);
  if (!idv)
    return error_reply("trace", "bad_request", "trace needs an integer \"id\"");
  const std::uint64_t id = *idv;
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it != jobs_.end()) job = it->second;
  }
  if (!job || !job->trace)
    return error_reply("trace", "not_found",
                       "no trace for job " + std::to_string(id));
  JsonWriter w;
  begin_ok_reply(w, "trace");
  w.kv("id", id);
  w.kv("trace_id", job->trace->trace_id_hex());
  w.key("trace");
  job->trace->write_chrome_trace(w, id);
  w.end_object();
  return w.str();
}

std::string ServeServer::op_shutdown(const JsonValue& doc) {
  bool drain = true;
  if (const JsonValue* v = doc.find("drain"); v && v->is_bool()) drain = v->boolean;
  JsonWriter w;
  begin_ok_reply(w, "shutdown");
  w.kv("drain", drain);
  w.kv("pending_jobs", static_cast<std::uint64_t>(queue_.depth()));
  w.end_object();
  request_shutdown(drain);
  return w.str();
}

void ServeServer::request_shutdown(bool drain) {
  bool expected = false;
  if (!shutdown_requested_.compare_exchange_strong(expected, true)) return;
  drain_ = drain;
  ADC_LOG_INFO("serve", "shutdown requested",
               {{"drain", drain},
                {"queued", queue_.depth()}});
  queue_.close();
  if (!drain) {
    // Cancel mode: empty the backlog, then trip every running job.
    std::vector<std::shared_ptr<Job>> cancelled;
    std::uint64_t id;
    while (queue_.try_pop(&id)) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      Job& job = *it->second;
      job.state = JobState::kCancelled;
      job.result.benchmark = job.req.benchmark;
      job.result.script = job.req.script;
      job.result.ok = false;
      job.result.status = FlowStatus::kCancelled;
      job.result.error = "cancelled by server shutdown";
      job.wall_ms = (steady_micros() - job.submit_micros) / 1000;
      cancellations_->add();
      cancelled.push_back(it->second);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [jid, job] : jobs_)
        if (job->state == JobState::kRunning)
          job->req.cancel.request("cancelled by server shutdown");
      job_cv_.notify_all();
    }
    for (auto& job : cancelled) observe_cancelled(job);
  }
  // Wake the accept loop's poll.
  if (wake_pipe_[1] >= 0) {
    char b = drain ? 'd' : 'c';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
}

void ServeServer::worker_loop() {
  std::uint64_t id;
  while (queue_.pop(&id)) {
    std::shared_ptr<Job> job;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      job = it->second;
      if (job->state != JobState::kQueued) continue;  // raced with a cancel
      job->state = JobState::kRunning;
      job->dequeue_micros = steady_micros();
      ++running_;
    }
    const std::size_t cls = static_cast<std::size_t>(job->priority);
    const std::uint64_t wait_us = job->dequeue_micros - job->submit_micros;
    queue_wait_[cls]->record_micros(wait_us);
    job->trace->end(job->queue_span);
    // Hand the executor this job's trace, parented under the root span —
    // every stage it runs lands in the same tree, whatever thread it is on.
    job->req.trace = obs::TraceContext(job->trace, job->root_span);
    FlowPoint p = exec_->run(job->req);
    if (p.ok && p.latency > 0)
      frontier_.add(analysis::point_area_transistors(p), p.latency);
    const std::uint64_t service_us = steady_micros() - job->dequeue_micros;
    service_time_[cls]->record_micros(service_us);
    job->trace->end(job->root_span,
                    {{"status", to_string(p.status)},
                     {"ok", p.ok ? "true" : "false"},
                     {"queue_wait_us", std::to_string(wait_us)}});
    std::uint64_t result_bytes = 0;
    if (access_log_) result_bytes = to_json(p).size();
    {
      std::lock_guard<std::mutex> lock(mu_);
      job->result = std::move(p);
      job->state = JobState::kDone;
      job->wall_ms = (steady_micros() - job->submit_micros) / 1000;
      --running_;
      completions_[cls]->add();
      // Service-time EWMA feeding the busy replies' retry-after hint.
      double w = static_cast<double>(job->wall_ms);
      service_ewma_ms_ =
          service_ewma_ms_ > 0.0 ? 0.8 * service_ewma_ms_ + 0.2 * w : w;
      job_cv_.notify_all();
    }
    if (access_log_) {
      obs::AccessLogEntry e;
      e.event = "done";
      e.id = id;
      e.trace_id = job->trace->trace_id_hex();
      e.priority = to_string(job->priority);
      e.client = job->client;
      e.bench = job->req.benchmark;
      e.script = job->req.script;
      e.status = to_string(job->result.status);
      e.queue_wait_us = wait_us;
      e.service_us = service_us;
      e.wall_ms = job->wall_ms;
      e.from_disk_cache = job->result.from_disk_cache;
      e.result_bytes = result_bytes;
      access_log_->append(e);
    }
    ADC_LOG_DEBUG("serve", "job done",
                  {{"id", id},
                   {"status", std::string(to_string(job->result.status))},
                   {"wall_ms", job->wall_ms}});
  }
}

int ServeServer::wait() {
  if (!started_) return 0;
  if (stopped_) return drain_ ? 0 : 5;
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& t : worker_threads_) t.join();
  worker_threads_.clear();
  finish_shutdown();
  stopped_ = true;
  return cancellations_->value() > 0 && !drain_ ? 5 : 0;
}

void ServeServer::finish_shutdown() {
  // Workers have exited: every job is terminal, so any connection thread
  // blocked in op_result has been woken.  Shut the read side of every
  // live connection — recv() returns 0, the thread flushes its last reply
  // and exits — then join.
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_cv_.notify_all();
  }
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
    conns.swap(conn_threads_);
  }
  for (auto& t : conns) t.join();
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  // Tear the observability surfaces down last: the /metrics listener,
  // then the access log.
  metrics_http_.stop();
  if (access_log_) access_log_->flush();
  if (owns_unix_path_) ::unlink(opts_.unix_socket.c_str());
  ADC_LOG_INFO("serve", "server stopped",
               {{"completed", stats().completed},
                {"cancelled", stats().cancelled}});
}

ServerStats ServeServer::stats() const {
  // The job tallies are the registry counters; only the instantaneous
  // figures are kept by hand.
  ServerStats s;
  for (std::size_t i = 0; i < kPriorityClasses; ++i) {
    s.submitted += submissions_[i]->value();
    s.completed += completions_[i]->value();
    s.rejected += rejections_busy_[i]->value() + rejections_closed_[i]->value();
  }
  s.cancelled = cancellations_->value();
  s.bad_requests = bad_requests_->value();
  std::lock_guard<std::mutex> lock(mu_);
  s.connections = connections_;
  s.running = running_;
  s.queued = queue_.depth();
  return s;
}

}  // namespace serve
}  // namespace adc
