// serve_mix: an in-process adc_serve daemon under open-loop traffic.
//
// Requests arrive as a Poisson process at a fixed rate, as independent
// users would send them, so a stall makes later requests wait instead of
// slowing the sender; latency is timed from each request's due time.  19
// requests in 20 are warm (the DIFFEQ GT grid and the builtins, all primed
// during set-up): they measure protocol, queue and dispatch.  The 20th is
// cold, a fresh generated program sent as source: the cache writes beside
// those reads, and the head-of-line blocking they cause.  The rate, the
// mix and the cold programs' size are assumed, not measured: nothing in the
// repository records what clients send.
//
// Load comes from two threads on two connections: this thread submits on
// schedule through raw request() (submit() would retry a busy reply and
// close the loop), a collector thread gathers results in whatever order
// they complete.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "report/json.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

#include <unistd.h>

namespace bench {

namespace {

constexpr double kRate = 100.0;         // requests per second
constexpr std::size_t kColdEvery = 20;  // one fresh program in 20 requests
constexpr double kGiveUpMs = 60000;     // a result later than this is lost
constexpr double kSpinMs = 0.5;         // the generator spins this long before a send
// The generator reads the yardstick about every kYardstickEveryMs, in the
// first gap between arrivals of at least kYardstickGapMs (a reading takes
// about 1 ms): often enough to follow the host's speed, rarely enough to
// leave the daemon's threads the cores.
constexpr double kYardstickEveryMs = 100.0;
constexpr double kYardstickGapMs = 3.0;

struct Arrival {
  double due_ms;  // offset from the start of the loop
  const Job* job;
  std::size_t group;  // the warm point's index; the cold programs share one
  bool cold;
};

std::unique_ptr<adc::serve::ServeServer> start_server() {
  // A Unix socket, named relative to the working directory (run.py runs
  // the benchmark in its build directory): loopback TCP added a tenth of a
  // millisecond of jitter to requests that take less than one.
  static int servers = 0;
  adc::serve::ServerOptions so;
  so.unix_socket =
      "adc_benchmark." + std::to_string(::getpid()) + "." + std::to_string(servers++) + ".sock";
  so.workers = 2;
  so.pool_threads = 1;
  auto s = std::make_unique<adc::serve::ServeServer>(so);
  s->start();
  return s;
}

void stop_server(adc::serve::ServeServer& s) {
  s.request_shutdown(true);
  s.wait();
}

adc::serve::ServeClient connect(const adc::serve::ServeServer& s) {
  return adc::serve::ServeClient::connect_unix(s.unix_path());
}

std::string result_request(std::uint64_t id, bool wait, int timeout_ms) {
  adc::JsonWriter w;
  w.begin_object();
  w.kv("op", "result");
  w.kv("id", id);
  w.kv("wait", wait);
  if (timeout_ms > 0) w.kv("timeout_ms", timeout_ms);
  w.end_object();
  return w.str();
}

bool reply_ok(const adc::JsonValue& reply) {
  const adc::JsonValue* ok = reply.find("ok");
  return ok && ok->is_bool() && ok->boolean;
}

std::string reply_text(const adc::JsonValue& reply) {
  const adc::JsonValue* code = reply.find("code");
  const adc::JsonValue* err = reply.find("error");
  return (code ? code->string : "?") + ": " + (err ? err->string : "");
}

// Checks and counts the point inside a done `result` reply; false when it
// failed.
bool check_reply(const adc::JsonValue& reply, const Job& job, RunResult& r) {
  ++r.attempted;
  const adc::JsonValue& point = reply.at("point");
  // The reply's registers are exact in the text, but the JSON reader keeps
  // numbers as doubles: compare each against the reference rounded alike.
  bool match = true;
  const adc::JsonValue* regs = point.find("registers");
  for (const auto& [reg, value] : job.want) {
    const adc::JsonValue* got = regs ? regs->find(reg) : nullptr;
    if (!got || got->number != static_cast<double>(value)) match = false;
  }
  std::string cls = classify(point.at("status").string, match, job.pinned_corner);
  if (!cls.empty()) {
    std::string detail = job.reproducer;
    if (const adc::JsonValue* e = point.find("error")) detail += "\n  error: " + e->string;
    r.failures.add(cls, detail);
    return false;
  }
  return true;
}

// Submits and waits, closed loop.
adc::JsonValue round_trip(adc::serve::ServeClient& c, const Job& job) {
  adc::JsonValue sub = c.request(job.payload);
  if (!reply_ok(sub)) throw std::runtime_error("submit refused: " + reply_text(sub));
  return c.request(result_request(static_cast<std::uint64_t>(sub.at("id").number), true, 0));
}

struct LoopStats {
  std::vector<double> latency_ms;  // due -> result seen, outputs that passed
  // The same per Arrival::group, each scaled by the generator's last
  // yardstick reading before the request was sent; no CPU times.
  Samples by_group;
  std::vector<Yardstick> yardsticks;  // the generator's readings
  std::vector<double> lag_ms;      // how late the generator sent each request
  std::size_t refused = 0;
  double first_due = 0, last_done = 0;  // absolute ms
  double last_due = 0;
  double client_cpu_ms = 0;  // the two load threads
  double queue_depth_max = 0;
};

LoopStats open_loop(const adc::serve::ServeServer& server,
                    const std::vector<Arrival>& schedule, std::size_t groups,
                    bool sample_stats, RunResult& r) {
  struct Pending {
    std::uint64_t id;
    double due;
    const Arrival* arrival;
    Yardstick yardstick;
  };
  LoopStats st;
  st.by_group = Samples(groups);
  std::mutex mu;  // guards handoff, gen_done, r and st.latency_ms/last_done
  std::condition_variable cv;
  std::deque<Pending> handoff;
  bool gen_done = false;

  std::thread collector([&] {
    const double cpu0 = thread_cpu_ms();
    std::vector<Pending> out;
    try {
      adc::serve::ServeClient c = connect(server);
      auto finish = [&](std::size_t k, const adc::JsonValue& reply) {
        const double seen = now_ms();
        std::lock_guard<std::mutex> lock(mu);
        if (check_reply(reply, *out[k].arrival->job, r)) {
          st.latency_ms.push_back(seen - out[k].due);
          st.by_group.add(out[k].arrival->group, seen - out[k].due, 0.0, out[k].yardstick);
        }
        st.last_done = std::max(st.last_done, seen);
        out.erase(out.begin() + static_cast<std::ptrdiff_t>(k));
      };
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(mu);
          if (out.empty()) cv.wait(lock, [&] { return !handoff.empty() || gen_done; });
          while (!handoff.empty()) {
            out.push_back(handoff.front());
            handoff.pop_front();
          }
          if (out.empty() && gen_done) break;
        }
        // Block for at most a millisecond on the request likely to finish
        // first, the oldest warm one (or the oldest, when all are cold),
        // then poll the others: a warm completion is seen when it happens,
        // not at the end of a millisecond spent waiting on a cold job.
        std::size_t first = 0;
        while (first < out.size() && out[first].arrival->cold) ++first;
        if (first == out.size()) first = 0;
        adc::JsonValue reply = c.request(result_request(out[first].id, true, 1));
        if (reply.find("point")) finish(first, reply);
        for (std::size_t k = 0; k < out.size();) {
          adc::JsonValue rk = c.request(result_request(out[k].id, false, 0));
          if (rk.find("point"))
            finish(k, rk);
          else
            ++k;
        }
        if (!out.empty() && now_ms() - out[0].due > kGiveUpMs) {
          std::lock_guard<std::mutex> lock(mu);
          ++r.attempted;
          r.failures.add("transport",
                         "no result within 60 s: " + out[0].arrival->job->reproducer);
          out.erase(out.begin());
        }
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu);
      while (!handoff.empty()) {
        out.push_back(handoff.front());
        handoff.pop_front();
      }
      for (const Pending& p : out) {
        ++r.attempted;
        r.failures.add("transport", std::string(e.what()) + ": " + p.arrival->job->reproducer);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    st.client_cpu_ms += thread_cpu_ms() - cpu0;
  });

  const double cpu0 = thread_cpu_ms();
  try {
    adc::serve::ServeClient c = connect(server);
    Yardstick yardstick = run_yardstick();
    st.yardsticks.push_back(yardstick);
    const double start = now_ms() + 2.0;
    st.first_due = start;
    double next_sample = start + 1000.0;
    double next_yardstick = start + kYardstickEveryMs;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Arrival& a = schedule[i];
      const double due = start + a.due_ms;
      // Sleep to just short of the due time, then spin: a timer wake-up is
      // late by a tenth of a millisecond or more, a tenth of what a warm
      // request takes, and latency is timed from the due time.
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(due - kSpinMs))));
      while (now_ms() < due) {
      }
      st.lag_ms.push_back(now_ms() - due);
      st.last_due = due;
      adc::JsonValue reply = c.request(a.job->payload);
      if (reply_ok(reply)) {
        std::lock_guard<std::mutex> lock(mu);
        handoff.push_back({static_cast<std::uint64_t>(reply.at("id").number), due, &a, yardstick});
        cv.notify_one();
      } else {
        std::lock_guard<std::mutex> lock(mu);
        ++st.refused;
        ++r.attempted;
        r.failures.add("refused", reply_text(reply) + ": " + a.job->reproducer);
      }
      if (sample_stats && now_ms() >= next_sample) {
        next_sample += 1000.0;
        adc::JsonValue stats = c.request("{\"op\":\"stats\"}");
        if (const adc::JsonValue* q = stats.find("queue"))
          st.queue_depth_max = std::max(st.queue_depth_max, q->at("depth").number);
      }
      if (now_ms() >= next_yardstick && i + 1 < schedule.size() &&
          start + schedule[i + 1].due_ms - now_ms() > kYardstickGapMs) {
        next_yardstick += kYardstickEveryMs;
        yardstick = run_yardstick();
        st.yardsticks.push_back(yardstick);
      }
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mu);
    ++r.attempted;
    r.failures.add("transport", std::string("generator: ") + e.what());
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    gen_done = true;
    st.client_cpu_ms += thread_cpu_ms() - cpu0;
  }
  cv.notify_one();
  collector.join();
  // Submitted after the collector's connection failed: never observed.
  for (const Pending& p : handoff) {
    ++r.attempted;
    r.failures.add("transport", "result never collected: " + p.arrival->job->reproducer);
  }
  return st;
}

// rate * seconds Poisson arrivals (a Poisson process given its count: the
// times are uniform).  The mix is exact, so that the seed moves arrival times
// and order but not what is sent: one request in every kColdEvery, at a
// seeded place, is cold, and the cold programs are the next ones of the pool
// in a seeded order; the others go through the warm set in seeded cycles.
std::vector<Arrival> schedule_for(double rate, double seconds, const std::vector<Job>& warm,
                                  const std::vector<Job>& cold, std::size_t& next_cold,
                                  std::uint64_t& state) {
  const std::size_t n = static_cast<std::size_t>(rate * seconds);
  std::vector<double> times(n);
  for (double& t : times)
    t = static_cast<double>(mix64(state) >> 11) / 9007199254740992.0 * seconds * 1e3;
  std::sort(times.begin(), times.end());
  std::vector<bool> is_cold(n, false);
  std::size_t k = 0;
  for (std::size_t block = 0; block < n; block += kColdEvery) {
    std::size_t slot = block + mix64(state) % kColdEvery;
    if (slot < n && next_cold + k < cold.size()) {
      is_cold[slot] = true;
      ++k;
    }
  }
  std::vector<std::size_t> cold_order = shuffled(k, state);
  std::vector<Arrival> out;
  std::vector<std::size_t> cycle;
  for (std::size_t i = 0, used = 0; i < n; ++i) {
    if (is_cold[i]) {
      out.push_back({times[i], &cold[next_cold + cold_order[used++]], warm.size(), true});
      continue;
    }
    if (cycle.empty()) cycle = shuffled(warm.size(), state);
    out.push_back({times[i], &warm[cycle.back()], cycle.back(), false});
    cycle.pop_back();
  }
  next_cold += k;
  return out;
}

// The rate ladder: the same mix at rising rates on the primed daemon, and
// the highest rate whose p95 stays within 50 ms with no refusal and no
// backlog left when the arrivals stop.
void rate_ladder(const adc::serve::ServeServer& server, const std::vector<Job>& warm,
                 const std::vector<Job>& cold, std::size_t& next_cold,
                 std::uint64_t& state, RunResult& r) {
  double best = 0.0;
  for (double rate : {100.0, 200.0, 400.0, 800.0}) {
    RunResult step;
    LoopStats st = open_loop(server, schedule_for(rate, 2.0, warm, cold, next_cold, state),
                             warm.size() + 1, false, step);
    // Refusals are what the ladder measures; any other failure is real.
    r.attempted += step.attempted - st.refused;
    for (const auto& [cls, examples] : step.failures.examples) {
      if (cls == "refused") continue;
      for (const auto& ex : examples) r.failures.add(cls, ex);
      r.failures.counts[cls] += step.failures.counts[cls] - examples.size();
    }
    double p95 = percentile(st.latency_ms, 0.95);
    double drain = st.last_done - st.last_due;
    const std::string tag = "serve.ladder." + std::to_string(static_cast<int>(rate));
    r.extra(tag + ".latency_ms_p95", p95, "ms");
    r.extra(tag + ".refused", static_cast<double>(st.refused), "count");
    if (p95 <= 50.0 && step.failures.total() == 0 && drain <= 100.0) best = rate;
  }
  r.extra("serve.max_rate_rps", best, "1/s");
}

}  // namespace

void serve_probe(const std::vector<const Job*>& jobs, RunResult& r) {
  auto server = start_server();
  std::vector<double> overhead, round;
  try {
    adc::serve::ServeClient c = connect(*server);
    for (std::size_t k = 0; k < std::min<std::size_t>(jobs.size(), 12); ++k) {
      round_trip(c, *jobs[k]);  // prime
      for (int rep = 0; rep < 5; ++rep) {
        double s = now_ms();
        adc::JsonValue reply = round_trip(c, *jobs[k]);
        double ms = now_ms() - s;
        round.push_back(ms);
        overhead.push_back(ms - reply.at("point").at("total_us").number / 1e3);
      }
    }
  } catch (const std::exception& e) {
    r.problems.push_back(std::string("serve probe: ") + e.what());
  }
  stop_server(*server);
  r.metric("serve.overhead_ms_p50", percentile(overhead, 0.5), "ms");
  r.extra("serve.roundtrip_ms_p50", percentile(round, 0.5), "ms");
}

RunResult run_serve_mix(const Options& o) {
  RunResult r;
  std::unique_ptr<adc::serve::ServeServer> server;
  std::vector<Job> warm, cold;
  std::vector<Arrival> schedule;
  std::size_t next_cold = 0;
  std::uint64_t state = o.seed;
  const GenShape cold_shape{8, 12};  // statements of a cold program

  auto teardown = [&] {
    if (server) stop_server(*server);
    server.reset();
  };
  SetupTime setup = timed_setup(teardown, [&] {
    server = start_server();
    std::vector<Job> w;
    for (const std::string& script : adc::gt_ablation_grid(true))
      w.push_back(builtin_job("diffeq", script));
    for (const auto& b : adc::builtin_benchmarks())
      if (b.name != "diffeq") w.push_back(builtin_job(b.name, kFullRecipe));
    adc::serve::ServeClient c = connect(*server);
    RunResult primed;
    for (const Job& j : w) check_reply(round_trip(c, j), j, primed);
    if (primed.failures.total() > 0)
      r.problems.push_back("priming the warm set failed " +
                           std::to_string(primed.failures.total()) + " time(s)");
    // Enough for the loop and a traced run's rate ladder (3000 requests).
    const std::size_t cold_needed =
        static_cast<std::size_t>(kRate * loop_budget_ms(o) / 1e3 + 3000) / kColdEvery + 1;
    warm = std::move(w);
    cold = fixed_corpus(kColdKey, cold_needed, cold_shape, o.seed);
    state = o.seed;
    next_cold = 0;
    schedule = schedule_for(kRate, loop_budget_ms(o) / 1e3, warm, cold, next_cold, state);
  });

  RuntimeCounters before;
  before.add(server->executor());
  const double cpu0 = process_cpu_ms();
  LoopStats st = open_loop(*server, schedule, warm.size() + 1, o.trace, r);
  const double cpu = process_cpu_ms() - cpu0 - st.client_cpu_ms;
  const double wall = st.last_done - st.first_due;
  // Latency per warm point (and one group for the cold programs): their
  // sims differ, and a median over the mixture sat between its modes.  The
  // daemon's CPU cannot be split by request: one mean for the run, scaled
  // by the median of the generator's yardstick readings.
  Samples s = std::move(st.by_group);
  std::vector<double> yard_wall, yard_cpu;
  for (const Yardstick& y : st.yardsticks) {
    yard_wall.push_back(y.wall_ms);
    yard_cpu.push_back(y.cpu_ms);
  }
  const double per_request = cpu / static_cast<double>(st.latency_ms.size());
  s.measured_cpu_ms = {{per_request}};
  s.cpu_ms = {{per_request * kYardstickRefMs / percentile(yard_cpu, 0.5)}};
  s.yardstick_ms = yard_wall;
  end_to_end_metrics(r, o, setup, s, wall);
  r.extra("latency_ms_p99", percentile(st.latency_ms, 0.99), "ms");
  const double lag_p99 = percentile(st.lag_ms, 0.99);
  r.extra("serve.gen_lag_ms_p99", lag_p99, "ms");
  r.extra("serve.refused", static_cast<double>(st.refused), "count");
  if (o.trace) r.extra("serve.queue_depth_max", st.queue_depth_max, "count");
  if (lag_p99 > 10.0) r.invalid.push_back("the generator ran late (lag p99 > 10 ms)");

  if (o.trace) {
    RuntimeCounters after;
    after.add(server->executor());
    runtime_metrics(r, after.minus(before), cpu, wall);
    std::vector<const Job*> replay;
    for (const Job& j : warm) replay.push_back(&j);
    for (std::size_t i = 0; i < next_cold; ++i) replay.push_back(&cold[i]);
    layer_metrics(replay, warm.size(), replay_budget_ms(o), false, o, r);
    serve_probe(replay, r);
    rate_ladder(*server, warm, cold, next_cold, state, r);
  }
  stop_server(*server);
  return r;
}

}  // namespace bench
