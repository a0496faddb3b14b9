#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>

namespace bench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double usage_ms(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

}  // namespace

double process_cpu_ms() { return usage_ms(RUSAGE_SELF); }
double thread_cpu_ms() { return usage_ms(RUSAGE_THREAD); }

double peak_rss_mb() {
  // VmHWM, not ru_maxrss: the latter survives exec, so it would report the
  // launching process's footprint whenever that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

namespace {

double thread_clock_ms() {
  // Not getrusage: for the calling thread it leaves out the time since the
  // scheduler last looked, up to a tick, more than a yardstick takes.
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

// One pass of the yardstick's work; returns a checksum so that nothing is
// optimized away.  It allocates from the process heap, as the flow does: a
// yardstick in an arena of its own followed library_cold's speed half as
// closely (20-s windows spread by 5.6% instead of 3.0%).
std::uint64_t yardstick_pass() {
  std::unordered_map<std::uint64_t, std::uint64_t> hashed;
  std::map<std::uint64_t, std::uint32_t> ordered;
  std::vector<std::uint64_t> keys;
  std::uint64_t state = 11, sum = 0;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t x = mix64(state);
    hashed[x % 4096] += x;
    ++ordered[x % 1024];
    keys.push_back(x);
  }
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t x : keys) {
    auto h = hashed.find(x % 4096);
    if (h != hashed.end()) sum += h->second;
    auto o = ordered.lower_bound(x % 1024);
    if (o != ordered.end()) sum += o->second;
  }
  return sum;
}

volatile std::uint64_t yardstick_sink;

}  // namespace

Yardstick run_yardstick() {
  // The untimed pass brings the code, and the heap chunks the timed pass
  // will reuse, into the caches.
  yardstick_sink = yardstick_pass();
  Yardstick y;
  double wall = now_ms(), cpu = thread_clock_ms();
  yardstick_sink = yardstick_pass();
  y.wall_ms = now_ms() - wall;
  y.cpu_ms = thread_clock_ms() - cpu;
  return y;
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

void Failures::add(const std::string& cls, const std::string& reproducer) {
  ++counts[cls];
  auto& ex = examples[cls];
  if (ex.size() < kExamples) ex.push_back(reproducer);
}

std::size_t Failures::total() const {
  std::size_t n = 0;
  for (const auto& [cls, count] : counts) n += count;
  return n;
}

bool registers_match(const Registers& got, const Registers& want) {
  for (const auto& [reg, value] : want) {
    auto it = got.find(reg);
    if (it == got.end() || it->second != value) return false;
  }
  return true;
}

std::string classify(const std::string& status, bool registers_ok, bool pinned_corner) {
  if (status == "ok") return registers_ok ? "" : "wrong_registers";
  if (status == "deadlock") return pinned_corner ? "" : "deadlock_unexpected";
  // A structured refusal of a pinned corner is the flow declining a recipe
  // it knows to be unsafe, not a wrong answer.
  if (status == "error" && pinned_corner) return "";
  return "error";
}

int SpanRecorder::begin(const std::string& name, int point) {
  Span s;
  s.name = name;
  s.start_us = now_ms() * 1e3;
  s.parent = open_.empty() ? -1 : open_.back();
  s.point = point;
  spans_.push_back(std::move(s));
  int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = now_ms() * 1e3;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> SpanRecorder::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = (spans_[i].end_us - spans_[i].start_us) / 1e3;
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= (s.end_us - s.start_us) / 1e3;
  return self;
}

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string SpanRecorder::chrome_trace() const {
  // One track; spans were opened in start order, so ts never decreases.
  // A span too short for the clock still gets a positive duration.
  std::string out = "{\"traceEvents\":[\n";
  out +=
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"adc_benchmark replay\"}}";
  double origin = spans_.empty() ? 0.0 : spans_.front().start_us;
  char buf[128];
  for (const Span& s : spans_) {
    double dur = std::max(s.end_us - s.start_us, 0.001);
    out += ",\n{\"name\":\"" + escape(s.name) + "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,";
    std::snprintf(buf, sizeof buf,
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"point\":%d,\"parent\":%d}}",
                  s.start_us - origin, dur, s.point, s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace bench
