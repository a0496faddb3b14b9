#pragma once
// Shared pieces of the benchmark: clocks, resource usage, percentiles,
// failure accounting, the per-run result and the span recorder of the
// traced run.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen.hpp"

namespace bench {

// --- clocks and resource usage ---------------------------------------------
double now_ms();          // steady clock
double process_cpu_ms();  // user + system time of the whole process
double thread_cpu_ms();   // user + system time of the calling thread
double peak_rss_mb();     // high-water resident set of the process
unsigned online_cpus();   // CPUs this process may run on

// --- host speed ----------------------------------------------------------------
// The host is shared with other tenants, and from one minute to the next it
// ran the same compile up to half again as slowly, in wall and CPU time
// alike (benchmark/README.md, "Host speed").  The yardstick is a fixed
// piece of the benchmark's own work, no code of the flow's: inserts,
// lookups and a sort on a hash map, a tree map and a vector, the kind of
// work the flow's passes do.  It runs right after every timed operation,
// once untimed and then timed, so that the operation's cache footprint
// does not reach into it, and each gated time is the operation's time
// scaled by kYardstickRefMs over the yardstick's: what the operation takes
// with the host at its reference speed.
struct Yardstick {
  double wall_ms = 0, cpu_ms = 0;  // the timed pass, in wall and thread CPU time
};
// About the yardstick's median time on a 4-vCPU Xeon (the sizing host).
inline constexpr double kYardstickRefMs = 0.6;
Yardstick run_yardstick();

// --- statistics --------------------------------------------------------------
// Linear interpolation between order statistics; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);

// --- outcome of one checked operation ---------------------------------------
// Failure classes: error, deadlock_unexpected, wrong_registers, refused,
// transport.  The first five of each class keep their reproducer.
struct Failures {
  static constexpr std::size_t kExamples = 5;
  std::map<std::string, std::size_t> counts;
  std::map<std::string, std::vector<std::string>> examples;

  void add(const std::string& cls, const std::string& reproducer);
  std::size_t total() const;
};

// Every register of `want` is in `got` with the same value.
bool registers_match(const Registers& got, const Registers& want);

// The failure class of a finished design point, or "" when it is
// acceptable.  `status` is FlowStatus as printed ("ok", "deadlock",
// "error", ...); an ok point must have the reference registers.  A pinned
// corner (the four E8 recipes of the GT grid) may also deadlock or be
// refused with an error.
std::string classify(const std::string& status, bool registers_ok, bool pinned_corner);

// --- one run's result ---------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::size_t attempted = 0;
  Failures failures;
  // The known-defect probe's failures (reference.hpp): expected, reported
  // beside the run's own and never counted in them.
  Failures known_defects;
  // Checks on the run itself that are not one operation's output (priming,
  // replay agreement, the serve probe); any entry makes the run incorrect.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;  // the gated set for this mode
  std::vector<Metric> extras;   // printed and written, never gated
  // Validity of the measurement itself (host too small, generator late,
  // layers not covering the flow's time).
  std::vector<std::string> invalid;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void extra(const std::string& name, double value, const std::string& unit) {
    extras.push_back({name, value, unit});
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // traced run: where the trace and layer JSON go
};

// --- spans of the traced run ----------------------------------------------------
// Spans are recorded in memory around the benchmark's own calls into each
// layer and written out when the run ends.  A span's parent is the span
// open on the recorder when it began.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0, end_us = 0.0;
    int parent = -1;
    int point = -1;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int begin(const std::string& name, int point);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Duration minus the part covered by direct children, in ms.
  std::vector<double> self_ms() const;

  // Chrome trace_event JSON (one complete event per span).
  std::string chrome_trace() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, int point)
      : rec_(rec), id_(rec.enabled() ? rec.begin(name, point) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) rec_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace bench
