#pragma once
// The BENCH JSON schema (kind "adc-bench", version 1) — the machine-readable
// benchmark record `adc_bench` emits, and the diff logic
// `adc_bench --baseline --check` gates regressions with.
//
// One BenchReport is one measurement session: an environment fingerprint
// (git sha, compiler, flags, core count — the things that make two numbers
// comparable or not), the measurement policy (warmup/repeat/outlier
// handling), and one BenchRecord per benchmark with wall-clock and CPU
// sample statistics (p50/p90/p99), peak RSS, free-form counters (cache hit
// rates, simulated latencies) and optional per-stage timings lifted from
// the FlowExecutor.
//
// The schema is deliberately closed: emit (write_json), parse
// (parse_bench_report), validate (validate_bench_json — what
// `adc_obs_check --bench` runs) and compare (compare_reports) all live
// here, so a file the validator passes also loads for `adc_bench --diff`.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace adc {

class JsonWriter;
struct JsonValue;

namespace perf {

inline constexpr const char* kBenchKind = "adc-bench";
inline constexpr int kBenchVersion = 1;

// Sample statistics in microseconds.  Quantiles are nearest-rank over the
// retained samples, so p50 <= p90 <= p99 and min <= p50, p99 <= max hold
// by construction — validate_bench_json re-checks them on parsed files.
struct Stat {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

// Computes a Stat from raw samples (any order).  With trim_outliers and
// >= 5 samples, the single largest sample is excluded from p50/p90/mean
// (one scheduler hiccup must not shift the medians) but still reported as
// max / p99.
Stat stat_from_samples(std::vector<double> samples, bool trim_outliers = true);

// One per-stage timing row (mirrors runtime StageTiming, kept
// dependency-free here).
struct BenchStage {
  std::string stage;
  std::uint64_t us = 0;
  std::uint64_t cpu_us = 0;
  bool cached = false;
};

struct BenchRecord {
  std::string suite;
  std::string name;  // globally unique within a report
  std::uint64_t repeats = 0;
  Stat wall_us;
  Stat cpu_us;
  std::int64_t peak_rss_kb = 0;
  // Free-form scalar results: cache hit rates, simulated latencies, ...
  std::map<std::string, double> counters;
  // Per-stage breakdown of the last repetition (FlowExecutor timings).
  std::vector<BenchStage> stages;
  // Lifecycle of the measurement itself: "ok", "timeout" (the per-suite
  // deadline fired; stats are zeroed) or "error" (the body threw; `error`
  // carries the message).  Emitted to JSON only when != "ok" so clean
  // reports are byte-identical to schema v1 fixtures.
  std::string status = "ok";
  std::string error;
};

// The things that make two reports comparable (or explain why they are
// not): same sha + compiler + flags + cores means a diff is meaningful.
struct BenchEnv {
  std::string git_sha;
  std::string compiler;
  std::string flags;
  std::string build_type;
  std::string os;
  std::string timestamp;  // ISO-8601 UTC
  unsigned cores = 0;
};

struct BenchPolicy {
  unsigned warmup = 0;
  unsigned repeats = 0;
  bool trim_outliers = true;
  bool quick = false;
};

struct BenchReport {
  int version = kBenchVersion;
  std::string tool;  // the emitting program, e.g. "adc_bench"
  BenchEnv env;
  BenchPolicy policy;
  std::vector<BenchRecord> benchmarks;

  const BenchRecord* find(const std::string& name) const;
};

// --- serialization ---------------------------------------------------------

void write_json(JsonWriter& w, const Stat& s);
void write_json(JsonWriter& w, const BenchRecord& r);
void write_json(JsonWriter& w, const BenchReport& rep);
std::string to_json(const BenchReport& rep, bool pretty = true);

// Parses a BENCH document; throws std::runtime_error on schema violations
// (wrong kind/version, missing members, malformed statistics).
BenchReport parse_bench_report(const JsonValue& doc);
BenchReport parse_bench_report(const std::string& text);

// Schema + internal-consistency check without throwing: every problem as
// one line (empty = valid).  This is what `adc_obs_check --bench` prints.
std::vector<std::string> validate_bench_json(const JsonValue& doc);

// --- baseline comparison ---------------------------------------------------

struct CompareOptions {
  double threshold_pct = 10.0;  // p50 wall growth beyond this is a regression
  // Benchmarks whose baseline AND current p50 sit under this floor are
  // never flagged: sub-threshold timings are scheduler noise.
  double min_us = 50.0;
};

struct BenchDelta {
  std::string name;
  double baseline_p50 = 0.0;
  double current_p50 = 0.0;
  double pct = 0.0;  // (current - baseline) / baseline * 100
  bool regressed = false;
  bool only_in_baseline = false;  // benchmark disappeared
  bool only_in_current = false;   // new benchmark (never a regression)
  bool errored = false;  // current record's status != "ok" (always regressed)
};

std::vector<BenchDelta> compare_reports(const BenchReport& baseline,
                                        const BenchReport& current,
                                        const CompareOptions& opts = {});

// True when any delta is a regression or a benchmark vanished.
bool has_regression(const std::vector<BenchDelta>& deltas);

// Human rendering of a comparison (report/table.hpp format).
std::string render_deltas(const std::vector<BenchDelta>& deltas,
                          const CompareOptions& opts);

}  // namespace perf
}  // namespace adc
