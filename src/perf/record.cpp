#include "perf/record.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "report/json.hpp"
#include "report/json_parse.hpp"
#include "report/table.hpp"

namespace adc {
namespace perf {

Stat stat_from_samples(std::vector<double> samples, bool trim_outliers) {
  Stat s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  double sum = 0.0;
  for (double v : samples) sum += v;
  // p99 and max always see every sample; the trimmed view feeds the
  // location statistics.
  auto rank = [](const std::vector<double>& v, double q) {
    auto i = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    if (i > 0) --i;
    return v[i];
  };
  s.p99 = rank(samples, 0.99);
  std::size_t n = samples.size();
  if (trim_outliers && n >= 5) {
    sum -= samples.back();
    samples.pop_back();
  }
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = rank(samples, 0.50);
  s.p90 = rank(samples, 0.90);
  // Trimming never inverts the ordering, but guard against FP surprises.
  s.p90 = std::max(s.p90, s.p50);
  s.p99 = std::max(s.p99, s.p90);
  return s;
}

const BenchRecord* BenchReport::find(const std::string& name) const {
  for (const auto& b : benchmarks)
    if (b.name == name) return &b;
  return nullptr;
}

void write_json(JsonWriter& w, const Stat& s) {
  w.begin_object();
  w.kv("p50", s.p50);
  w.kv("p90", s.p90);
  w.kv("p99", s.p99);
  w.kv("mean", s.mean);
  w.kv("min", s.min);
  w.kv("max", s.max);
  w.end_object();
}

void write_json(JsonWriter& w, const BenchRecord& r) {
  w.begin_object();
  w.kv("name", r.name);
  w.kv("suite", r.suite);
  w.kv("repeats", r.repeats);
  w.key("wall_us");
  write_json(w, r.wall_us);
  w.key("cpu_us");
  write_json(w, r.cpu_us);
  w.kv("peak_rss_kb", r.peak_rss_kb);
  if (r.status != "ok") {
    w.kv("status", r.status);
    if (!r.error.empty()) w.kv("error", r.error);
  }
  w.key("counters");
  w.begin_object();
  for (const auto& [k, v] : r.counters) w.kv(k, v);
  w.end_object();
  w.key("stages");
  w.begin_array();
  for (const auto& st : r.stages) {
    w.begin_object();
    w.kv("stage", st.stage);
    w.kv("us", st.us);
    w.kv("cpu_us", st.cpu_us);
    w.kv("cached", st.cached);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_json(JsonWriter& w, const BenchReport& rep) {
  w.begin_object();
  w.kv("kind", kBenchKind);
  w.kv("version", static_cast<std::int64_t>(rep.version));
  w.kv("tool", rep.tool);
  w.key("env");
  w.begin_object();
  w.kv("git_sha", rep.env.git_sha);
  w.kv("compiler", rep.env.compiler);
  w.kv("flags", rep.env.flags);
  w.kv("build_type", rep.env.build_type);
  w.kv("os", rep.env.os);
  w.kv("timestamp", rep.env.timestamp);
  w.kv("cores", rep.env.cores);
  w.end_object();
  w.key("policy");
  w.begin_object();
  w.kv("warmup", rep.policy.warmup);
  w.kv("repeats", rep.policy.repeats);
  w.kv("trim_outliers", rep.policy.trim_outliers);
  w.kv("quick", rep.policy.quick);
  w.end_object();
  w.key("benchmarks");
  w.begin_array();
  for (const auto& b : rep.benchmarks) write_json(w, b);
  w.end_array();
  w.end_object();
}

std::string to_json(const BenchReport& rep, bool pretty) {
  JsonWriter w(pretty);
  write_json(w, rep);
  return w.str();
}

namespace {

Stat read_stat(const JsonReader& bench, const char* name,
               const std::string& label, std::vector<std::string>& problems) {
  Stat s;
  const JsonValue* v = bench.object(name);
  if (!v) return s;
  JsonReader r(*v, label + ": " + name, problems);
  const std::size_t before = problems.size();
  for (auto [key, field] : {std::pair{"p50", &s.p50}, std::pair{"p90", &s.p90},
                            std::pair{"p99", &s.p99}, std::pair{"mean", &s.mean},
                            std::pair{"min", &s.min}, std::pair{"max", &s.max}}) {
    *field = r.required<double>(key);
    if (*field < 0) r.problem(std::string(key) + " is negative");
  }
  if (problems.size() != before) return s;
  if (s.p50 > s.p90) r.problem("p50 > p90");
  if (s.p90 > s.p99) r.problem("p90 > p99");
  if (s.min > s.p50) r.problem("min > p50");
  if (s.p99 > s.max) r.problem("p99 > max");
  return s;
}

// The one reading of the schema: every member, type and invariant, with
// each defect appended to `problems`.
BenchReport read_bench_report(const JsonValue& doc,
                              std::vector<std::string>& problems) {
  BenchReport rep;
  JsonReader r(doc, "", problems);
  if (r.required<std::string>("kind") != kBenchKind)
    r.problem("kind is not '" + std::string(kBenchKind) + "'");
  rep.version = r.required<int>("version");
  if (rep.version != kBenchVersion)
    r.problem("version is not " + std::to_string(kBenchVersion));
  rep.tool = r.required<std::string>("tool");
  if (const JsonValue* env = r.object("env")) {
    JsonReader e(*env, "env", problems);
    rep.env.git_sha = e.required<std::string>("git_sha");
    rep.env.compiler = e.required<std::string>("compiler");
    rep.env.flags = e.required<std::string>("flags");
    rep.env.build_type = e.required<std::string>("build_type");
    rep.env.os = e.required<std::string>("os");
    rep.env.timestamp = e.required<std::string>("timestamp");
    rep.env.cores = e.required<unsigned>("cores");
    if (rep.env.cores < 1) e.problem("cores < 1");
  }
  if (const JsonValue* pol = r.object("policy")) {
    JsonReader p(*pol, "policy", problems);
    rep.policy.warmup = p.required<unsigned>("warmup");
    rep.policy.repeats = p.required<unsigned>("repeats");
    rep.policy.trim_outliers = p.required<bool>("trim_outliers");
    rep.policy.quick = p.required<bool>("quick");
  }
  const JsonValue* benches = r.array("benchmarks");
  if (!benches) return rep;
  if (benches->array.empty()) r.problem("benchmarks array is empty");
  std::set<std::string> names;
  for (const JsonValue& b : benches->array) {
    BenchRecord rec;
    JsonReader br(b, "benchmark", problems);
    rec.name = br.required<std::string>("name");
    if (!rec.name.empty()) {
      if (!names.insert(rec.name).second)
        br.problem("duplicate benchmark '" + rec.name + "'");
      br = JsonReader(b, rec.name, problems);
    }
    const std::string label = rec.name.empty() ? "benchmark" : rec.name;
    rec.suite = br.required<std::string>("suite");
    rec.repeats = br.required<std::uint64_t>("repeats");
    if (rec.repeats < 1) br.problem("repeats < 1");
    rec.wall_us = read_stat(br, "wall_us", label, problems);
    rec.cpu_us = read_stat(br, "cpu_us", label, problems);
    rec.peak_rss_kb = br.required<std::int64_t>("peak_rss_kb");
    if (rec.peak_rss_kb < 0) br.problem("peak_rss_kb missing or negative");
    rec.status = br.optional<std::string>("status").value_or("ok");
    if (rec.status != "ok" && rec.status != "timeout" && rec.status != "error")
      br.problem("status is not ok/timeout/error");
    rec.error = br.optional<std::string>("error").value_or("");
    if (const JsonValue* c = br.object("counters", false)) {
      JsonReader cr(*c, label + ": counters", problems);
      for (const auto& [k, v] : c->object) rec.counters[k] = cr.required<double>(k.c_str());
    }
    if (const JsonValue* st = br.array("stages", false))
      for (const JsonValue& s : st->array) {
        JsonReader sr(s, label + ": stage", problems);
        BenchStage stage;
        stage.stage = sr.required<std::string>("stage");
        stage.us = sr.required<std::uint64_t>("us");
        stage.cpu_us = sr.required<std::uint64_t>("cpu_us");
        stage.cached = sr.required<bool>("cached");
        rec.stages.push_back(std::move(stage));
      }
    rep.benchmarks.push_back(std::move(rec));
  }
  return rep;
}

}  // namespace

BenchReport parse_bench_report(const JsonValue& doc) {
  std::vector<std::string> problems;
  BenchReport rep = read_bench_report(doc, problems);
  throw_if_problems("bench json", problems);
  return rep;
}

BenchReport parse_bench_report(const std::string& text) {
  return parse_bench_report(parse_json(text));
}

std::vector<std::string> validate_bench_json(const JsonValue& doc) {
  std::vector<std::string> problems;
  read_bench_report(doc, problems);
  return problems;
}

std::vector<BenchDelta> compare_reports(const BenchReport& baseline,
                                        const BenchReport& current,
                                        const CompareOptions& opts) {
  std::vector<BenchDelta> out;
  for (const auto& b : baseline.benchmarks) {
    BenchDelta d;
    d.name = b.name;
    d.baseline_p50 = b.wall_us.p50;
    const BenchRecord* cur = current.find(b.name);
    if (!cur) {
      d.only_in_baseline = true;
      d.regressed = true;  // a vanished benchmark breaks the trajectory
      out.push_back(std::move(d));
      continue;
    }
    d.current_p50 = cur->wall_us.p50;
    if (cur->status != "ok") {
      // A benchmark that timed out or crashed has no meaningful timing;
      // it gates the check exactly like a vanished one.
      d.errored = true;
      d.regressed = true;
      out.push_back(std::move(d));
      continue;
    }
    if (d.baseline_p50 > 0.0)
      d.pct = (d.current_p50 - d.baseline_p50) / d.baseline_p50 * 100.0;
    bool above_floor = d.baseline_p50 >= opts.min_us || d.current_p50 >= opts.min_us;
    d.regressed = above_floor && d.pct > opts.threshold_pct;
    out.push_back(std::move(d));
  }
  for (const auto& c : current.benchmarks) {
    if (baseline.find(c.name)) continue;
    BenchDelta d;
    d.name = c.name;
    d.current_p50 = c.wall_us.p50;
    d.only_in_current = true;
    out.push_back(std::move(d));
  }
  return out;
}

bool has_regression(const std::vector<BenchDelta>& deltas) {
  for (const auto& d : deltas)
    if (d.regressed) return true;
  return false;
}

std::string render_deltas(const std::vector<BenchDelta>& deltas,
                          const CompareOptions& opts) {
  Table t({"benchmark", "baseline p50 us", "current p50 us", "delta", "verdict"});
  for (const auto& d : deltas) {
    char p50a[32], p50b[32], pct[32];
    std::snprintf(p50a, sizeof p50a, "%.1f", d.baseline_p50);
    std::snprintf(p50b, sizeof p50b, "%.1f", d.current_p50);
    std::snprintf(pct, sizeof pct, "%+.1f%%", d.pct);
    const char* verdict = d.only_in_baseline ? "MISSING"
                          : d.errored         ? "ERRORED"
                          : d.only_in_current ? "new"
                          : d.regressed       ? "REGRESSED"
                                              : "ok";
    t.add_row({d.name, d.only_in_current ? "-" : p50a,
               d.only_in_baseline ? "-" : p50b,
               d.only_in_baseline || d.only_in_current ? "-" : pct, verdict});
  }
  std::string out = t.to_string();
  char tail[96];
  std::snprintf(tail, sizeof tail,
                "threshold: +%.0f%% on p50 wall (floor %.0f us)\n",
                opts.threshold_pct, opts.min_us);
  return out + tail;
}

}  // namespace perf
}  // namespace adc
