#include "perf/record.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

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

double num(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  if (!m || !m->is_number())
    throw std::runtime_error(std::string("bench json: missing number '") + key + "'");
  return m->number;
}

std::string str(const JsonValue& v, const char* key) {
  const JsonValue* m = v.find(key);
  if (!m || !m->is_string())
    throw std::runtime_error(std::string("bench json: missing string '") + key + "'");
  return m->string;
}

Stat parse_stat(const JsonValue& v) {
  Stat s;
  s.p50 = num(v, "p50");
  s.p90 = num(v, "p90");
  s.p99 = num(v, "p99");
  s.mean = num(v, "mean");
  s.min = num(v, "min");
  s.max = num(v, "max");
  return s;
}

}  // namespace

BenchReport parse_bench_report(const JsonValue& doc) {
  if (!doc.is_object()) throw std::runtime_error("bench json: not an object");
  if (str(doc, "kind") != kBenchKind)
    throw std::runtime_error("bench json: kind is not '" + std::string(kBenchKind) + "'");
  BenchReport rep;
  rep.version = static_cast<int>(num(doc, "version"));
  if (rep.version != kBenchVersion)
    throw std::runtime_error("bench json: unsupported version " +
                             std::to_string(rep.version));
  rep.tool = str(doc, "tool");
  const JsonValue& env = doc.at("env");
  rep.env.git_sha = str(env, "git_sha");
  rep.env.compiler = str(env, "compiler");
  rep.env.flags = str(env, "flags");
  rep.env.build_type = str(env, "build_type");
  rep.env.os = str(env, "os");
  rep.env.timestamp = str(env, "timestamp");
  rep.env.cores = static_cast<unsigned>(num(env, "cores"));
  const JsonValue& pol = doc.at("policy");
  rep.policy.warmup = static_cast<unsigned>(num(pol, "warmup"));
  rep.policy.repeats = static_cast<unsigned>(num(pol, "repeats"));
  rep.policy.trim_outliers = pol.at("trim_outliers").boolean;
  rep.policy.quick = pol.at("quick").boolean;
  const JsonValue* benches = doc.find("benchmarks");
  if (!benches || !benches->is_array())
    throw std::runtime_error("bench json: missing benchmarks array");
  for (const JsonValue& b : benches->array) {
    BenchRecord r;
    r.name = str(b, "name");
    r.suite = str(b, "suite");
    r.repeats = static_cast<std::uint64_t>(num(b, "repeats"));
    r.wall_us = parse_stat(b.at("wall_us"));
    r.cpu_us = parse_stat(b.at("cpu_us"));
    r.peak_rss_kb = static_cast<std::int64_t>(num(b, "peak_rss_kb"));
    if (const JsonValue* s = b.find("status"); s && s->is_string())
      r.status = s->string;
    if (const JsonValue* e = b.find("error"); e && e->is_string())
      r.error = e->string;
    if (const JsonValue* c = b.find("counters"); c && c->is_object())
      for (const auto& [k, v] : c->object) r.counters[k] = v.number;
    if (const JsonValue* st = b.find("stages"); st && st->is_array())
      for (const JsonValue& s : st->array) {
        BenchStage stage;
        stage.stage = str(s, "stage");
        stage.us = static_cast<std::uint64_t>(num(s, "us"));
        stage.cpu_us = static_cast<std::uint64_t>(num(s, "cpu_us"));
        stage.cached = s.at("cached").boolean;
        r.stages.push_back(std::move(stage));
      }
    rep.benchmarks.push_back(std::move(r));
  }
  return rep;
}

BenchReport parse_bench_report(const std::string& text) {
  return parse_bench_report(parse_json(text));
}

std::vector<std::string> validate_bench_json(const JsonValue& doc) {
  std::vector<std::string> problems;
  auto bad = [&](const std::string& what) { problems.push_back(what); };
  if (!doc.is_object()) {
    bad("document is not an object");
    return problems;
  }
  const JsonValue* kind = doc.find("kind");
  if (!kind || !kind->is_string() || kind->string != kBenchKind)
    bad("kind is not 'adc-bench'");
  const JsonValue* ver = doc.find("version");
  if (!ver || json_integer<int>(*ver) != kBenchVersion)
    bad("version is not " + std::to_string(kBenchVersion));
  for (const char* k : {"tool", "env", "policy"})
    if (!doc.find(k)) bad(std::string("missing '") + k + "'");
  if (const JsonValue* env = doc.find("env"); env && env->is_object()) {
    for (const char* k :
         {"git_sha", "compiler", "flags", "build_type", "os", "timestamp", "cores"})
      if (!env->find(k)) bad(std::string("env missing '") + k + "'");
    if (const JsonValue* c = env->find("cores"); c && c->is_number() && c->number < 1)
      bad("env.cores < 1");
  }
  // The members parse_bench_report requires, so a file this passes also
  // loads into adc_bench --diff.
  if (const JsonValue* pol = doc.find("policy")) {
    for (const char* k : {"warmup", "repeats"})
      if (const JsonValue* m = pol->find(k); !m || !m->is_number())
        bad(std::string("policy missing number '") + k + "'");
    for (const char* k : {"trim_outliers", "quick"})
      if (const JsonValue* m = pol->find(k); !m || !m->is_bool())
        bad(std::string("policy missing boolean '") + k + "'");
  }
  const JsonValue* benches = doc.find("benchmarks");
  if (!benches || !benches->is_array()) {
    bad("missing benchmarks array");
    return problems;
  }
  if (benches->array.empty()) bad("benchmarks array is empty");
  std::set<std::string> names;
  for (const JsonValue& b : benches->array) {
    const JsonValue* name = b.find("name");
    std::string label =
        name && name->is_string() ? name->string : "<unnamed benchmark>";
    if (!name || !name->is_string()) bad("benchmark missing 'name'");
    else if (!names.insert(name->string).second) bad("duplicate benchmark '" + label + "'");
    if (!b.find("suite")) bad(label + ": missing 'suite'");
    const JsonValue* reps = b.find("repeats");
    if (!reps || !reps->is_number() || reps->number < 1)
      bad(label + ": repeats < 1");
    for (const char* stat : {"wall_us", "cpu_us"}) {
      const JsonValue* s = b.find(stat);
      if (!s || !s->is_object()) {
        bad(label + ": missing '" + stat + "'");
        continue;
      }
      bool complete = true;
      for (const char* k : {"p50", "p90", "p99", "mean", "min", "max"}) {
        const JsonValue* m = s->find(k);
        if (!m || !m->is_number()) {
          bad(label + ": " + stat + " missing '" + k + "'");
          complete = false;
        } else if (m->number < 0) {
          bad(label + ": " + stat + "." + k + " is negative");
        }
      }
      if (!complete) continue;
      double p50 = s->at("p50").number, p90 = s->at("p90").number,
             p99 = s->at("p99").number, mn = s->at("min").number,
             mx = s->at("max").number;
      if (p50 > p90) bad(label + ": " + stat + " p50 > p90");
      if (p90 > p99) bad(label + ": " + stat + " p90 > p99");
      if (mn > p50) bad(label + ": " + stat + " min > p50");
      if (p99 > mx) bad(label + ": " + stat + " p99 > max");
    }
    if (const JsonValue* rss = b.find("peak_rss_kb");
        !rss || !rss->is_number() || rss->number < 0)
      bad(label + ": peak_rss_kb missing or negative");
    if (const JsonValue* st = b.find("status")) {
      if (!st->is_string() ||
          (st->string != "ok" && st->string != "timeout" && st->string != "error"))
        bad(label + ": status is not ok/timeout/error");
    }
    if (const JsonValue* st = b.find("stages"); st && st->is_array())
      for (const JsonValue& s : st->array) {
        if (const JsonValue* n = s.find("stage"); !n || !n->is_string())
          bad(label + ": stage missing string 'stage'");
        for (const char* k : {"us", "cpu_us"})
          if (const JsonValue* m = s.find(k); !m || !m->is_number())
            bad(label + ": stage missing number '" + k + "'");
        if (const JsonValue* c = s.find("cached"); !c || !c->is_bool())
          bad(label + ": stage missing boolean 'cached'");
      }
  }
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
