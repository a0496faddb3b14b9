// adc_obs_check — validates the observability artifacts the flow emits.
//
//   adc_obs_check [--trace FILE] [--provenance FILE] [--vcd FILE]
//                 [--bench FILE] [--dse-profile FILE] [--cache-dir DIR]
//                 [--access-log FILE]
//                 [--prom FILE | --prom-fetch HOST:PORT [--prom-out FILE]]
//                 [--catalogue FILE]
//
// Used by the CI smoke test: after `adc_synth --trace-out --provenance
// --vcd` runs a benchmark, this tool proves the three artifacts are
// well-formed without opening Perfetto/GTKWave —
//
//  * trace: Chrome trace_event JSON, every event carries name/ph/pid/tid
//    (plus ts for timed phases), B/E pairs balance per track, complete
//    ("X") events carry a duration, and time never moves backwards on a
//    track;
//  * provenance: parses, names its benchmark/script, and its embedded
//    "reconciliation" check list is empty (the ledgers balance);
//  * vcd: declarations close with $enddefinitions, every value change
//    references a declared identifier code, timestamps are non-decreasing,
//    and at least one change was recorded;
//  * bench: a BENCH JSON report (kind "adc-bench" v1) with a complete
//    environment fingerprint, unique benchmark names and internally
//    consistent statistics (p50 <= p90 <= p99, min <= p50, p99 <= max);
//  * cache-dir: every *.adcstage file in a disk-tier stage cache directory
//    decodes cleanly (magic, version, length, checksum) — an offline
//    integrity audit of what a crashed or fault-injected run left behind;
//  * access-log: the daemon's JSONL access log parses and matches the
//    schema in docs/OBSERVABILITY.md (obs::AccessLog::validate);
//  * dse-profile: a dse_profile.json store (kind "adc-dse-profile" v1,
//    analysis/profile.hpp) — schema plus the internal books: per-point
//    phase segments sum to the attributed total, ok points attribute
//    >= 95% of their cycle time, transistor counts re-derive from the
//    area model, and the frontier/dominated sets partition the simulated
//    ok points with every dominated point naming a frontier dominator;
//  * prom / prom-fetch: a Prometheus text exposition — from a file or
//    scraped live off a daemon's /metrics — satisfies the format
//    invariants (TYPE before samples, cumulative buckets, +Inf == _count);
//    --prom-out saves the scraped body, --catalogue diffs the exposed
//    metric-family set against a committed list, so a family silently
//    appearing or vanishing fails CI.
//
// Exit 0 when every given artifact validates; 1 otherwise with one line per
// problem.

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/profile.hpp"
#include "obs/access_log.hpp"
#include "obs/http.hpp"
#include "obs/prometheus.hpp"
#include "perf/record.hpp"
#include "report/json_parse.hpp"
#include "runtime/disk_cache.hpp"

using namespace adc;

namespace {

int errors = 0;

void fail(const std::string& what) {
  std::fprintf(stderr, "adc_obs_check: %s\n", what.c_str());
  ++errors;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void check_trace(const std::string& path) {
  JsonValue doc = parse_json(slurp(path));
  const JsonValue* events = doc.find("traceEvents");
  if (!events || !events->is_array()) {
    fail(path + ": no traceEvents array");
    return;
  }
  if (events->array.empty()) fail(path + ": empty trace");
  std::map<std::int64_t, int> depth;
  std::map<std::int64_t, double> last_ts;
  std::size_t spans = 0;
  for (const JsonValue& ev : events->array) {
    for (const char* key : {"name", "ph", "pid", "tid"})
      if (!ev.find(key)) {
        fail(path + ": event missing '" + key + "'");
        return;
      }
    const std::string& ph = ev.at("ph").string;
    if (ph == "M") continue;  // metadata (process/thread names): no clock
    if (!ev.find("ts")) {
      fail(path + ": event missing 'ts'");
      return;
    }
    const std::optional<std::int64_t> track = json_integer<std::int64_t>(ev.at("tid"));
    if (!track) {
      fail(path + ": tid is not an integer");
      return;
    }
    const std::int64_t tid = *track;
    double ts = ev.at("ts").number;
    if (last_ts.count(tid) && ts < last_ts[tid])
      fail(path + ": time moved backwards on track " + std::to_string(tid));
    last_ts[tid] = ts;
    if (ph == "B") {
      ++depth[tid];
      ++spans;
    } else if (ph == "E") {
      if (--depth[tid] < 0) {
        fail(path + ": end without begin on track " + std::to_string(tid));
        return;
      }
    } else if (ph == "X") {
      // Complete events (the per-job span trees): self-contained, but a
      // zero/missing duration means a span was exported half-closed.
      const JsonValue* dur = ev.find("dur");
      if (!dur || dur->number <= 0) fail(path + ": complete event without dur");
      ++spans;
    } else if (ph != "C" && ph != "i") {
      fail(path + ": unexpected phase '" + ph + "'");
    }
  }
  for (const auto& [tid, d] : depth)
    if (d != 0) fail(path + ": " + std::to_string(d) + " unclosed span(s) on track " +
                     std::to_string(tid));
  if (spans == 0) fail(path + ": no spans recorded");
}

void check_provenance(const std::string& path) {
  JsonValue doc = parse_json(slurp(path));
  for (const char* key : {"benchmark", "script", "graph", "stages", "controllers"})
    if (!doc.find(key)) fail(path + ": missing '" + key + "'");
  const JsonValue* rec = doc.find("reconciliation");
  if (!rec || !rec->is_array()) {
    fail(path + ": missing reconciliation check list");
  } else {
    for (const JsonValue& e : rec->array)
      fail(path + ": reconciliation: " + e.string);
  }
}

void check_vcd(const std::string& path) {
  std::istringstream is(slurp(path));
  std::string line;
  std::set<std::string> codes;
  bool defs_closed = false;
  bool in_dump = false;
  long long now = 0, changes = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (!defs_closed) {
      std::istringstream ls(line);
      std::string tok;
      ls >> tok;
      if (tok == "$var") {
        std::string type, width, code;
        ls >> type >> width >> code;
        if (!codes.insert(code).second) fail(path + ": duplicate code " + code);
      } else if (tok == "$enddefinitions") {
        defs_closed = true;
      }
      continue;
    }
    if (line == "$dumpvars") {
      in_dump = true;
      continue;
    }
    if (line == "$end") {
      in_dump = false;
      continue;
    }
    if (line[0] == '#') {
      long long t = std::stoll(line.substr(1));
      if (t < now) fail(path + ": time moved backwards at #" + line.substr(1));
      now = t;
      continue;
    }
    std::string code;
    if (line[0] == 's') {
      code = line.substr(line.rfind(' ') + 1);
    } else if (line[0] == '0' || line[0] == '1') {
      code = line.substr(1);
    } else {
      fail(path + ": unparseable change line '" + line + "'");
      continue;
    }
    if (!codes.count(code)) fail(path + ": change for undeclared code " + code);
    if (!in_dump) ++changes;
  }
  if (!defs_closed) fail(path + ": missing $enddefinitions");
  if (codes.empty()) fail(path + ": no variables declared");
  if (changes == 0) fail(path + ": no value changes recorded");
}

void check_bench(const std::string& path) {
  JsonValue doc = parse_json(slurp(path));
  for (const std::string& problem : perf::validate_bench_json(doc))
    fail(path + ": " + problem);
}

void check_dse_profile(const std::string& path) {
  JsonValue doc = parse_json(slurp(path));
  auto problems = analysis::validate_dse_profile(doc);
  for (const std::string& problem : problems) fail(path + ": " + problem);
  if (problems.empty()) {
    const JsonValue* pts = doc.find("points");
    std::printf("adc_obs_check: %s: %zu point profile(s) valid\n", path.c_str(),
                pts ? pts->array.size() : 0);
  }
}

void check_cache_dir(const std::string& dir) {
  auto entries = DiskCache::scan(dir);
  std::size_t valid = 0;
  for (const auto& e : entries) {
    if (e.valid) ++valid;
    else fail(dir + "/" + e.key + ".adcstage: " + e.defect);
  }
  std::printf("adc_obs_check: %s: %zu/%zu cache entries valid\n", dir.c_str(),
              valid, entries.size());
}

void check_access_log(const std::string& path) {
  std::uint64_t lines = 0;
  for (const std::string& problem : obs::AccessLog::validate(path, &lines))
    fail(path + ": " + problem);
  std::printf("adc_obs_check: %s: %llu access-log lines valid\n", path.c_str(),
              static_cast<unsigned long long>(lines));
}

// `body` came from a file or a live scrape; `catalogue_path` optionally
// pins the exposed family-name set.
void check_prometheus(const std::string& origin, const std::string& body,
                      const std::string& catalogue_path) {
  for (const std::string& problem : obs::validate_prometheus_text(body))
    fail(origin + ": " + problem);
  if (catalogue_path.empty()) return;
  // Family names are everything `# TYPE` declares.  The committed
  // catalogue is sorted, one name per line, '#' comments allowed.
  std::set<std::string> exposed;
  std::istringstream is(body);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    std::string rest = line.substr(7);
    exposed.insert(rest.substr(0, rest.find(' ')));
  }
  std::set<std::string> expected;
  std::istringstream cat(slurp(catalogue_path));
  while (std::getline(cat, line)) {
    auto e = line.find_last_not_of(" \t\r");
    if (e == std::string::npos || line[0] == '#') continue;
    expected.insert(line.substr(0, e + 1));
  }
  for (const auto& name : expected)
    if (!exposed.count(name))
      fail(origin + ": family '" + name + "' missing (in " + catalogue_path + ")");
  for (const auto& name : exposed)
    if (!expected.count(name))
      fail(origin + ": family '" + name + "' not in " + catalogue_path +
           " — update the catalogue if this export is intentional");
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, prov_path, vcd_path, bench_path, cache_dir;
  std::string dse_profile_path;
  std::string access_log_path, prom_path, prom_fetch, prom_out, catalogue_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "adc_obs_check: %s needs a file\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trace") trace_path = next();
    else if (arg == "--provenance") prov_path = next();
    else if (arg == "--vcd") vcd_path = next();
    else if (arg == "--bench") bench_path = next();
    else if (arg == "--dse-profile") dse_profile_path = next();
    else if (arg == "--cache-dir") cache_dir = next();
    else if (arg == "--access-log") access_log_path = next();
    else if (arg == "--prom") prom_path = next();
    else if (arg == "--prom-fetch") prom_fetch = next();
    else if (arg == "--prom-out") prom_out = next();
    else if (arg == "--catalogue") catalogue_path = next();
    else {
      std::fprintf(stderr,
                   "usage: adc_obs_check [--trace FILE] [--provenance FILE] "
                   "[--vcd FILE] [--bench FILE] [--dse-profile FILE] "
                   "[--cache-dir DIR] "
                   "[--access-log FILE] [--prom FILE | --prom-fetch HOST:PORT "
                   "[--prom-out FILE]] [--catalogue FILE]\n");
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  try {
    if (!trace_path.empty()) check_trace(trace_path);
    if (!prov_path.empty()) check_provenance(prov_path);
    if (!vcd_path.empty()) check_vcd(vcd_path);
    if (!bench_path.empty()) check_bench(bench_path);
    if (!dse_profile_path.empty()) check_dse_profile(dse_profile_path);
    if (!cache_dir.empty()) check_cache_dir(cache_dir);
    if (!access_log_path.empty()) check_access_log(access_log_path);
    if (!prom_path.empty())
      check_prometheus(prom_path, slurp(prom_path), catalogue_path);
    if (!prom_fetch.empty()) {
      auto colon = prom_fetch.rfind(':');
      if (colon == std::string::npos)
        throw std::runtime_error("--prom-fetch expects HOST:PORT");
      int status = 0;
      std::string body, err;
      if (!obs::http_get(prom_fetch.substr(0, colon),
                         static_cast<std::uint16_t>(
                             std::stoi(prom_fetch.substr(colon + 1))),
                         "/metrics", 5000, &status, &body, &err)) {
        fail(prom_fetch + ": " + err);
      } else if (status != 200) {
        fail(prom_fetch + ": /metrics answered HTTP " + std::to_string(status));
      } else {
        if (!prom_out.empty()) {
          std::ofstream out(prom_out);
          out << body;
          if (!out) throw std::runtime_error("cannot write " + prom_out);
        }
        check_prometheus(prom_fetch, body, catalogue_path);
        std::printf("adc_obs_check: %s: scraped %zu bytes of metrics\n",
                    prom_fetch.c_str(), body.size());
      }
    }
  } catch (const std::exception& e) {
    fail(e.what());
  }
  if (errors == 0) std::printf("adc_obs_check: all artifacts valid\n");
  return errors == 0 ? 0 : 1;
}
