// adc_benchmark: the end-to-end benchmark of the synthesis flow.
//
//   adc_benchmark --workload W --seed N --seconds S --trace 0|1
//                 [--trace-dir DIR] [--out FILE]
//   adc_benchmark --selftest
//   adc_benchmark --defects
//
// A run prints every metric by name with its unit, then, as its last line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  An
// untraced run's metrics are the end-to-end set; a traced run's are the
// per-layer set.  benchmark/README.md describes both.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "reference.hpp"
#include "trace/log.hpp"
#include "workloads.hpp"

using namespace bench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: adc_benchmark --workload "
               "library_cold|dse_grid|random_corpus|serve_mix --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR] [--out FILE]\n"
               "       adc_benchmark --selftest\n"
               "       adc_benchmark --defects\n");
  return 2;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_object(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += quote(ms[i].name) + ": {\"value\": " + number(ms[i].value) +
           ", \"unit\": " + quote(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string string_array(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + quote(v[i]);
  return out + "]";
}

std::string failures_object(const Failures& f) {
  std::string out = "{";
  for (const auto& [cls, count] : f.counts) {
    out += (out.size() > 1 ? ", " : "") + quote(cls) + ": {\"count\": " +
           std::to_string(count) + ", \"examples\": " + string_array(f.examples.at(cls)) + "}";
  }
  return out + "}";
}

// The whole run: the summary line's content plus everything printed.
std::string full_report(const Options& o, const RunResult& r, bool correct) {
  std::string out = "{\"workload\": " + quote(o.workload) +
                    ", \"seed\": " + std::to_string(o.seed) +
                    ", \"seconds\": " + number(o.seconds) +
                    ", \"trace\": " + (o.trace ? "1" : "0") +
                    ", \"nproc\": " + std::to_string(online_cpus()) +
                    ", \"valid\": " + (r.invalid.empty() ? "true" : "false") +
                    ", \"invalid\": " + string_array(r.invalid) +
                    ", \"correct\": " + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failures.total()) +
                    ", \"problems\": " + string_array(r.problems) +
                    ", \"failures\": " + failures_object(r.failures) +
                    ", \"known_defects\": " + failures_object(r.known_defects) +
                    ", \"metrics\": " + metrics_object(r.metrics) +
                    ", \"extras\": " + metrics_object(r.extras) + "}\n";
  return out;
}

void print_failures(const char* title, const Failures& f) {
  for (const auto& [cls, count] : f.counts) {
    std::printf("  %s %s: %zu; first reproducers:\n", title, cls.c_str(), count);
    for (const auto& ex : f.examples.at(cls)) std::printf("    %s\n", ex.c_str());
  }
}

void print_human(const Options& o, const RunResult& r) {
  std::printf("adc_benchmark %s seed=%llu seconds=%g trace=%d nproc=%u\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
              online_cpus());
  for (const auto* list : {&r.metrics, &r.extras})
    for (const Metric& m : *list)
      std::printf("  %-36s %16.6f %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  list == &r.extras ? "  (not gated)" : "");
  std::printf("  attempted %zu, failed %zu\n", r.attempted, r.failures.total());
  print_failures("failures", r.failures);
  print_failures("known defects (not counted)", r.known_defects);
  for (const auto& p : r.problems) std::printf("  problem: %s\n", p.c_str());
  for (const auto& why : r.invalid) std::printf("  run invalid: %s\n", why.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  adc::set_log_level(adc::LogLevel::kOff);  // the E8 deadlocks log warnings
  Options o;
  std::string out_path;
  bool run_selftest = false, defects = false, have_trace = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = next();
      } else if (a == "--seed") {
        o.seed = std::stoull(next());
      } else if (a == "--seconds") {
        o.seconds = std::stod(next());
        have_seconds = true;
      } else if (a == "--trace") {
        o.trace = std::stoi(next()) != 0;
        have_trace = true;
      } else if (a == "--trace-dir") {
        o.trace_dir = next();
      } else if (a == "--out") {
        out_path = next();
      } else if (a == "--selftest") {
        run_selftest = true;
      } else if (a == "--defects") {
        defects = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  try {
    if (run_selftest) return selftest() == 0 ? 0 : 1;
    if (defects) {
      defects_report();
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adc_benchmark: %s\n", e.what());
    return 1;
  }
  if (!have_trace || !have_seconds || !(o.seconds > 0)) return usage();

  RunResult r;
  try {
    if (o.workload == "library_cold") r = run_library_cold(o);
    else if (o.workload == "dse_grid") r = run_dse_grid(o);
    else if (o.workload == "random_corpus") r = run_random_corpus(o);
    else if (o.workload == "serve_mix") r = run_serve_mix(o);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adc_benchmark: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  if (r.attempted == 0) {
    std::fprintf(stderr, "adc_benchmark: %s attempted nothing\n", o.workload.c_str());
    return 1;
  }
  if (online_cpus() < 3) r.invalid.push_back("fewer than 3 CPUs");
  const bool correct = r.failures.total() == 0 && r.problems.empty();

  const std::string report = full_report(o, r, correct);
  if (!out_path.empty()) std::ofstream(out_path) << report;
  if (o.trace && !o.trace_dir.empty())
    std::ofstream(o.trace_dir + "/" + o.workload + ".layers.json") << report;
  print_human(o, r);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", r.attempted, r.failures.total(),
              metrics_object(r.metrics).c_str());
  return 0;
}
