// adc_synth — command-line driver for the full synthesis flow.
//
//   adc_synth [options] [program.adc]
//
// Reads a scheduled CDFG program (the textual language of
// frontend/parser.hpp) from a file or stdin — or picks a builtin benchmark
// with --bench — runs the transformation pipeline through the parallel
// synthesis runtime's FlowExecutor, and writes the synthesis artifacts.
//
// Options:
//   --script "gt1; gt2; ..."   transformation script (default: the paper's
//                              full recipe, kPaperRecipe in
//                              transforms/script.hpp)
//   --bench NAME               builtin benchmark (diffeq, gcd, fir4,
//                              mac_reduce, ewf_lite, ewf) with its bundled
//                              register file; implies simulation
//   --out DIR                  artifact directory (default ".")
//   --emit bms|verilog|eqn|dot (repeatable; default: all)
//   --simulate REG=VAL,...     run the gate-level simulation with the given
//                              initial registers and report the final state
//   --report                   print the per-controller summary table
//   --json FILE                machine-readable report (stats + simulation
//                              result; '-' writes to stdout) — the same
//                              serialization path adc_dse uses
//   --trace-out FILE           Chrome trace_event JSON of the run: nested
//                              spans for every flow stage with cache
//                              hit/miss annotations (open in Perfetto)
//   --provenance FILE          reconciled transform decision log as JSON
//                              ('-' writes to stdout)
//   --vcd FILE                 VCD handshake waveforms of the event
//                              simulation (open in GTKWave)
//   --critical-path            attribute the simulated end-to-end latency to
//                              channels / controllers / micro-operation
//                              phases (implies simulation; human table on
//                              the report stream, JSON under "critical_path")
//   --explain-vs SCRIPT2       differential explain: evaluate the program a
//                              second time under SCRIPT2 (same executor, so
//                              shared recipe prefixes stay cached), diff the
//                              two points' attribution segment trees and
//                              report which transform decisions the latency
//                              delta comes from (implies --critical-path)
//   --log-level LEVEL          error|warn|info|debug|trace (default: the
//                              ADC_LOG environment variable, else warn)
//   --deadline-ms N            whole-flow wall budget; an overrun is
//                              cancelled and reported as a timeout (exit 5)
//   --stage-deadline-ms N      per-stage wall budget (same semantics)
//   --fault SPEC               arm the deterministic fault injector
//                              (overrides ADC_FAULT); see docs/ROBUSTNESS.md
//   --help
//
// Observability artifacts (--trace-out, --provenance, --vcd) are registered
// with the artifact flush registry: an interrupted run (SIGINT/SIGTERM) or
// an early exit still writes complete, adc_obs_check-valid files.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>

#include "analysis/build.hpp"
#include "analysis/explain.hpp"
#include "cdfg/dot.hpp"
#include "cdfg/validate.hpp"
#include "frontend/parser.hpp"
#include "logic/minimize.hpp"
#include "logic/netlist.hpp"
#include "logic/stats.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "runtime/fault.hpp"
#include "runtime/flow.hpp"
#include "trace/flush.hpp"
#include "trace/log.hpp"
#include "trace/vcd.hpp"
#include "xbm/print.hpp"

#include "cli_args.hpp"

using namespace adc;

namespace {

constexpr char kTool[] = "adc_synth";

int usage(int code) {
  std::fprintf(code ? stderr : stdout,
               "usage: adc_synth [--script S] [--bench NAME] [--out DIR] "
               "[--emit KIND]... [--simulate REG=VAL,...] [--report] "
               "[--json FILE] [--trace-out FILE] [--provenance FILE] "
               "[--vcd FILE] [--critical-path] [--explain-vs SCRIPT2] "
               "[--deadline-ms N] "
               "[--stage-deadline-ms N] [--fault SPEC] [--log-level LEVEL] "
               "[program.adc]\n"
               "\n"
               "exit codes:\n"
               "  0  flow and (if requested) simulation completed\n"
               "  1  internal error (bad input, synthesis failure, I/O)\n"
               "  2  usage error\n"
               "  6  an injected fault aborted the flow\n"
               "  5  the flow timed out or was cancelled\n"
               "  4  the event simulation deadlocked\n");
  return code;
}

// Maps a point's terminal status onto the documented exit codes.
int exit_code_for(const FlowPoint& p) {
  switch (p.status) {
    case FlowStatus::kOk: return 0;
    case FlowStatus::kDeadlock: return 4;
    case FlowStatus::kTimeout:
    case FlowStatus::kCancelled: return 5;
    case FlowStatus::kFault: return 6;
    case FlowStatus::kError: return 1;
  }
  return 1;
}

// Writes `text` to `path` ('-' = stdout); a failed write throws, naming
// the path.
void write_file(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return;
  }
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string script_text = kPaperRecipe;
  std::string bench_name;
  std::string out_dir = ".";
  std::string input_file;
  std::set<std::string> emit;
  std::string simulate;
  std::map<std::string, std::int64_t> init;
  std::string json_path;
  std::string trace_path;
  std::string prov_path;
  std::string vcd_path;
  std::string fault_spec;
  std::uint64_t deadline_ms = 0, stage_deadline_ms = 0;
  bool report = false;
  bool critical_path = false;
  std::string explain_vs;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(2);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(0);
    else if (arg == "--script") script_text = next();
    else if (arg == "--bench") bench_name = next();
    else if (arg == "--out") out_dir = next();
    else if (arg == "--emit") emit.insert(next());
    else if (arg == "--simulate") init = cli::parse_init(kTool, arg, simulate = next());
    else if (arg == "--report") report = true;
    else if (arg == "--json") json_path = next();
    else if (arg == "--trace-out") trace_path = next();
    else if (arg == "--provenance") prov_path = next();
    else if (arg == "--vcd") vcd_path = next();
    else if (arg == "--critical-path") critical_path = true;
    else if (arg == "--explain-vs") explain_vs = next();
    else if (arg == "--deadline-ms") cli::set_number(deadline_ms, kTool, arg, next());
    else if (arg == "--stage-deadline-ms")
      cli::set_number(stage_deadline_ms, kTool, arg, next());
    else if (arg == "--fault") fault_spec = next();
    else if (arg == "--log-level") {
      try {
        set_log_level(log_level_from_string(next()));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "adc_synth: %s\n", e.what());
        return 2;
      }
    }
    else if (!arg.empty() && arg[0] == '-') return usage(2);
    else input_file = arg;
  }
  if (emit.empty()) emit = {"bms", "verilog", "eqn", "dot"};
  if (!bench_name.empty() && !input_file.empty()) {
    std::fprintf(stderr, "adc_synth: --bench and a program file are exclusive\n");
    return 2;
  }

  try {
    fault().configure_from_env();
    if (!fault_spec.empty()) fault().configure(fault_spec);
    // Assemble the flow request.
    FlowRequest req;
    if (!bench_name.empty()) {
      const BuiltinBenchmark* b = find_builtin(bench_name);
      if (!b) throw std::invalid_argument("unknown builtin benchmark '" + bench_name + "'");
      req = make_builtin_request(*b, script_text);
    } else {
      std::string source;
      if (input_file.empty()) {
        std::stringstream ss;
        ss << std::cin.rdbuf();
        source = ss.str();
      } else {
        std::ifstream in(input_file);
        if (!in) {
          std::fprintf(stderr, "adc_synth: cannot open %s\n", input_file.c_str());
          return 1;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        source = ss.str();
      }
      // Validate eagerly for a parse-located error message (the flow would
      // reject the program too, but later and with less context).
      Cdfg g = parse_program(source);
      validate_or_throw(g, ValidateOptions{.allow_backward_arcs = false});
      req.benchmark = g.name();
      req.source = std::move(source);
      req.script = script_text;
    }
    if (!simulate.empty()) req.init = std::move(init);
    if (!explain_vs.empty()) critical_path = true;  // the diff needs segments
    req.simulate = !simulate.empty() || !bench_name.empty() || !vcd_path.empty() ||
                   critical_path;
    req.provenance = !prov_path.empty() || !explain_vs.empty();
    req.critical_path = critical_path;
    req.deadline_ms = deadline_ms;
    req.stage_deadline_ms = stage_deadline_ms;

    // The observability sinks are shared with the flush registry so an
    // interrupted run still writes complete artifacts (the flush closes
    // the spans in flight; the VCD writer always emits a full file).
    auto vcd = std::make_shared<VcdWriter>();
    if (!vcd_path.empty()) req.sim.vcd = vcd.get();
    auto trace = std::make_shared<obs::Trace>(0);
    FlowExecutor::Options opts;
    if (!trace_path.empty()) opts.tracer = trace.get();

    int trace_token = -1, vcd_token = -1, prov_token = -1;
    if (!trace_path.empty() && trace_path != "-")
      trace_token = register_artifact_flush(trace_path, [trace, trace_path] {
        trace->close_open({{"flushed", "interrupted"}});
        obs::write_chrome_trace_file(*trace, trace_path);
      });
    if (!vcd_path.empty() && vcd_path != "-")
      vcd_token = register_artifact_flush(vcd_path, [vcd, vcd_path] {
        if (vcd->var_count() == 0 || vcd->change_count() == 0)
          return;  // nothing simulated yet: no partial waveform to save
        std::ofstream out(vcd_path);
        vcd->write(out);
      });
    // The real report only exists after the flow finishes; until then the
    // flush falls back to an empty (trivially reconciled) stub.
    auto prov_holder =
        std::make_shared<std::shared_ptr<const ProvenanceReport>>();
    if (!prov_path.empty() && prov_path != "-") {
      std::string bench_label = !bench_name.empty() ? bench_name : input_file;
      prov_token = register_artifact_flush(
          prov_path, [prov_holder, prov_path, bench_label, script_text] {
            std::shared_ptr<const ProvenanceReport> rep = *prov_holder;
            if (!rep) {
              auto stub = std::make_shared<ProvenanceReport>();
              stub->benchmark = bench_label;
              stub->script = script_text;
              rep = stub;
            }
            std::ofstream(prov_path) << rep->to_json() << "\n";
          });
    }

    // With --json - or --provenance - the report owns stdout.
    FILE* log = json_path == "-" || prov_path == "-" ? stderr : stdout;

    FlowExecutor exec(nullptr, opts);
    FlowPoint p = exec.run(req);
    *prov_holder = p.provenance;
    if (!p.artifacts) {  // failed before producing anything to emit
      std::fprintf(stderr, "adc_synth: [%s] %s\n", to_string(p.status),
                   p.error.c_str());
      int rc = exit_code_for(p);
      return rc == 0 ? 1 : rc;
    }
    const Cdfg& g = *p.graph;
    std::fprintf(log, "flow '%s' [%s]: %zu nodes, %zu arcs, %zu controller channels\n",
                 p.benchmark.c_str(), p.script.c_str(), g.live_node_count(),
                 g.live_arc_count(), p.channels);

    // Artifact emission from the flow's cached controller set.  Logic is
    // re-synthesized per controller only when a netlist artifact was asked
    // for (the flow keeps metrics, not netlists).
    bool need_logic = emit.count("verilog") || emit.count("eqn");
    Table t({"controller", "states", "transitions", "products", "literals", "feasible"});
    for (const auto& c : p.artifacts->controllers) {
      const ControllerInstance& inst = c->instance;
      const ControllerMetrics& m = c->metrics;
      if (inst.controller.machine.transition_ids().empty()) continue;
      t.add_row({m.name, std::to_string(m.states), std::to_string(m.transitions),
                 std::to_string(m.products), std::to_string(m.literals),
                 m.feasible ? "yes" : "NO"});
      std::string base = out_dir + "/" + g.name() + "_" + m.name;
      if (emit.count("bms")) write_file(base + ".bms", to_text(inst.controller.machine));
      if (need_logic) {
        auto logic = synthesize_logic(inst.controller);
        if (emit.count("verilog"))
          write_file(base + ".v", to_verilog(logic, g.name() + "_" + m.name));
        if (emit.count("eqn")) write_file(base + ".eqn", to_equations(logic));
      }
    }
    if (emit.count("dot")) write_file(out_dir + "/" + g.name() + ".dot", to_dot(g));
    if (report) std::fprintf(log, "%s", t.to_string().c_str());

    if (req.simulate) {
      if (!p.ok && !p.error.empty()) {
        std::fprintf(log, "simulation FAILED%s: %s\n",
                     p.deadlocked ? " (deadlock)" : "", p.error.c_str());
      } else if (p.ok) {
        std::fprintf(log, "simulation completed at t=%lld (%lld datapath operations)\n",
                     static_cast<long long>(p.latency),
                     static_cast<long long>(p.sim_operations));
        for (const auto& [reg, v] : p.sim_registers)
          std::fprintf(log, "  %s = %lld\n", reg.c_str(), static_cast<long long>(v));
      }
      if (critical_path && p.critical_path)
        std::fprintf(log, "\n%s", p.critical_path->to_table().c_str());
    }

    // Differential explain: evaluate the same program under the second
    // recipe on the same executor (shared prefixes replay from the stage
    // cache) and attribute the cycle-time delta to the differing
    // transform decisions.
    if (!explain_vs.empty()) {
      obs::TraceSpan span(obs::TraceContext(opts.tracer), "analysis.explain");
      FlowRequest req2 = req;
      req2.script = explain_vs;
      req2.cancel = CancelToken();
      req2.sim.vcd = nullptr;  // waveforms belong to the primary run
      FlowPoint q = exec.run(req2);
      if (!q.ok && q.status != FlowStatus::kDeadlock)
        std::fprintf(stderr, "adc_synth: --explain-vs point [%s] failed: %s\n",
                     q.script.c_str(), q.error.c_str());
      auto a = analysis::build_point_profile(p, 0);
      auto b = analysis::build_point_profile(q, 1);
      std::fprintf(log, "\n%s", analysis::explain_points(a, b).to_table().c_str());
    }

    // Observability artifacts (written here on the normal path; the flush
    // registration above covers interrupted runs).
    std::vector<std::pair<std::string, std::string>> artifact_paths;
    if (!trace_path.empty()) {
      unregister_artifact_flush(trace_token);
      if (!obs::write_chrome_trace_file(*trace, trace_path))
        throw std::runtime_error("cannot write " + trace_path);
      artifact_paths.emplace_back("trace", trace_path);
    }
    if (!prov_path.empty() && p.provenance) {
      unregister_artifact_flush(prov_token);
      write_file(prov_path, p.provenance->to_json() + "\n");
      if (prov_path != "-") artifact_paths.emplace_back("provenance", prov_path);
      std::fprintf(log, "%s", p.provenance->summary().c_str());
    }
    if (!vcd_path.empty() && req.simulate) {
      unregister_artifact_flush(vcd_token);
      std::ofstream out(vcd_path);
      vcd->write(out);
      if (!out) throw std::runtime_error("cannot write " + vcd_path);
      artifact_paths.emplace_back("vcd", vcd_path);
    }

    if (!json_path.empty()) {
      JsonWriter w(true);
      w.begin_object();
      w.kv("tool", "adc_synth");
      w.kv("program", g.name());
      w.kv("nodes", g.live_node_count());
      w.kv("arcs", g.live_arc_count());
      w.key("point");
      write_json(w, p, artifact_paths);
      if (req.simulate) {
        w.key("simulation");
        w.begin_object();
        w.kv("completed", p.ok);
        if (!p.error.empty()) w.kv("error", p.error);
        w.kv("deadlocked", p.deadlocked);
        w.kv("finish_time", p.latency);
        w.kv("events", p.sim_events);
        w.kv("operations", p.sim_operations);
        w.key("registers");
        w.begin_object();
        for (const auto& [reg, v] : p.sim_registers) w.kv(reg, v);
        w.end_object();
        w.end_object();
      }
      w.end_object();
      write_file(json_path, w.str() + "\n");
    }
    return exit_code_for(p);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adc_synth: %s\n", e.what());
    return 1;
  }
}
