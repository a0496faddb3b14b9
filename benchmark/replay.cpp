// The traced run's layer replay.  Each design point is taken through the
// same public calls FlowExecutor::run makes, in the same order, with a span
// around each call; the spans' self times are the per-layer metrics.  The
// flow itself is not instrumented: everything is timed from outside.

#include <cstdio>
#include <fstream>
#include <set>

#include "extract/extract.hpp"
#include "frontend/parser.hpp"
#include "logic/encoding.hpp"
#include "logic/flow_table.hpp"
#include "logic/hazard_free.hpp"
#include "logic/minimize.hpp"
#include "ltrans/local.hpp"
#include "sim/event_sim.hpp"
#include "transforms/script.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

// The layers whose self times should add up to FlowExecutor::run.
const char* const kLayers[] = {"frontend", "gt1",    "gt2",   "gt3", "gt4",
                               "gt5",      "extract", "ltrans", "logic", "sim"};
// The logic layer taken apart, replayed after the point (its own subtree,
// outside the sum above: it repeats the logic work call by call).
const char* const kLogicDetail[] = {"logic.encode", "logic.spec", "logic.candidates",
                                    "logic.cover"};

struct Counts {
  double frontend_arcs = 0, arcs_removed = 0, channels = 0;
  double extract_states = 0, extract_transitions = 0;
  double lt_states = 0, lt_transitions = 0;
  double candidates = 0, products = 0, literals = 0, events = 0;
  std::int64_t ticks = 0;
  bool completed = false;

  void add(const Counts& c) {
    frontend_arcs += c.frontend_arcs;
    arcs_removed += c.arcs_removed;
    channels += c.channels;
    extract_states += c.extract_states;
    extract_transitions += c.extract_transitions;
    lt_states += c.lt_states;
    lt_transitions += c.lt_transitions;
    candidates += c.candidates;
    products += c.products;
    literals += c.literals;
    events += c.events;
  }
};

void logic_detail(const std::vector<adc::ControllerInstance>& instances, SpanRecorder& rec,
                  int point, Counts& out) {
  ScopedSpan detail(rec, "logic.detail", point);
  for (const auto& inst : instances) {
    const adc::ExtractedController& c = inst.controller;
    adc::ConcreteMachine cm;
    adc::Encoding enc;
    {
      ScopedSpan s(rec, "logic.encode", point);
      cm = adc::concretize(c.machine, &c.bindings);
      enc = adc::assign_codes(cm);
    }
    const std::size_t n_out = cm.output_names.size();
    for (std::size_t fi = 0; fi < n_out + enc.bits; ++fi) {
      const bool state_bit = fi >= n_out;
      const std::size_t index = state_bit ? fi - n_out : fi;
      adc::FunctionSpec spec;
      {
        ScopedSpan s(rec, "logic.spec", point);
        spec = adc::build_function_spec(
            cm, enc, state_bit, index,
            state_bit ? "Y" + std::to_string(index) : cm.output_names[index]);
      }
      {
        ScopedSpan s(rec, "logic.candidates", point);
        out.candidates += static_cast<double>(adc::candidate_implicants(spec).size());
      }
      ScopedSpan s(rec, "logic.cover", point);
      adc::minimize_hazard_free(spec);
    }
  }
}

// One design point through the layers, mirroring FlowExecutor::run with
// every cache off and no pool.
Counts replay_point(const adc::FlowRequest& req, SpanRecorder& rec, int point) {
  Counts out;
  ScopedSpan root(rec, "point", point);
  adc::Cdfg g = [&] {
    ScopedSpan s(rec, "frontend", point);
    return req.source.empty() ? req.make() : adc::parse_program(req.source);
  }();
  out.frontend_arcs = static_cast<double>(g.live_arc_count());

  adc::TransformScript script = adc::TransformScript::parse(req.script);
  adc::GlobalPipelineResult res;
  bool have_plan = false;
  for (std::size_t i = 0; i < script.step_count(); ++i) {
    std::string step = script.step_string(i);
    if (step.rfind("lt", 0) == 0) continue;
    ScopedSpan s(rec, step.substr(0, 3), point);
    have_plan = script.run_step(g, i, req.delays, res) || have_plan;
  }
  for (const auto& st : res.stages) out.arcs_removed += st.arcs_removed;

  adc::ChannelPlan plan;
  std::vector<adc::ExtractedController> extracted;
  {
    ScopedSpan s(rec, "extract", point);
    plan = have_plan ? res.plan : adc::ChannelPlan::derive(g);
    extracted = adc::extract_controllers(g, plan);
  }
  out.channels = static_cast<double>(plan.count_controller_channels());

  std::vector<adc::ControllerInstance> instances;
  for (adc::ExtractedController& c : extracted) {
    out.extract_states += static_cast<double>(c.machine.state_count());
    out.extract_transitions += static_cast<double>(c.machine.transition_count());
    adc::ControllerInstance inst;
    if (script.has_local_step()) {
      ScopedSpan s(rec, "ltrans", point);
      inst.shared_signals = adc::run_local_transforms(c, script.local_options()).shared_signals;
    }
    out.lt_states += static_cast<double>(c.machine.state_count());
    out.lt_transitions += static_cast<double>(c.machine.transition_count());
    {
      ScopedSpan s(rec, "logic", point);
      adc::LogicSynthesisResult logic = adc::synthesize_logic(c);
      out.products += static_cast<double>(logic.product_count(true));
      out.literals += static_cast<double>(logic.literal_count(true));
    }
    inst.controller = std::move(c);
    instances.push_back(std::move(inst));
  }

  if (req.simulate) {
    ScopedSpan s(rec, "sim", point);
    adc::EventSimResult sim = adc::run_event_sim(g, plan, instances, req.init, req.sim);
    out.ticks = sim.finish_time;
    out.events = static_cast<double>(sim.events);
    out.completed = sim.completed;
  }
  logic_detail(instances, rec, point, out);
  return out;
}

}  // namespace

void layer_metrics(const std::vector<const Job*>& jobs, std::size_t min_points,
                   double budget_ms, bool assert_coverage, const Options& o,
                   RunResult& r) {
  SpanRecorder rec(true);
  Counts totals;
  double untraced_ms = 0, traced_ms = 0, exec_ms = 0;
  std::vector<double> ticks;
  double literals = 0;
  std::set<const Job*> seen;
  std::size_t points = 0, disagreements = 0;
  const double t0 = now_ms();
  for (; points < min_points || now_ms() - t0 < budget_ms; ++points) {
    const Job& job = *jobs[points % jobs.size()];
    const int id = static_cast<int>(points);
    // The executor runs between the two replays, whose order alternates,
    // so neither comparison always gets the warmer caches.
    auto replay = [&](bool traced) {
      SpanRecorder off(false);
      double s = now_ms();
      Counts c = replay_point(job.req, traced ? rec : off, id);
      (traced ? traced_ms : untraced_ms) += now_ms() - s;
      return c;
    };
    Counts first = replay(points % 2 == 0);
    double s = now_ms();
    adc::FlowPoint p = adc::FlowExecutor(nullptr, cold_options()).run(job.req);
    exec_ms += now_ms() - s;
    Counts second = replay(points % 2 != 0);
    const Counts& c = points % 2 == 0 ? first : second;
    totals.add(c);

    const bool ok = p.status == adc::FlowStatus::kOk;
    if (static_cast<double>(p.literals) != c.literals || p.latency != c.ticks ||
        ok != c.completed) {
      if (++disagreements <= 3)
        r.problems.push_back("replay disagrees with FlowExecutor::run on " +
                             job.reproducer + ": literals " + std::to_string(p.literals) +
                             " vs " + std::to_string(static_cast<long long>(c.literals)) +
                             ", ticks " + std::to_string(p.latency) + " vs " +
                             std::to_string(c.ticks));
    }
    if (ok && seen.insert(&job).second) {
      ticks.push_back(static_cast<double>(c.ticks));
      literals += c.literals;
    }
  }

  std::map<std::string, double> self;
  std::vector<double> self_ms = rec.self_ms();
  for (std::size_t i = 0; i < self_ms.size(); ++i) self[rec.spans()[i].name] += self_ms[i];
  double layer_ms = 0;
  for (const char* l : kLayers) layer_ms += self[l];

  const double n = static_cast<double>(points);
  r.metric("frontend.ms", self["frontend"] / n, "ms");
  r.metric("frontend.arcs", totals.frontend_arcs / n, "count");
  for (const char* gt : {"gt1", "gt2", "gt3", "gt4", "gt5"})
    r.metric(std::string(gt) + ".ms", self[gt] / n, "ms");
  r.metric("gt.arcs_removed", totals.arcs_removed / n, "count");
  r.metric("gt.channels", totals.channels / n, "count");
  r.metric("extract.ms", self["extract"] / n, "ms");
  r.metric("extract.states", totals.extract_states / n, "count");
  r.metric("extract.transitions", totals.extract_transitions / n, "count");
  r.metric("ltrans.ms", self["ltrans"] / n, "ms");
  r.metric("ltrans.states", totals.lt_states / n, "count");
  r.metric("ltrans.transitions", totals.lt_transitions / n, "count");
  r.metric("logic.ms", self["logic"] / n, "ms");
  for (const char* d : kLogicDetail) r.metric(std::string(d) + ".ms", self[d] / n, "ms");
  r.metric("logic.candidates", totals.candidates / n, "count");
  r.metric("logic.products", totals.products / n, "count");
  r.metric("logic.literals", totals.literals / n, "count");
  r.metric("sim.ms", self["sim"] / n, "ms");
  r.metric("sim.events", totals.events / n, "count");
  r.metric("sim.ns_per_event", totals.events > 0 ? self["sim"] * 1e6 / totals.events : 0.0,
           "ns");
  const double coverage = layer_ms / exec_ms;
  r.metric("runtime.layer_coverage", coverage, "ratio");
  r.metric("runtime.overhead_ms", (exec_ms - layer_ms) / n, "ms");
  r.metric("trace.overhead_ms", (traced_ms - untraced_ms) / n, "ms");
  r.metric("quality.design_ticks", geomean(ticks), "ticks");
  r.metric("quality.ctl_literals",
           ticks.empty() ? 0.0 : literals / static_cast<double>(ticks.size()), "literals");
  r.extra("quality.ctl_literals_sum", literals, "literals");
  r.extra("quality.designs", static_cast<double>(ticks.size()), "count");
  r.extra("replay.points", n, "count");
  r.extra("replay.executor_ms_per_point", exec_ms / n, "ms");

  // Coverage is a property of the measurement, not of any output: below
  // 95% the per-layer numbers no longer explain the flow's time.
  if (assert_coverage && coverage < 0.95) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "layer self times cover %.1f%% of FlowExecutor::run (< 95%%)",
                  coverage * 100.0);
    r.invalid.push_back(buf);
  }
  if (!o.trace_dir.empty()) {
    std::ofstream out(o.trace_dir + "/" + o.workload + ".trace.json");
    out << rec.chrome_trace();
    if (!out) r.problems.push_back("cannot write the trace under " + o.trace_dir);
  }
}

}  // namespace bench
