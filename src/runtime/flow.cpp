#include "runtime/flow.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <exception>
#include <stdexcept>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "frontend/parser.hpp"
#include "logic/minimize.hpp"
#include "ltrans/local.hpp"
#include "report/json.hpp"
#include "report/json_parse.hpp"
#include "runtime/fault.hpp"
#include "runtime/watchdog.hpp"
#include "trace/log.hpp"

namespace adc {

namespace {

Fingerprint fingerprint_delays(const DelayModel& d) {
  FingerprintBuilder fb;
  fb.add("delays");
  for (const auto& [cls, r] : d.fu_op) fb.add(cls).add(r.min).add(r.max);
  for (const DelayRange& r : {d.move, d.control, d.micro_op, d.latch_write,
                              d.done_reset, d.wire})
    fb.add(r.min).add(r.max);
  return fb.digest();
}

bool is_lt_step(const std::string& step_text) {
  return step_text.rfind("lt", 0) == 0;
}

// Everything that determines a point's metrics, for the disk tier's
// whole-point key.  The benchmark name stands in for the graph factory
// when there is no source text (FlowRequest documents that contract).
Fingerprint fingerprint_point(const FlowRequest& req, const std::string& script) {
  FingerprintBuilder fb;
  fb.add("point").add(req.benchmark).add(req.source).add(script);
  fb.add(fingerprint_delays(req.delays));
  for (const auto& [name, value] : req.init) fb.add(name).add(value);
  fb.add(req.simulate);
  fb.add(req.sim.seed).add(req.sim.randomize_delays);
  fb.add(req.sim.max_time).add(req.sim.max_events);
  return fb.digest();
}

// A point is disk-cacheable only when its value is fully captured by the
// JSON rendering: no live artifact sinks, no provenance/critical-path
// reconstruction that would silently come back empty on a warm hit.
bool disk_eligible(const FlowRequest& req) {
  return !req.provenance && !req.critical_path && !req.sim.vcd &&
         !req.sim.event_log;
}

const char* cache_arg(bool computed) { return computed ? "miss" : "hit"; }

// Current thread's consumed CPU time in microseconds
// (CLOCK_THREAD_CPUTIME_ID on POSIX; a process-wide std::clock fallback
// elsewhere).  Monotonic per thread — subtract two samples for a span.
std::uint64_t thread_cpu_micros() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000u +
           static_cast<std::uint64_t>(ts.tv_nsec) / 1000u;
#endif
  return static_cast<std::uint64_t>(
      static_cast<double>(std::clock()) * 1e6 / CLOCKS_PER_SEC);
}

// One stage of one run, fed to every sink from one place: a span in the
// process trace and in the per-job tree (one obs::TraceSpan), the stage's
// wall-time histogram, and, when `rows` is given, the point's timings row.
// CPU time is the executing thread's, so cached stages show near-zero CPU
// while the wall time still captures lock waits.
class StageScope {
 public:
  StageScope(const obs::TraceContext& ctx, std::string name, const char* category,
             obs::SlidingHistogram& hist, std::vector<StageTiming>* rows = nullptr)
      : span_(ctx, name, category),
        hist_(hist),
        rows_(rows),
        start_(std::chrono::steady_clock::now()),
        cpu_start_(thread_cpu_micros()) {
    row_.stage = std::move(name);
  }
  // A stage unwinding on an exception still counts in the histogram, but
  // leaves no timings row: the point reports only the stages it finished.
  ~StageScope() {
    if (!closed_) stop(std::uncaught_exceptions() == exceptions_);
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  obs::TraceSpan& span() { return span_; }
  void set_cached(bool cached) { row_.cached = cached; }

  // Stops the clocks now and records the stage; the span stays open until
  // the scope ends.
  const StageTiming& close() {
    if (!closed_) stop(true);
    return row_;
  }

 private:
  void stop(bool append_row) {
    closed_ = true;
    const std::uint64_t cpu = thread_cpu_micros();
    row_.cpu_micros = cpu > cpu_start_ ? cpu - cpu_start_ : 0;
    row_.micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    hist_.record_micros(row_.micros);
    if (rows_ && append_row) rows_->push_back(row_);
  }

  obs::TraceSpan span_;
  obs::SlidingHistogram& hist_;
  std::vector<StageTiming>* rows_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t cpu_start_;
  int exceptions_ = std::uncaught_exceptions();
  StageTiming row_;
  bool closed_ = false;
};

}  // namespace

const char* to_string(FlowStatus s) {
  switch (s) {
    case FlowStatus::kOk: return "ok";
    case FlowStatus::kDeadlock: return "deadlock";
    case FlowStatus::kTimeout: return "timeout";
    case FlowStatus::kCancelled: return "cancelled";
    case FlowStatus::kFault: return "fault";
    case FlowStatus::kError: return "error";
  }
  return "error";
}

std::optional<FlowStatus> parse_flow_status(const std::string& name) {
  for (FlowStatus s : {FlowStatus::kOk, FlowStatus::kDeadlock, FlowStatus::kTimeout,
                       FlowStatus::kCancelled, FlowStatus::kFault, FlowStatus::kError})
    if (name == to_string(s)) return s;
  return std::nullopt;
}

int batch_exit_code(const std::vector<FlowStatus>& statuses) {
  int rc = 0;
  for (FlowStatus s : statuses) {
    switch (s) {
      case FlowStatus::kOk: break;
      case FlowStatus::kDeadlock: rc = std::max(rc, 4); break;
      case FlowStatus::kTimeout:
      case FlowStatus::kCancelled: rc = std::max(rc, 5); break;
      case FlowStatus::kFault:
      case FlowStatus::kError: rc = 6; break;
    }
  }
  return rc;
}

// Graph + accumulated pipeline log after a script prefix.
struct FlowExecutor::GlobalSnapshot {
  Cdfg g{"empty"};
  GlobalPipelineResult res;
  bool have_plan = false;
  // Channel-ledger anchors captured at the most recent gt5 step: the
  // one-wire-per-arc count the step started from, and the merges recorded
  // by *earlier* stages whose plan that step discarded (re-derive).
  std::size_t channels_unoptimized = 0;
  int channels_merged_discarded = 0;
};

FlowExecutor::FlowExecutor(ThreadPool* pool) : FlowExecutor(pool, Options{}) {}

FlowExecutor::FlowExecutor(ThreadPool* pool, Options opts)
    : pool_(pool),
      opts_(opts),
      cache_(opts.cache_capacity),
      stage_frontend_(metrics_.histogram("stage.frontend")),
      stage_global_(metrics_.histogram("stage.global")),
      stage_controllers_(metrics_.histogram("stage.controllers")),
      stage_sim_(metrics_.histogram("stage.sim")),
      stage_disk_(metrics_.histogram("stage.disk")),
      flow_total_(metrics_.histogram("flow.total")) {
  if (!opts_.disk_cache_dir.empty())
    disk_ = std::make_unique<DiskCache>(opts_.disk_cache_dir,
                                        opts_.disk_cache_bytes);
  // The cover memo lives in memory only; restarts replay whole points from
  // the disk tier.  cache_capacity == 0 turns it off along with the stage
  // cache.
  logic_memo_ = std::make_unique<LogicMemo>(
      opts_.cache_capacity > 0 ? std::size_t{4096} : std::size_t{0});
  // The gauges read their sources on every snapshot; the set of series
  // is fixed here (disk.* only with a persistent tier).
  std::vector<obs::GaugeSeries> series;
  for (const auto& [name, value] : gauge_values()) series.push_back({name, {}, ""});
  metrics_.gauge_source(std::move(series), [this] {
    std::vector<double> values;
    for (const auto& [name, value] : gauge_values())
      values.push_back(static_cast<double>(value));
    return values;
  });
}

std::shared_ptr<const Cdfg> FlowExecutor::frontend_stage(const FlowRequest& req,
                                                         Fingerprint& key, FlowPoint& p,
                                                         const obs::TraceContext& otrace) {
  FingerprintBuilder fb;
  fb.add("frontend").add(req.benchmark).add(req.source);
  key = fb.digest();
  bool computed = false;
  StageScope stage(otrace, "frontend", "stage", stage_frontend_, &p.timings);
  auto parsed = cache_.get_or_compute<Cdfg>(key, [&]() -> Cdfg {
    computed = true;
    if (!req.source.empty()) return parse_program(req.source);
    if (req.make) return req.make();
    throw std::invalid_argument("flow: request '" + req.benchmark +
                                "' has neither source text nor a graph factory");
  });
  stage.span().arg("cache", cache_arg(computed));
  stage.set_cached(!computed);
  return parsed;
}

std::shared_ptr<const FlowExecutor::GlobalSnapshot> FlowExecutor::global_stage(
    const FlowRequest& req, const TransformScript& script,
    std::shared_ptr<const Cdfg> parsed, Fingerprint key, FlowPoint& p,
    const obs::TraceContext& otrace) {
  Fingerprint delays_fp = fingerprint_delays(req.delays);
  std::size_t steps_run = 0, steps_total = 0;
  std::shared_ptr<const GlobalSnapshot> snap;
  StageScope stage(otrace, "global", "stage", stage_global_, &p.timings);
  const obs::TraceContext octx = stage.span().context();
  for (std::size_t i = 0; i < script.step_count(); ++i) {
    std::string step = script.step_string(i);
    if (is_lt_step(step)) continue;  // no global action; keyed downstream
    ++steps_total;
    FingerprintBuilder fb;
    fb.add(key).add(step).add(delays_fp);
    key = fb.digest();
    auto prev = snap;  // null for the first step
    obs::TraceSpan span(octx, step, "gt");
    bool step_computed = false;
    snap = cache_.get_or_compute<GlobalSnapshot>(key, [&]() -> GlobalSnapshot {
      ++steps_run;
      step_computed = true;
      GlobalSnapshot next;
      if (prev) {
        next = *prev;  // clone: stage results are immutable
      } else {
        next.g = *parsed;
      }
      if (step.rfind("gt5", 0) == 0) {
        // gt5 re-derives its plan; anchor the channel ledger here.
        next.channels_merged_discarded = 0;
        for (const auto& st : next.res.stages)
          next.channels_merged_discarded += st.channels_merged;
        next.channels_unoptimized =
            ChannelPlan::derive(next.g).count_controller_channels();
      }
      next.have_plan =
          script.run_step(next.g, i, req.delays, next.res) || next.have_plan;
      return next;
    });
    span.arg("cache", cache_arg(step_computed));
  }
  if (!snap) {  // empty / lt-only script: the parsed graph is the result
    GlobalSnapshot base;
    base.g = *parsed;
    snap = std::make_shared<const GlobalSnapshot>(std::move(base));
  }
  stage.span().arg("cache", cache_arg(steps_run > 0));
  stage.set_cached(steps_total > 0 && steps_run == 0);
  metrics_.counter("flow.gt_steps").add(steps_total);
  metrics_.counter("flow.gt_steps_cached").add(steps_total - steps_run);
  return snap;
}

std::vector<const ControllerInstance*> ControllerSet::instances() const {
  std::vector<const ControllerInstance*> out;
  out.reserve(controllers.size());
  for (const auto& c : controllers) out.push_back(&c->instance);
  return out;
}

Fingerprint fingerprint(const ExtractedController& c) {
  using U = std::uint64_t;
  const Xbm& m = c.machine;
  WordRecord r(16 + 4 * m.signals().size() + 3 * m.state_slots().size() +
               16 * m.transition_slots().size() + 8 * c.bindings.size());
  auto burst = [&r](const std::vector<XbmEdge>& edges) {
    r.add(edges.size());
    for (const XbmEdge& e : edges)
      r.add(U{e.signal.value()} << 3 | static_cast<U>(e.polarity) << 1 |
            U{e.directed_dont_care});
  };
  r.add(c.fu.value()).add(m.name()).add(m.initial().value());
  r.add(m.signals().size());
  for (const XbmSignal& sig : m.signals())
    r.add(U{sig.id.value()} << 8 | static_cast<U>(sig.kind) << 6 |
          static_cast<U>(sig.role) << 1 | U{sig.initial_value})
        .add(sig.name);
  r.add(m.state_slots().size());
  for (const XbmState& st : m.state_slots())
    r.add(U{st.id.value()} << 1 | U{st.alive}).add(st.name);
  r.add(m.transition_slots().size());
  for (const XbmTransition& t : m.transition_slots()) {
    r.add(U{t.id.value()} << 1 | U{t.alive});
    r.add(U{t.from().value()} << 32 | t.to().value()).add(t.origin.value());
    burst(t.inputs);
    burst(t.outputs);
    r.add(t.conds.size());
    for (const CondTerm& ct : t.conds) r.add(U{ct.signal.value()} << 1 | U{ct.value});
    r.add(t.note);
  }
  r.add(c.bindings.size());
  for (const auto& [sig, b] : c.bindings) {
    r.add(U{sig} << 32 | static_cast<U>(b.role) << 16 | static_cast<U>(b.op) << 1 |
          U{b.operand.is_const()});
    r.add(static_cast<U>(b.mux_side)).add(b.reg).add(b.operand.reg);
    r.add(static_cast<U>(b.operand.literal)).add(static_cast<U>(b.operand.scale));
    r.add(b.channel ? U{b.channel->value()} << 1 | 1 : U{0});
  }
  return FingerprintBuilder()
      .add("controller")
      .add_words(r.words().data(), r.words().size())
      .digest();
}

std::shared_ptr<const ControllerSet> FlowExecutor::controller_stage(
    const TransformScript& script, std::shared_ptr<const GlobalSnapshot> snap,
    const Fingerprint& key, FlowPoint& p, const CancelToken& cancel,
    const obs::TraceContext& otrace) {
  FingerprintBuilder fb;
  fb.add(key).add("extract+lt").add(script.to_string());
  Fingerprint ckey = fb.digest();
  bool computed = false;
  std::atomic<std::size_t> synthesized{0};
  StageScope stage(otrace, "controllers", "stage", stage_controllers_, &p.timings);
  const obs::TraceContext octx = stage.span().context();
  auto set = cache_.get_or_compute<ControllerSet>(ckey, [&]() -> ControllerSet {
    computed = true;
    ControllerSet out;
    out.plan = snap->have_plan ? snap->res.plan : ChannelPlan::derive(snap->g);
    std::vector<ExtractedController> extracted;
    {
      obs::TraceSpan span(octx, "extract", "controller");
      extracted = extract_controllers(snap->g, out.plan);
    }
    out.controllers.resize(extracted.size());
    // What a controller's LT + logic result depends on besides the
    // controller itself.
    const LocalTransformOptions& lt = script.local_options();
    const Fingerprint lt_key = FingerprintBuilder()
                                   .add("lt")
                                   .add(script.has_local_step())
                                   .add(lt.lt1_move_up_dones)
                                   .add(lt.lt2_move_down_resets)
                                   .add(lt.lt3_mux_preselection)
                                   .add(lt.lt4_remove_acks)
                                   .add(lt.lt5_signal_sharing)
                                   .digest();
    // LT + two-level logic of one controller: a pure function of the
    // extracted controller and the LT options.
    auto synthesize = [&](ExtractedController c,
                          const obs::TraceContext& ctrace) -> SynthesizedController {
      synthesized.fetch_add(1, std::memory_order_relaxed);
      SynthesizedController sc;
      ControllerMetrics& m = sc.metrics;
      m.name = c.machine.name();
      m.states_extracted = c.machine.state_count();
      m.transitions_extracted = c.machine.transition_count();
      if (script.has_local_step()) {
        obs::TraceSpan span(ctrace, "lt", "controller");
        LocalTransformResult lt = run_local_transforms(c, script.local_options());
        sc.instance.shared_signals = std::move(lt.shared_signals);
        sc.local = std::move(lt.stats);
      }
      m.states = c.machine.state_count();
      m.transitions = c.machine.transition_count();
      // The covering loops are the long-running part of this stage;
      // they poll the job token so a deadline can unwind them.
      SynthesisOptions sopts;
      sopts.cover.cancel = &cancel;
      // With caching off the memo would only cost each function a
      // fingerprint; the minimizer then skips it.
      if (opts_.cache_capacity > 0) sopts.cover.memo = logic_memo_.get();
      // Per-function fan-out nests inside the per-controller TaskGroup;
      // both groups only join their own subtasks, so the nesting cannot
      // deadlock or bill foreign work to this stage's deadline.
      sopts.pool = pool_;
      sopts.trace = ctrace;
      auto logic = synthesize_logic(c, sopts);
      m.products = logic.product_count(true);
      m.literals = logic.literal_count(true);
      m.state_bits = logic.encoding.bits;
      for (const auto& f : logic.functions)
        if (!f.is_state_bit) ++m.outputs;
      m.feasible = logic.feasible();
      ADC_LOG_DEBUG("flow", "controller synthesized",
                    {{"name", m.name},
                     {"states", m.states},
                     {"transitions", m.transitions},
                     {"literals", m.literals}});
      sc.instance.controller = std::move(c);
      return sc;
    };
    auto synthesize_one = [&](std::size_t i) {
      cancel.throw_if_cancelled();
      ExtractedController& c = extracted[i];
      // Subtasks may land on any pool thread; the explicit parent keeps
      // them under this stage in the per-job tree regardless.
      obs::TraceSpan cspan(octx, "controller:" + c.machine.name(), "controller");
      bool miss = false;
      auto compute = [&] {
        miss = true;
        return synthesize(std::move(c), cspan.context());
      };
      // With caching off no digest is taken: nothing could be replayed.
      out.controllers[i] =
          opts_.cache_capacity > 0
              ? cache_.get_or_compute<SynthesizedController>(
                    FingerprintBuilder().add(fingerprint(c)).add(lt_key).digest(), compute)
              : std::make_shared<const SynthesizedController>(compute());
      cspan.arg("cache", cache_arg(miss));
    };
    if (pool_ && extracted.size() > 1) {
      // Scoped join: TaskGroup::wait() runs only this point's subtasks
      // on this thread (idle workers still steal them).  A helping
      // ThreadPool::wait() here would execute *other queued points*
      // nested inside this stage, billing their wall time to it — and
      // tripping this point's stage deadline on their behalf.  It also
      // drains every subtask before rethrowing, so the by-reference
      // captures above never outlive their scope.
      TaskGroup group(*pool_);
      for (std::size_t i = 0; i < extracted.size(); ++i)
        group.submit([&, i] { synthesize_one(i); });
      group.wait();
    } else {
      for (std::size_t i = 0; i < extracted.size(); ++i) synthesize_one(i);
    }
    return out;
  });
  stage.span().arg("cache", cache_arg(computed));
  stage.set_cached(!computed);
  const std::size_t n = set->controllers.size();
  metrics_.counter("flow.controllers").add(n);
  metrics_.counter("flow.controllers_cached").add(n - synthesized.load());
  return set;
}

std::vector<std::pair<const char*, std::int64_t>> FlowExecutor::gauge_values()
    const {
  auto n = [](auto v) { return static_cast<std::int64_t>(v); };
  CacheStats cs = cache_.stats();
  LogicMemo::Stats ms = logic_memo_->stats();
  std::vector<std::pair<const char*, std::int64_t>> out = {
      {"cache.entries", n(cs.entries)},
      {"cache.bytes", n(cs.bytes)},
      {"pool.pending", pool_ ? n(pool_->pending()) : 0},
      {"logic.memo.hits", n(ms.hits)},
      {"logic.memo.misses", n(ms.misses)},
      {"logic.memo.fills", n(ms.fills)},
      {"logic.memo.evictions", n(ms.evictions)},
      {"logic.memo.entries", n(ms.entries)}};
  if (disk_) {
    // One stats() read: disk.hits and disk.misses from the same instant.
    DiskCache::Stats ds = disk_->stats();
    out.insert(out.end(), {{"disk.hits", n(ds.hits)},
                           {"disk.misses", n(ds.misses)},
                           {"disk.stores", n(ds.puts)},
                           {"disk.evictions", n(ds.evictions)},
                           {"disk.corrupt", n(ds.corrupt)},
                           {"disk.bytes", n(disk_->total_bytes())}});
  }
  return out;
}

void FlowExecutor::trace_gauges() const {
  if (!opts_.tracer) return;
  for (const auto& [name, value] : gauge_values()) opts_.tracer->counter(name, value);
}

std::shared_ptr<const ProvenanceReport> FlowExecutor::build_provenance(
    const FlowPoint& p, const Cdfg& initial, const GlobalSnapshot& snap,
    const ControllerSet& set) {
  auto rep = std::make_shared<ProvenanceReport>();
  rep->benchmark = p.benchmark;
  rep->script = p.script;
  rep->nodes_initial = initial.live_node_count();
  rep->arcs_initial = initial.live_arc_count();
  rep->nodes_final = snap.g.live_node_count();
  rep->arcs_final = snap.g.live_arc_count();
  rep->channels_final = set.plan.count_controller_channels();
  // Without a gt5 step the plan is the unoptimized derivation itself.
  rep->channels_unoptimized =
      snap.have_plan ? snap.channels_unoptimized +
                           static_cast<std::size_t>(snap.channels_merged_discarded)
                     : rep->channels_final;
  for (const auto& st : snap.res.stages) {
    ProvenanceStage ps;
    ps.name = st.name;
    ps.arcs_removed = st.arcs_removed;
    ps.arcs_added = st.arcs_added;
    ps.nodes_merged = st.nodes_merged;
    ps.channels_merged = st.channels_merged;
    ps.decisions = st.decisions;
    rep->global_stages.push_back(std::move(ps));
  }
  for (const auto& c : set.controllers) {
    const ControllerMetrics& m = c->metrics;
    ControllerProvenance cp;
    cp.name = m.name;
    cp.states_extracted = m.states_extracted;
    cp.transitions_extracted = m.transitions_extracted;
    cp.states_final = m.states;
    cp.transitions_final = m.transitions;
    cp.decisions = c->local.decisions;
    rep->controllers.push_back(std::move(cp));
  }
  for (const auto& e : rep->reconcile())
    ADC_LOG_WARN("provenance", "ledger mismatch",
                 {{"benchmark", p.benchmark}, {"detail", e}});
  return rep;
}

FlowPoint FlowExecutor::run(const FlowRequest& req) {
  FlowPoint p;
  p.benchmark = req.benchmark;
  p.script = req.script;  // replaced by the normalized form once parsed
  metrics_.counter("flow.runs").add();
  StageScope total(obs::TraceContext(req.trace.job_ptr(), req.trace.parent(),
                                     opts_.tracer),
                   "flow.run", "flow", flow_total_);
  obs::TraceSpan& span = total.span();
  span.arg("benchmark", req.benchmark);
  span.arg("script", req.script);
  const obs::TraceContext octx = span.context();
  ADC_LOG_INFO("flow", "run start",
               {{"benchmark", req.benchmark}, {"script", req.script}});

  // Whole-job budget: when it fires the token trips and the next stage
  // checkpoint (or in-loop poll) unwinds with status=timeout.
  WatchdogGuard job_guard(req.cancel, req.deadline_ms,
                          "flow job deadline exceeded");
  // Stage boundary: poll the token, give the fault plan its shot at this
  // site (detail = normalized script, so plans can target recipes), and
  // arm the per-stage budget for the scope of the returned guard.
  auto checkpoint = [&](const char* stage) -> WatchdogGuard {
    std::string site = std::string("flow.") + stage;
    WatchdogGuard guard(req.cancel, req.stage_deadline_ms,
                        site + " stage deadline exceeded");
    req.cancel.throw_if_cancelled();
    fault().maybe_fail_or_stall(site, p.script, &req.cancel);
    return guard;
  };

  bool disk_ok = false;
  Fingerprint point_key;
  try {
    TransformScript script = TransformScript::parse(req.script);
    p.script = script.to_string();

    // Disk tier: a completed point whose whole value round-trips through
    // JSON is replayed from the persistent cache across process restarts.
    disk_ok = disk_ && disk_->enabled() && disk_eligible(req);
    if (disk_ok) {
      point_key = fingerprint_point(req, p.script);
      std::optional<std::string> hit;
      StageTiming probe;
      {
        StageScope stage(octx, "disk.probe", "disk", stage_disk_);
        hit = disk_->get(point_key.hex());
        stage.span().arg("hit", hit.has_value());
        probe = stage.close();
      }
      if (hit) {
        try {
          obs::TraceSpan replay(octx, "disk.replay", "disk");
          FlowPoint warm = parse_flow_point(*hit);
          if (warm.benchmark == p.benchmark && warm.script == p.script) {
            warm.from_disk_cache = true;
            warm.timings.push_back({"disk", probe.micros, probe.cpu_micros, true});
            warm.total_micros = probe.micros;  // what the replay actually cost
            metrics_.counter("flow.disk_hits").add();
            span.arg("disk", "hit");
            span.arg("status", to_string(warm.status));
            ADC_LOG_INFO("flow", "run served from disk cache",
                         {{"benchmark", p.benchmark}, {"script", p.script}});
            trace_gauges();
            return warm;
          }
        } catch (const std::exception&) {
          // Decodable file, undecodable payload (schema drift): treat as
          // a miss and overwrite below.
        }
      }
    }

    Fingerprint key;
    std::shared_ptr<const Cdfg> parsed;
    {
      auto stage_guard = checkpoint("frontend");
      parsed = frontend_stage(req, key, p, octx);
    }
    std::shared_ptr<const GlobalSnapshot> snap;
    {
      auto stage_guard = checkpoint("global");
      snap = global_stage(req, script, parsed, key, p, octx);
    }
    std::shared_ptr<const ControllerSet> set;
    {
      auto stage_guard = checkpoint("controllers");
      set = controller_stage(script, snap, key, p, req.cancel, octx);
    }
    p.graph = std::shared_ptr<const Cdfg>(snap, &snap->g);

    p.channels = set->plan.count_controller_channels();
    p.ok = true;
    for (const auto& c : set->controllers) {
      const ControllerMetrics& m = c->metrics;
      p.controllers.push_back(m);
      p.states += m.states;
      p.transitions += m.transitions;
      p.products += m.products;
      p.literals += m.literals;
      if (!m.feasible) p.ok = false;
    }
    p.artifacts = set;
    if (req.provenance) p.provenance = build_provenance(p, *parsed, *snap, *set);

    if (req.simulate) {
      {
        auto stage_guard = checkpoint("sim");
        StageScope stage(octx, "sim", "stage", stage_sim_, &p.timings);
        EventSimOptions sim_opts = req.sim;
        sim_opts.cancel = &req.cancel;
        SimEventLog event_log;
        if (req.critical_path && !sim_opts.event_log)
          sim_opts.event_log = &event_log;
        auto r = run_event_sim(snap->g, set->plan, set->instances(), req.init, sim_opts);
        if (r.cancelled) throw CancelledError(r.error);
        if (req.critical_path && sim_opts.event_log)
          p.critical_path = std::make_shared<const CriticalPathResult>(
              analyze_critical_path(*sim_opts.event_log, r.final_event,
                                    r.finish_time));
        p.latency = r.finish_time;
        p.sim_events = r.events;
        p.sim_operations = r.operations;
        p.sim_registers = std::move(r.registers);
        p.deadlocked = r.deadlocked;
        if (!r.completed) {
          p.ok = false;
          p.error = r.error;
          if (r.deadlocked) {
            metrics_.counter("flow.deadlocks").add();
            ADC_LOG_WARN("flow", "event simulation deadlocked",
                         {{"benchmark", p.benchmark},
                          {"script", p.script},
                          {"detail", r.error}});
            if (opts_.tracer)
              opts_.tracer->instant("deadlock", "sim",
                                    {{"benchmark", p.benchmark},
                                     {"script", p.script}});
          }
        }
        stage.span().arg("ok", r.completed);
      }
    }
    p.status = p.ok ? FlowStatus::kOk
                    : p.deadlocked ? FlowStatus::kDeadlock : FlowStatus::kError;
  } catch (const FaultInjectedError& e) {
    p.ok = false;
    p.status = FlowStatus::kFault;
    p.error = e.what();
    metrics_.counter("flow.faults").add();
    ADC_LOG_ERROR("flow", "run hit injected fault",
                  {{"benchmark", p.benchmark},
                   {"script", p.script},
                   {"error", p.error}});
  } catch (const CancelledError& e) {
    p.ok = false;
    p.error = e.what();
    // A watchdog labels its trips with "deadline"; anything else is an
    // external abort.
    p.status = p.error.find("deadline") != std::string::npos
                   ? FlowStatus::kTimeout
                   : FlowStatus::kCancelled;
    metrics_.counter(p.status == FlowStatus::kTimeout ? "flow.timeouts"
                                                      : "flow.cancelled")
        .add();
    ADC_LOG_WARN("flow", "run cancelled",
                 {{"benchmark", p.benchmark},
                  {"script", p.script},
                  {"status", std::string(to_string(p.status))},
                  {"error", p.error}});
  } catch (const std::exception& e) {
    p.ok = false;
    p.status = FlowStatus::kError;
    p.error = e.what();
    metrics_.counter("flow.errors").add();
    ADC_LOG_ERROR("flow", "run failed",
                  {{"benchmark", p.benchmark}, {"error", p.error}});
  }
  span.arg("ok", p.ok);
  span.arg("status", to_string(p.status));
  p.total_micros = total.close().micros;
  // Persist completed outcomes (ok and the legitimate deadlock corners —
  // both are deterministic verdicts worth replaying; transient failures
  // are not).
  if (disk_ok &&
      (p.status == FlowStatus::kOk || p.status == FlowStatus::kDeadlock)) {
    if (disk_->put(point_key.hex(), to_json(p)))
      metrics_.counter("flow.disk_stores").add();
  }
  trace_gauges();
  ADC_LOG_INFO("flow", "run done",
               {{"benchmark", p.benchmark},
                {"ok", p.ok},
                {"status", std::string(to_string(p.status))},
                {"channels", p.channels},
                {"states", p.states}});
  return p;
}

std::vector<FlowPoint> FlowExecutor::run_all(const std::vector<FlowRequest>& reqs) {
  std::vector<FlowPoint> out(reqs.size());
  if (!pool_ || reqs.size() <= 1) {
    for (std::size_t i = 0; i < reqs.size(); ++i) out[i] = run(reqs[i]);
    return out;
  }
  std::vector<std::future<FlowPoint>> futs;
  futs.reserve(reqs.size());
  for (const FlowRequest& r : reqs)
    futs.push_back(pool_->submit([this, &r] { return run(r); }));
  for (std::size_t i = 0; i < futs.size(); ++i) out[i] = pool_->wait(futs[i]);
  return out;
}

void write_json(JsonWriter& w, const FlowPoint& p,
                const std::vector<std::pair<std::string, std::string>>& extra) {
  w.begin_object();
  w.kv("benchmark", p.benchmark);
  w.kv("script", p.script);
  w.kv("ok", p.ok);
  // Hand-built points may carry only the legacy booleans; derive then.
  FlowStatus s = p.status;
  if (s == FlowStatus::kOk && !p.ok)
    s = p.deadlocked ? FlowStatus::kDeadlock : FlowStatus::kError;
  w.kv("status", to_string(s));
  if (p.attempts != 1) w.kv("attempts", static_cast<std::int64_t>(p.attempts));
  if (p.from_disk_cache) w.kv("from_disk_cache", true);
  if (!p.error.empty()) w.kv("error", p.error);
  for (const auto& [k, v] : extra) w.kv(k, v);
  w.kv("channels", p.channels);
  w.kv("states", p.states);
  w.kv("transitions", p.transitions);
  w.kv("products", p.products);
  w.kv("literals", p.literals);
  w.kv("latency", p.latency);
  w.kv("sim_events", p.sim_events);
  w.kv("sim_operations", p.sim_operations);
  w.kv("total_us", p.total_micros);
  if (!p.sim_registers.empty()) {
    w.key("registers");
    w.begin_object();
    for (const auto& [name, value] : p.sim_registers) w.kv(name, value);
    w.end_object();
  }
  w.key("controllers");
  w.begin_array();
  for (const auto& c : p.controllers) {
    w.begin_object();
    w.kv("name", c.name);
    w.kv("states", c.states);
    w.kv("transitions", c.transitions);
    w.kv("products", c.products);
    w.kv("literals", c.literals);
    w.kv("state_bits", c.state_bits);
    w.kv("outputs", c.outputs);
    w.kv("feasible", c.feasible);
    w.end_object();
  }
  w.end_array();
  w.key("stages");
  w.begin_array();
  for (const auto& t : p.timings) {
    w.begin_object();
    w.kv("stage", t.stage);
    w.kv("us", t.micros);
    w.kv("cpu_us", t.cpu_micros);
    w.kv("cached", t.cached);
    w.end_object();
  }
  w.end_array();
  if (p.critical_path) {
    w.key("critical_path");
    p.critical_path->write_json(w);
  }
  w.end_object();
}

std::string to_json(const FlowPoint& p) {
  JsonWriter w;
  write_json(w, p);
  return w.str();
}

FlowPoint parse_flow_point(const std::string& json) {
  const JsonValue doc = parse_json(json);
  std::vector<std::string> problems;
  JsonReader r(doc, "", problems);
  FlowPoint p;
  p.benchmark = r.required<std::string>("benchmark");
  p.script = r.required<std::string>("script");
  p.ok = r.required<bool>("ok");
  const std::optional<FlowStatus> status =
      parse_flow_status(r.optional<std::string>("status").value_or(""));
  if (status)
    p.status = *status;
  else
    r.problem("status is missing or not a flow status");
  p.deadlocked = p.status == FlowStatus::kDeadlock;
  p.attempts = r.optional<unsigned>("attempts").value_or(1);
  p.from_disk_cache = r.optional<bool>("from_disk_cache").value_or(false);
  p.error = r.optional<std::string>("error").value_or("");
  p.channels = r.required<std::size_t>("channels");
  p.states = r.required<std::size_t>("states");
  p.transitions = r.required<std::size_t>("transitions");
  p.products = r.required<std::size_t>("products");
  p.literals = r.required<std::size_t>("literals");
  p.latency = r.required<std::int64_t>("latency");
  p.sim_events = r.required<std::int64_t>("sim_events");
  p.sim_operations = r.required<std::int64_t>("sim_operations");
  p.total_micros = r.required<std::uint64_t>("total_us");
  if (const JsonValue* regs = r.object("registers", false)) {
    JsonReader rr(*regs, "registers", problems);
    for (const auto& [name, value] : regs->object)
      p.sim_registers[name] = rr.required<std::int64_t>(name.c_str());
  }
  if (const JsonValue* ctrls = r.array("controllers"))
    for (const JsonValue& c : ctrls->array) {
      JsonReader cr(c, "controller", problems);
      ControllerMetrics m;
      m.name = cr.required<std::string>("name");
      m.states = cr.required<std::size_t>("states");
      m.transitions = cr.required<std::size_t>("transitions");
      m.products = cr.required<std::size_t>("products");
      m.literals = cr.required<std::size_t>("literals");
      m.state_bits = cr.required<std::size_t>("state_bits");
      m.outputs = cr.required<std::size_t>("outputs");
      m.feasible = cr.required<bool>("feasible");
      p.controllers.push_back(std::move(m));
    }
  if (const JsonValue* stages = r.array("stages"))
    for (const JsonValue& t : stages->array) {
      JsonReader tr(t, "stage", problems);
      StageTiming st;
      st.stage = tr.required<std::string>("stage");
      st.micros = tr.required<std::uint64_t>("us");
      st.cpu_micros = tr.required<std::uint64_t>("cpu_us");
      st.cached = tr.required<bool>("cached");
      p.timings.push_back(std::move(st));
    }
  throw_if_problems("flow point", problems);
  return p;
}

const std::vector<BuiltinBenchmark>& builtin_benchmarks() {
  static const std::vector<BuiltinBenchmark> all = {
      {"diffeq", diffeq,
       {{"X", 0}, {"a", 8}, {"dx", 1}, {"U", 3}, {"Y", 1}, {"X1", 0}, {"C", 1}}},
      {"gcd", gcd, {{"A", 21}, {"B", 14}, {"C", 1}}},
      {"fir4", fir4,
       {{"X0", 1}, {"X1", 2}, {"X2", 3}, {"X3", 4}, {"K0", 5}, {"K1", 6}, {"K2", 7},
        {"K3", 8}}},
      {"mac_reduce", mac_reduce,
       {{"X", 0}, {"K", 3}, {"T", 40}, {"N", 6}, {"dx", 1}, {"S", 0}, {"C", 1}}},
      {"ewf_lite", ewf_lite,
       {{"IN", 9}, {"S1", 1}, {"S2", 2}, {"S3", 3}, {"K1", 2}, {"K2", 3}, {"K3", 4}}},
      {"ewf", +[]() { return ewf(); },
       {{"IN", 5}, {"k1", 2}, {"k2", 3}, {"k3", 1}, {"k4", 2}, {"k5", 3},
        {"sv1", 1}, {"sv2", 2}, {"sv3", 3}, {"sv4", 4}, {"sv5", 5}, {"sv6", 6},
        {"sv7", 7}, {"sv8", 8}}},
  };
  return all;
}

const BuiltinBenchmark* find_builtin(const std::string& name) {
  for (const auto& b : builtin_benchmarks())
    if (b.name == name) return &b;
  return nullptr;
}

FlowRequest make_builtin_request(const BuiltinBenchmark& b, std::string script) {
  FlowRequest r;
  r.benchmark = b.name;
  r.make = b.make;
  r.script = std::move(script);
  r.init = b.init;
  r.sim.randomize_delays = false;  // reproducible DSE points
  return r;
}

std::vector<std::string> gt_ablation_grid(bool with_lt) {
  std::vector<std::string> grid;
  grid.reserve(32);
  for (unsigned mask = 0; mask < 32; ++mask) {
    bool gt1 = mask & 1, gt2 = mask & 2, gt3 = mask & 4, gt4 = mask & 8,
         gt5 = mask & 16;
    std::string s;
    auto append = [&](const char* step) {
      if (!s.empty()) s += "; ";
      s += step;
    };
    // The paper's standard order, with the GT2 cleanup pass after GT4.
    if (gt1) append("gt1");
    if (gt2) append("gt2");
    if (gt3) append("gt3");
    if (gt4) append("gt4");
    if (gt2 && gt4) append("gt2");
    if (gt5) append("gt5");
    if (with_lt) append("lt");
    grid.push_back(std::move(s));
  }
  return grid;
}

}  // namespace adc
