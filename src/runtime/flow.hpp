#pragma once
// The parallel synthesis runtime's flow executor.
//
// One synthesis run is modelled as a DAG of stages
//
//   frontend -> gt-step* -> extract -> per controller (LT + logic) -> event-sim
//
// executed with per-stage wall-clock timing and metrics.  Two mechanisms
// make batch design-space exploration fast:
//
//  * a content-addressed StageCache: the frontend result, every global
//    transform *prefix* (the graph state after `gt1`, after `gt1; gt2`,
//    ...) and the controller set are each addressed by a fingerprint of
//    program text, normalized script prefix and delay model.  Recipes
//    sharing a prefix — exactly the shape of the paper's Figure 12/13
//    ablation grids — recompute nothing upstream of their first differing
//    step.  Below the set, each controller's LT + logic result is keyed by
//    the controller itself (fingerprint(ExtractedController) plus the LT
//    options), since the paper synthesizes every controller on its own: a
//    recipe that leaves a unit's controller unchanged reuses its circuit,
//    and the sets of different recipes share that one result;
//  * a work-stealing ThreadPool: run_all() fans independent recipe
//    evaluations across workers, and within one run the per-controller
//    work (local transforms + two-level logic synthesis) is forked as
//    nested subtasks.
//
// All stage results are immutable shared snapshots; workers clone before
// mutating, so a FlowExecutor (and its cache) is safe to share across the
// whole pool.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cdfg/cdfg.hpp"
#include "logic/memo.hpp"
#include "obs/registry.hpp"
#include "obs/trace_context.hpp"
#include "runtime/cache.hpp"
#include "runtime/cancel.hpp"
#include "runtime/disk_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/event_sim.hpp"
#include "trace/provenance.hpp"
#include "transforms/script.hpp"

namespace adc {

// Structured outcome of one flow run (the scheduler-grade job lifecycle:
// a failing point is *classified*, never just "not ok").
enum class FlowStatus {
  kOk,         // completed, every controller feasible, sim (if any) passed
  kDeadlock,   // the event simulation stalled (the E8 corners)
  kTimeout,    // a stage/job deadline fired and the run unwound
  kCancelled,  // an external CancelToken stopped the run
  kFault,      // an injected fault fired (fault.hpp test plans)
  kError,      // any other failure (infeasible logic, bad input, ...)
};
const char* to_string(FlowStatus s);
// The status to_string() names `name`, or nullopt.
std::optional<FlowStatus> parse_flow_status(const std::string& name);
// The batch tools' exit code (docs/ROBUSTNESS.md) for a set of terminal
// statuses — the worst wins: 6 fault/error, 5 timeout/cancelled,
// 4 deadlock, 0 when every point is ok or there are none.
int batch_exit_code(const std::vector<FlowStatus>& statuses);

// One synthesis job: a program, a transformation recipe and the
// verification inputs.
struct FlowRequest {
  // Display name; doubles as the cache identity when `source` is empty, so
  // it must uniquely name the program (builtin benchmark names do).
  std::string benchmark;
  // Program text in the frontend DSL.  Empty: `make` supplies the graph.
  std::string source;
  std::function<Cdfg()> make;
  // Transformation recipe (transforms/script.hpp syntax); the paper's
  // full recipe by default.
  std::string script = kPaperRecipe;
  // Event-simulation inputs; empty `init` with simulate=true still runs
  // (registers default to 0 in the simulator's datapath).
  std::map<std::string, std::int64_t> init;
  EventSimOptions sim;
  bool simulate = true;
  DelayModel delays = DelayModel::typical();
  // Build the reconciled per-run ProvenanceReport (FlowPoint::provenance).
  bool provenance = false;
  // Record the simulator's causal event log and attribute the end-to-end
  // latency (FlowPoint::critical_path).  Implies nothing unless simulate.
  bool critical_path = false;
  // Robustness budgets (0 = unlimited).  When a deadline fires the job's
  // CancelToken trips, the stages unwind cooperatively and the point is
  // reported with status=timeout instead of wedging its worker.
  std::uint64_t stage_deadline_ms = 0;  // per-stage wall budget
  std::uint64_t deadline_ms = 0;        // whole-job wall budget
  // External cancellation; shared with the deadline watchdog.
  CancelToken cancel;
  // Request-scoped trace (obs/trace_context.hpp).  When it carries a job
  // trace, run() parents one span per executed stage — frontend, each gt
  // step, per-controller synthesis, sim, disk probe/replay — under it, so
  // a serving daemon exports one connected tree per job.  run() adds the
  // executor's Options::tracer to it as the process trace.  Default-empty:
  // the batch CLIs pay a few null checks per stage.
  obs::TraceContext trace;
};

struct ControllerMetrics {
  std::string name;
  std::size_t states = 0;       // after local transforms
  std::size_t transitions = 0;  // after local transforms
  std::size_t states_extracted = 0;       // as extracted, before LT
  std::size_t transitions_extracted = 0;  // as extracted, before LT
  std::size_t products = 0;  // shared-product counting (Figure 13)
  std::size_t literals = 0;
  std::size_t state_bits = 0;  // encoding width (area model's latches)
  std::size_t outputs = 0;     // non-state output functions
  bool feasible = true;
};

// One controller's cached synthesis result: the controller after local
// transforms, its gate-level metrics and its LT pipeline log (decisions
// included; an empty TransformResult when the script has no lt step).
struct SynthesizedController {
  ControllerInstance instance;
  ControllerMetrics metrics;
  TransformResult local;
};

// The cached post-extraction artifact: the final channel plan and, in
// extraction order, the synthesized controllers.  A controller is shared
// with every other set (and the cache entry) holding the same one.
struct ControllerSet {
  ChannelPlan plan;
  std::vector<std::shared_ptr<const SynthesizedController>> controllers;

  // The instances, in order, as run_event_sim reads them.
  std::vector<const ControllerInstance*> instances() const;
};

// Structural digest of one extracted controller, the key of its LT + logic
// result.  It covers every field: the FU id, machine name and initial
// state; each signal's id, name, kind, role and initial value; each state
// slot's id, name and alive flag; each transition slot's id, from/to, both
// bursts (signal, polarity, directed don't-care), conds, origin, note and
// alive flag; and every SignalBinding.  `origin` matters although no
// rendering of the machine shows it: the event simulator reads the CDFG
// node through it, and two programs can extract the same machine text
// from different nodes.
Fingerprint fingerprint(const ExtractedController& c);

struct StageTiming {
  std::string stage;
  std::uint64_t micros = 0;      // wall time
  std::uint64_t cpu_micros = 0;  // executing thread's CPU time
  bool cached = false;           // served from the stage cache
};

// Figure-12/13 style quality metrics of one evaluated design point.
struct FlowPoint {
  std::string benchmark;
  std::string script;  // normalized rendering
  std::size_t channels = 0;
  std::size_t states = 0;
  std::size_t transitions = 0;
  std::size_t products = 0;
  std::size_t literals = 0;
  std::int64_t latency = 0;
  std::int64_t sim_events = 0;
  std::int64_t sim_operations = 0;
  // Final register file of the event simulation (empty when simulate=false).
  std::map<std::string, std::int64_t> sim_registers;
  bool ok = false;
  bool deadlocked = false;  // the event simulation stalled (E8 corners)
  // Structured outcome; run() always sets it.  Defaults to kOk so that
  // hand-built points JSON-render from the ok/deadlocked booleans alone.
  FlowStatus status = FlowStatus::kOk;
  // Evaluation attempts a retrying driver (adc_dse) spent on this point.
  unsigned attempts = 1;
  // Served from the persistent disk tier (artifacts/graph are not
  // rehydrated — metrics, registers and timings are).
  bool from_disk_cache = false;
  std::string error;
  std::vector<ControllerMetrics> controllers;
  std::vector<StageTiming> timings;
  std::uint64_t total_micros = 0;
  // The post-extraction artifacts this point was measured from (shared
  // with the cache; never mutate).
  std::shared_ptr<const ControllerSet> artifacts;
  // The fully transformed graph (shares ownership with the cached global
  // snapshot; never mutate).  Null when the flow failed before transforms.
  std::shared_ptr<const Cdfg> graph;
  // Reconciled decision log (only when FlowRequest::provenance was set).
  std::shared_ptr<const ProvenanceReport> provenance;
  // Latency attribution (only when FlowRequest::critical_path + simulate).
  std::shared_ptr<const CriticalPathResult> critical_path;
};

// JSON serialization of one point / a batch report (uses report/json.hpp).
// `extra` appends flat string members (e.g. {"vcd", "out.vcd"}) to the
// point object.
std::string to_json(const FlowPoint& p);
void write_json(class JsonWriter& w, const FlowPoint& p,
                const std::vector<std::pair<std::string, std::string>>& extra = {});

// Inverse of to_json for the disk-tier cache: rebuilds the metric fields
// of a FlowPoint (artifacts/graph/provenance/critical_path stay null).
// Every member write_json always emits is required and every count must be
// an integer of its field's type; only attempts, from_disk_cache, error,
// registers and critical_path may be absent.  A payload that falls short
// throws std::runtime_error listing each defect, so a replay is the cold
// point in full or a miss, never a point with zeroed counts.
FlowPoint parse_flow_point(const std::string& json);

class FlowExecutor {
 public:
  struct Options {
    std::size_t cache_capacity = 1024;  // 0 disables stage caching
    // Optional process trace (borrowed, not owned).  Every stage of every
    // run records a span, annotated with its cache disposition; pool and
    // cache gauges are written as counter tracks.  Null = tracing off.
    obs::Trace* tracer = nullptr;
    // Persistent disk tier: completed ok/deadlock points are stored as
    // checksummed JSON under this directory and replayed on the next run
    // (runtime/disk_cache.hpp).  Empty = disabled.
    std::string disk_cache_dir;
    std::uint64_t disk_cache_bytes = 256ull << 20;  // LRU cap; 0 = unlimited
  };

  // `pool` may be null: everything runs on the calling thread.  The pool
  // is borrowed, not owned.
  explicit FlowExecutor(ThreadPool* pool = nullptr);
  FlowExecutor(ThreadPool* pool, Options opts);

  // Evaluates one design point (thread-safe; callable from pool tasks).
  FlowPoint run(const FlowRequest& req);

  // Evaluates a batch, fanning across the pool when present.  Results are
  // in request order.
  std::vector<FlowPoint> run_all(const std::vector<FlowRequest>& reqs);

  // This executor's own registry (unlabeled flow.*/stage.* metrics);
  // never the daemon's, whose families are the /metrics catalogue.
  obs::Registry& metrics() { return metrics_; }
  const StageCache& cache() const { return cache_; }
  // Null unless Options::disk_cache_dir was set.
  DiskCache* disk_cache() { return disk_.get(); }
  // Content-addressed cover memo shared by every run of this executor
  // (capacity 0 when stage caching is disabled).
  LogicMemo& logic_memo() { return *logic_memo_; }
  ThreadPool* pool() const { return pool_; }

 private:
  struct GlobalSnapshot;  // graph + accumulated pipeline log after a prefix

  std::shared_ptr<const Cdfg> frontend_stage(const FlowRequest& req, Fingerprint& key,
                                             FlowPoint& p,
                                             const obs::TraceContext& otrace);
  std::shared_ptr<const GlobalSnapshot> global_stage(const FlowRequest& req,
                                                     const TransformScript& script,
                                                     std::shared_ptr<const Cdfg> parsed,
                                                     Fingerprint key, FlowPoint& p,
                                                     const obs::TraceContext& otrace);
  std::shared_ptr<const ControllerSet> controller_stage(
      const TransformScript& script, std::shared_ptr<const GlobalSnapshot> snap,
      const Fingerprint& key, FlowPoint& p, const CancelToken& cancel,
      const obs::TraceContext& otrace);
  std::shared_ptr<const ProvenanceReport> build_provenance(const FlowPoint& p,
                                                           const Cdfg& initial,
                                                           const GlobalSnapshot& snap,
                                                           const ControllerSet& set);
  // The current stage-cache, pool, cover-memo and disk-tier figures: the
  // metrics gauges' source, and the counter tracks trace_gauges() writes
  // at the end of every run when a process trace is attached.
  std::vector<std::pair<const char*, std::int64_t>> gauge_values() const;
  void trace_gauges() const;

  ThreadPool* pool_;
  Options opts_;
  StageCache cache_;
  std::unique_ptr<DiskCache> disk_;
  std::unique_ptr<LogicMemo> logic_memo_;
  obs::Registry metrics_;
  // The stage histograms, resolved once at construction.
  obs::SlidingHistogram& stage_frontend_;
  obs::SlidingHistogram& stage_global_;
  obs::SlidingHistogram& stage_controllers_;
  obs::SlidingHistogram& stage_sim_;
  obs::SlidingHistogram& stage_disk_;
  obs::SlidingHistogram& flow_total_;
};

// --- builtin benchmark registry for the CLIs ------------------------------
// Name -> graph factory + the register file the bundled examples simulate
// with (matching bench/ablation_design_space.cpp).
struct BuiltinBenchmark {
  std::string name;
  Cdfg (*make)();
  std::map<std::string, std::int64_t> init;
};

const std::vector<BuiltinBenchmark>& builtin_benchmarks();
const BuiltinBenchmark* find_builtin(const std::string& name);

// Request for a builtin benchmark (deterministic sim, fixed delays).
FlowRequest make_builtin_request(const BuiltinBenchmark& b, std::string script);

// The 32-recipe GT ablation grid (every gt1..gt5 on/off combination, the
// paper's standard step order, local transforms appended) — the grid the
// Figure 12/13 reproduction sweeps.  The GT2 cleanup pass after GT4 is
// part of every recipe holding both, so the full grid's last recipe is
// kPaperRecipe (with_lt) or kPaperRecipe without its `lt` step.
std::vector<std::string> gt_ablation_grid(bool with_lt = true);

}  // namespace adc
