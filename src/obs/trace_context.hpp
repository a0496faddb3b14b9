#pragma once
// Span tracing for the flow: one span type, two sinks.
//
// The process trace (Tracer, trace/tracer.hpp) answers "what did
// this *process* do": per-thread tracks, every job of every client
// interleaved, written by --trace-out.  A daemon serving concurrent
// clients also needs the inverse view: "what happened to *this request*",
// as one connected span tree, regardless of which threads the stages
// landed on.
//
// A JobTrace is that tree.  The server allocates one per submitted job
// (trace id minted at accept), opens a root span covering the job's
// whole lifetime and a queue-wait child; the TraceContext — which
// JobTrace, which parent span, which process Tracer — rides the
// FlowRequest into the executor, where every stage (frontend, each gt
// step, per-controller synthesis, per-function logic, sim, disk probe and
// replay) opens a TraceSpan.  The span lands in both sinks: B/E events on
// the current thread's track of the Tracer, and a child of its parent in
// the JobTrace.  Span ids are explicit, so the tree survives the
// work-stealing pool: a controller subtask executing on another thread
// still parents correctly under its stage.
//
// JobTrace export is Chrome trace_event JSON with complete ("X") events —
// one self-contained, Perfetto-loadable document per job, fetched from a
// live daemon via the `trace` protocol op (adc_submit --trace-out).
// Everything is inert when the TraceContext is empty: a TraceSpan on a
// context with neither sink compiles to a few null checks.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace adc {

class JsonWriter;
class Tracer;

namespace obs {

struct TraceSpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root (no parent)
  std::string name;
  std::string category;
  std::uint64_t start_us = 0;  // relative to the JobTrace epoch
  std::uint64_t end_us = 0;    // 0 while the span is still open
  std::uint32_t thread = 0;    // stable per-trace thread index
  std::vector<std::pair<std::string, std::string>> args;
};

// Thread-safe per-job span collector.  Span granularity is one stage of
// one synthesis job, so a mutex per operation is noise next to the work
// being traced.
class JobTrace {
 public:
  explicit JobTrace(std::uint64_t trace_id);

  std::uint64_t trace_id() const { return trace_id_; }
  // 16-hex-digit rendering — what the wire protocol echoes.
  std::string trace_id_hex() const;

  // Microseconds since this trace was created (the trace epoch).
  std::uint64_t now_micros() const;

  // Opens a span under `parent` (0 = a root) and returns its id.
  std::uint64_t begin(const std::string& name, const std::string& category,
                      std::uint64_t parent);
  // Closes an open span, attaching `args` to it.  Unknown/already-closed
  // ids are ignored (a late close after export is harmless).
  void end(std::uint64_t id,
           std::vector<std::pair<std::string, std::string>> args = {});
  void annotate(std::uint64_t id, const std::string& key,
                const std::string& value);

  // Snapshot of every span recorded so far (open spans have end_us == 0).
  std::vector<TraceSpanRecord> spans() const;

  // Chrome trace_event JSON ({"traceEvents": [...]}) of the *finished*
  // spans as complete events; `pid` labels the process column (the
  // server passes the job id).  Span/parent/trace ids land in the args,
  // so the causal tree survives the flat event list.
  void write_chrome_trace(JsonWriter& w, std::uint64_t pid) const;

 private:
  std::uint32_t thread_index_locked();

  const std::uint64_t trace_id_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::uint64_t next_span_ = 1;
  std::vector<TraceSpanRecord> spans_;  // span id N lives at index N-1
  std::vector<std::pair<std::thread::id, std::uint32_t>> threads_;
};

// The propagation handle: which trace, which span new children hang
// under, and which process tracer also records them.  Copyable, cheap,
// and inert when default-constructed — the untraced CLIs run with an
// empty context and pay a few pointer tests.
class TraceContext {
 public:
  TraceContext() = default;
  TraceContext(std::shared_ptr<JobTrace> trace, std::uint64_t parent,
               Tracer* tracer = nullptr)
      : trace_(std::move(trace)), parent_(parent), tracer_(tracer) {}
  // Process trace only (the CLIs' analysis.* spans).
  explicit TraceContext(Tracer* tracer) : tracer_(tracer) {}

  bool active() const { return trace_ != nullptr || tracer_ != nullptr; }
  JobTrace* trace() const { return trace_.get(); }
  const std::shared_ptr<JobTrace>& trace_ptr() const { return trace_; }
  std::uint64_t parent() const { return parent_; }
  Tracer* tracer() const { return tracer_; }

 private:
  std::shared_ptr<JobTrace> trace_;
  std::uint64_t parent_ = 0;
  Tracer* tracer_ = nullptr;
};

// RAII span on a TraceContext: begins in every attached sink at
// construction, ends at destruction.  `arg` attaches key=value pairs that
// land on the close (so results computed during the span — cache
// disposition, counts — are visible in both traces).
class TraceSpan {
 public:
  TraceSpan() = default;  // inert
  TraceSpan(const TraceContext& ctx, std::string name,
            std::string category = "stage");
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return ctx_.active(); }
  std::uint64_t id() const { return id_; }
  // Context for children of *this* span — what gets passed downstream.
  TraceContext context() const {
    return TraceContext(ctx_.trace_ptr(), id_, ctx_.tracer());
  }

  void arg(std::string key, std::string value);
  void arg(std::string key, const char* value) {
    arg(std::move(key), std::string(value));
  }
  void arg(std::string key, std::uint64_t value) {
    arg(std::move(key), std::to_string(value));
  }
  void arg(std::string key, bool value) {
    arg(std::move(key), std::string(value ? "true" : "false"));
  }

 private:
  TraceContext ctx_;
  std::uint64_t id_ = 0;
  std::string name_;      // kept for the Tracer's end event
  std::string category_;
  std::vector<std::pair<std::string, std::string>> end_args_;
};

}  // namespace obs
}  // namespace adc
