#pragma once
// Span tracing for the flow: one recorder, one span type.
//
// A Trace is a thread-safe collector of span records with explicit ids
// and parents, plus counter samples and instants.  It answers two
// questions with one storage model:
//
//  * "what happened to *this request*": the daemon allocates one Trace per
//    submitted job (trace id minted at accept), opens a root span covering
//    the job's whole lifetime and a queue-wait child, and exports it
//    through the `trace` protocol op (adc_submit --trace-out);
//  * "what did this *process* do": a tool that writes --trace-out owns one
//    Trace for the whole run, every job of every client recorded into it,
//    plus the executor's gauge counter tracks.
//
// A TraceContext carries up to two (trace, parent span) pairs, the job's
// and the process's, and rides the FlowRequest into the executor, where
// every stage (frontend, each gt step, per-controller synthesis,
// per-function logic, sim, disk probe and replay) opens a TraceSpan.  The
// span opens a child of its parent in each trace.  Span ids are explicit,
// so both trees survive the work-stealing pool: a controller subtask
// executing on another thread still parents correctly under its stage.
//
// Export is Chrome trace_event JSON: finished spans as complete ("X")
// events carrying their span/parent ids, counters as "C" and instants as
// "i" events, one Perfetto-loadable document.  Everything is inert when
// the TraceContext is empty: a TraceSpan on a context with no trace
// compiles to a few null checks.

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

namespace obs {

struct TraceSpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root (no parent)
  std::string name;
  std::string category;
  std::uint64_t start_us = 0;  // relative to the trace epoch
  std::uint64_t end_us = 0;    // 0 while the span is still open
  std::uint32_t thread = 0;    // stable per-trace thread index
  // 'X' for spans; 'C' (counter sample, `value`) and 'i' (instant) marks
  // are recorded at start_us and never open.
  char phase = 'X';
  std::int64_t value = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

// Thread-safe span collector: one mutex guards every record.  Span
// granularity is one stage of one synthesis job; with --trace-out, the
// traced adc_dse (diffeq, gt grid, 4 jobs) and adc_serve (2 workers, the
// same grid) runs measured the same wall and CPU time as with per-thread
// buffers (40 interleaved pairs, 4-vCPU Xeon).
class Trace {
 public:
  explicit Trace(std::uint64_t trace_id);

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
  // Closes every span still open, attaching `args` — what an interrupted
  // run's artifact flush does before it writes, so the spans in flight
  // are exported instead of dropped.
  void close_open(const std::vector<std::pair<std::string, std::string>>& args);

  // Counter track sample ("C"): one series per name.
  void counter(const std::string& name, std::int64_t value);
  // Point-in-time event ("i") on the calling thread's track.
  void instant(const std::string& name, const std::string& category,
               std::vector<std::pair<std::string, std::string>> args = {});

  // Snapshot of every span recorded so far (open spans have end_us == 0);
  // counter samples and instants are left out.
  std::vector<TraceSpanRecord> spans() const;

  // Chrome trace_event JSON ({"traceEvents": [...]}) of the *finished*
  // spans as complete events plus the counter and instant marks; `pid`
  // labels the process column (the server passes the job id).
  // Span/parent/trace ids land in the args, so the causal tree survives
  // the flat event list.  Records are written in recording order, so time
  // never moves backwards on a thread's track.
  void write_chrome_trace(JsonWriter& w, std::uint64_t pid) const;

 private:
  std::uint64_t record(TraceSpanRecord rec);

  const std::uint64_t trace_id_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceSpanRecord> records_;  // record id N lives at index N-1
  std::vector<std::thread::id> threads_;  // thread index -> thread
};

// Writes `trace` to `path` as a Chrome trace file (pid 1): what the
// tools' --trace-out does.  False when the file could not be written.
bool write_chrome_trace_file(const Trace& trace, const std::string& path);

// The propagation handle: which traces new spans land in and which span
// they hang under in each — the job's tree and the process trace.
// Copyable, cheap, and inert when default-constructed — the untraced CLIs
// run with an empty context and pay a few pointer tests.
class TraceContext {
 public:
  TraceContext() = default;
  TraceContext(std::shared_ptr<Trace> job, std::uint64_t parent,
               Trace* process = nullptr, std::uint64_t process_parent = 0)
      : job_(std::move(job)),
        parent_(parent),
        process_(process),
        process_parent_(process_parent) {}
  // Process trace only (the CLIs' analysis.* spans).
  explicit TraceContext(Trace* process) : process_(process) {}

  bool active() const { return job_ != nullptr || process_ != nullptr; }
  Trace* job() const { return job_.get(); }
  const std::shared_ptr<Trace>& job_ptr() const { return job_; }
  std::uint64_t parent() const { return parent_; }
  Trace* process() const { return process_; }
  std::uint64_t process_parent() const { return process_parent_; }

 private:
  std::shared_ptr<Trace> job_;
  std::uint64_t parent_ = 0;
  Trace* process_ = nullptr;
  std::uint64_t process_parent_ = 0;
};

// RAII span on a TraceContext: begins in every attached trace at
// construction, ends at destruction.  `arg` attaches key=value pairs that
// land on the close (so results computed during the span — cache
// disposition, counts — are visible in both traces).
class TraceSpan {
 public:
  TraceSpan() = default;  // inert
  TraceSpan(const TraceContext& ctx, const std::string& name,
            const std::string& category = "stage");
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return ctx_.active(); }
  // The span's id in the job trace (0 without one).
  std::uint64_t id() const { return id_; }
  // Context for children of *this* span — what gets passed downstream.
  TraceContext context() const {
    return TraceContext(ctx_.job_ptr(), id_, ctx_.process(), process_id_);
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
  std::uint64_t id_ = 0;          // in the job trace
  std::uint64_t process_id_ = 0;  // in the process trace
  std::vector<std::pair<std::string, std::string>> end_args_;
};

}  // namespace obs
}  // namespace adc
