#pragma once
// Span tracing with Chrome trace_event JSON export.
//
// A Tracer collects timestamped events from any number of threads; the
// resulting file loads directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing, giving a zoomable timeline of the whole synthesis flow:
// which stage ran when, on which worker, nested how, served from the stage
// cache or computed.
//
//   Tracer tracer;
//   obs::TraceContext ctx(&tracer);       // obs/trace_context.hpp
//   {
//     obs::TraceSpan run(ctx, "flow.run", "flow");
//     run.arg("benchmark", "diffeq");
//     {
//       obs::TraceSpan fe(run.context(), "frontend");
//       fe.arg("cache", "miss");
//       ...
//     }
//   }
//   tracer.counter("cache.entries", 17);
//   std::ofstream out("run.trace.json");
//   tracer.write_chrome_trace(out);
//
// obs::TraceSpan is the one span type: on a context that also carries a
// per-job JobTrace it records into both.
//
// Implementation notes:
//  * every thread gets a stable track id (Chrome "tid") on first use, so
//    spans from one worker nest on one row and B/E pairs balance per track;
//  * events are buffered per thread (a mutex only guards registration and
//    export), so tracing adds two clock reads and a vector push per span;
//  * a null Tracer* everywhere means tracing is off, which is how the flow
//    runs when --trace-out is absent.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace adc {

struct TraceEvent {
  enum class Phase : char { kBegin = 'B', kEnd = 'E', kCounter = 'C', kInstant = 'i' };
  Phase phase = Phase::kBegin;
  std::string name;
  std::string category;
  std::uint64_t ts_micros = 0;  // relative to the tracer epoch
  std::vector<std::pair<std::string, std::string>> args;
  std::int64_t counter_value = 0;  // kCounter only
};

class Tracer {
 public:
  Tracer();

  // Microseconds since this tracer was constructed (the trace epoch).
  std::uint64_t now_micros() const;

  // Raw event emission; prefer obs::TraceSpan for begin/end pairing.
  void begin(const std::string& name, const std::string& category,
             std::vector<std::pair<std::string, std::string>> args = {});
  void end(const std::string& name, const std::string& category,
           std::vector<std::pair<std::string, std::string>> args = {});
  void instant(const std::string& name, const std::string& category,
               std::vector<std::pair<std::string, std::string>> args = {});
  // Counter track sample ("C" phase): one series per name.
  void counter(const std::string& name, std::int64_t value);

  // The calling thread's track id (assigned on first event).
  std::uint32_t track_id();

  // Serializes everything recorded so far as Chrome trace_event JSON
  // ({"traceEvents": [...]}).  Thread-safe; concurrent recording continues.
  void write_chrome_trace(std::ostream& os) const;

  // All events of one track, in emission order (test/inspection hook).
  std::vector<TraceEvent> events_for_track(std::uint32_t track) const;
  std::vector<std::uint32_t> tracks() const;

 private:
  struct TrackBuffer {
    std::uint32_t id = 0;
    std::vector<TraceEvent> events;
    std::mutex mu;  // guards `events` between the owner thread and export
  };

  TrackBuffer& local_buffer();
  void record(TraceEvent ev);

  std::uint64_t id_;  // process-unique, keys the thread-local buffer cache
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards `buffers_`
  std::vector<std::shared_ptr<TrackBuffer>> buffers_;
};

}  // namespace adc
