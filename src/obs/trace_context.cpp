#include "obs/trace_context.hpp"

#include <algorithm>

#include "report/json.hpp"
#include "trace/tracer.hpp"

namespace adc {
namespace obs {

JobTrace::JobTrace(std::uint64_t trace_id)
    : trace_id_(trace_id), epoch_(std::chrono::steady_clock::now()) {}

std::string JobTrace::trace_id_hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  std::uint64_t v = trace_id_;
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::uint64_t JobTrace::now_micros() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::uint32_t JobTrace::thread_index_locked() {
  const std::thread::id self = std::this_thread::get_id();
  for (const auto& [tid, idx] : threads_) {
    if (tid == self) return idx;
  }
  const auto idx = static_cast<std::uint32_t>(threads_.size());
  threads_.emplace_back(self, idx);
  return idx;
}

std::uint64_t JobTrace::begin(const std::string& name,
                              const std::string& category,
                              std::uint64_t parent) {
  const std::uint64_t start = now_micros();
  std::lock_guard<std::mutex> lk(mu_);
  TraceSpanRecord rec;
  rec.id = next_span_++;
  rec.parent = parent;
  rec.name = name;
  rec.category = category;
  rec.start_us = start;
  rec.thread = thread_index_locked();
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void JobTrace::end(std::uint64_t id,
                   std::vector<std::pair<std::string, std::string>> args) {
  const std::uint64_t end = now_micros();
  std::lock_guard<std::mutex> lk(mu_);
  if (id == 0 || id >= next_span_) return;
  TraceSpanRecord& rec = spans_[id - 1];
  if (rec.end_us != 0) return;
  // A stage can finish so fast the µs clock doesn't tick; keep end > start
  // so the exported complete event has a visible (and nonzero) duration.
  rec.end_us = std::max(end, rec.start_us + 1);
  for (auto& kv : args) rec.args.push_back(std::move(kv));
}

void JobTrace::annotate(std::uint64_t id, const std::string& key,
                        const std::string& value) {
  std::lock_guard<std::mutex> lk(mu_);
  if (id == 0 || id >= next_span_) return;
  spans_[id - 1].args.emplace_back(key, value);
}

std::vector<TraceSpanRecord> JobTrace::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

void JobTrace::write_chrome_trace(JsonWriter& w, std::uint64_t pid) const {
  std::vector<TraceSpanRecord> spans;
  std::size_t n_threads = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    spans = spans_;
    n_threads = threads_.size();
  }
  const std::string trace_hex = trace_id_hex();
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  // Metadata: name the process after the job so several merged job traces
  // stay distinguishable in one Perfetto session.
  w.begin_object();
  w.kv("ph", "M");
  w.kv("pid", pid);
  w.kv("tid", std::uint64_t{0});
  w.kv("name", "process_name");
  w.key("args");
  w.begin_object();
  w.kv("name", "job " + std::to_string(pid) + " trace " + trace_hex);
  w.end_object();
  w.end_object();
  for (std::size_t t = 0; t < n_threads; ++t) {
    w.begin_object();
    w.kv("ph", "M");
    w.kv("pid", pid);
    w.kv("tid", static_cast<std::uint64_t>(t));
    w.kv("name", "thread_name");
    w.key("args");
    w.begin_object();
    w.kv("name", t == 0 ? std::string("server") : "worker-" + std::to_string(t));
    w.end_object();
    w.end_object();
  }
  for (const auto& s : spans) {
    if (s.end_us == 0) continue;  // still open — not exportable yet
    w.begin_object();
    w.kv("ph", "X");
    w.kv("pid", pid);
    w.kv("tid", static_cast<std::uint64_t>(s.thread));
    w.kv("name", s.name);
    w.kv("cat", s.category);
    w.kv("ts", s.start_us);
    w.kv("dur", s.end_us - s.start_us);
    w.key("args");
    w.begin_object();
    w.kv("trace_id", trace_hex);
    w.kv("span_id", s.id);
    w.kv("parent_span_id", s.parent);
    for (const auto& [k, v] : s.args) w.kv(k, v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

TraceSpan::TraceSpan(const TraceContext& ctx, std::string name,
                     std::string category)
    : ctx_(ctx) {
  if (ctx_.trace()) id_ = ctx_.trace()->begin(name, category, ctx_.parent());
  if (ctx_.tracer()) {
    ctx_.tracer()->begin(name, category);
    name_ = std::move(name);
    category_ = std::move(category);
  }
}

TraceSpan::~TraceSpan() {
  if (ctx_.tracer()) ctx_.tracer()->end(name_, category_, end_args_);
  if (ctx_.trace() && id_ != 0) ctx_.trace()->end(id_, std::move(end_args_));
}

void TraceSpan::arg(std::string key, std::string value) {
  if (!ctx_.active()) return;
  end_args_.emplace_back(std::move(key), std::move(value));
}

}  // namespace obs
}  // namespace adc
