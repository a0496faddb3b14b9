#include "obs/trace_context.hpp"

#include <algorithm>
#include <fstream>

#include "report/json.hpp"

namespace adc {
namespace obs {

Trace::Trace(std::uint64_t trace_id)
    : trace_id_(trace_id), epoch_(std::chrono::steady_clock::now()) {}

std::string Trace::trace_id_hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  std::uint64_t v = trace_id_;
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::uint64_t Trace::now_micros() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

// Stamps `rec` with its id and the calling thread's index.  start_us is
// read by the caller before the lock, so records of one thread stay in
// time order.
std::uint64_t Trace::record(TraceSpanRecord rec) {
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lk(mu_);
  auto it = std::find(threads_.begin(), threads_.end(), self);
  rec.thread = static_cast<std::uint32_t>(it - threads_.begin());
  if (it == threads_.end()) threads_.push_back(self);
  rec.id = records_.size() + 1;
  records_.push_back(std::move(rec));
  return records_.back().id;
}

std::uint64_t Trace::begin(const std::string& name, const std::string& category,
                           std::uint64_t parent) {
  TraceSpanRecord rec;
  rec.parent = parent;
  rec.name = name;
  rec.category = category;
  rec.start_us = now_micros();
  return record(std::move(rec));
}

void Trace::counter(const std::string& name, std::int64_t value) {
  TraceSpanRecord rec;
  rec.name = name;
  rec.category = "counter";
  rec.start_us = now_micros();
  rec.phase = 'C';
  rec.value = value;
  record(std::move(rec));
}

void Trace::instant(const std::string& name, const std::string& category,
                    std::vector<std::pair<std::string, std::string>> args) {
  TraceSpanRecord rec;
  rec.name = name;
  rec.category = category;
  rec.start_us = now_micros();
  rec.args = std::move(args);
  rec.phase = 'i';
  record(std::move(rec));
}

void Trace::end(std::uint64_t id,
                std::vector<std::pair<std::string, std::string>> args) {
  const std::uint64_t end = now_micros();
  std::lock_guard<std::mutex> lk(mu_);
  if (id == 0 || id > records_.size()) return;
  TraceSpanRecord& rec = records_[id - 1];
  if (rec.phase != 'X' || rec.end_us != 0) return;
  // A stage can finish so fast the µs clock doesn't tick; keep end > start
  // so the exported complete event has a visible (and nonzero) duration.
  rec.end_us = std::max(end, rec.start_us + 1);
  for (auto& kv : args) rec.args.push_back(std::move(kv));
}

void Trace::annotate(std::uint64_t id, const std::string& key,
                     const std::string& value) {
  std::lock_guard<std::mutex> lk(mu_);
  if (id == 0 || id > records_.size()) return;
  records_[id - 1].args.emplace_back(key, value);
}

void Trace::close_open(
    const std::vector<std::pair<std::string, std::string>>& args) {
  const std::uint64_t end = now_micros();
  std::lock_guard<std::mutex> lk(mu_);
  for (TraceSpanRecord& rec : records_) {
    if (rec.phase != 'X' || rec.end_us != 0) continue;
    rec.end_us = std::max(end, rec.start_us + 1);
    rec.args.insert(rec.args.end(), args.begin(), args.end());
  }
}

std::vector<TraceSpanRecord> Trace::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TraceSpanRecord> out;
  for (const TraceSpanRecord& rec : records_)
    if (rec.phase == 'X') out.push_back(rec);
  return out;
}

void Trace::write_chrome_trace(JsonWriter& w, std::uint64_t pid) const {
  std::vector<TraceSpanRecord> records;
  std::size_t n_threads = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    records = records_;
    n_threads = threads_.size();
  }
  const std::string trace_hex = trace_id_hex();
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  // Metadata: name the process after the job so several merged traces stay
  // distinguishable in one Perfetto session.
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
    // The first thread is the one that opened the trace's root (the
    // server's, for a job).
    w.kv("name", t == 0 ? std::string("server") : "worker-" + std::to_string(t));
    w.end_object();
    w.end_object();
  }
  for (const auto& s : records) {
    if (s.phase == 'X' && s.end_us == 0) continue;  // still open — not exportable yet
    w.begin_object();
    w.kv("ph", std::string(1, s.phase));
    w.kv("pid", pid);
    w.kv("tid", static_cast<std::uint64_t>(s.thread));
    w.kv("name", s.name);
    w.kv("cat", s.category);
    w.kv("ts", s.start_us);
    if (s.phase == 'X') w.kv("dur", s.end_us - s.start_us);
    if (s.phase == 'i') w.kv("s", "t");  // thread-scoped
    w.key("args");
    w.begin_object();
    if (s.phase == 'X') {
      w.kv("trace_id", trace_hex);
      w.kv("span_id", s.id);
      w.kv("parent_span_id", s.parent);
    } else if (s.phase == 'C') {
      w.kv("value", s.value);
    }
    for (const auto& [k, v] : s.args) w.kv(k, v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

bool write_chrome_trace_file(const Trace& trace, const std::string& path) {
  JsonWriter w;
  trace.write_chrome_trace(w, 1);
  std::ofstream out(path);
  out << w.str();
  return static_cast<bool>(out);
}

TraceSpan::TraceSpan(const TraceContext& ctx, const std::string& name,
                     const std::string& category)
    : ctx_(ctx) {
  if (ctx_.job()) id_ = ctx_.job()->begin(name, category, ctx_.parent());
  if (ctx_.process())
    process_id_ = ctx_.process()->begin(name, category, ctx_.process_parent());
}

TraceSpan::~TraceSpan() {
  if (ctx_.process()) ctx_.process()->end(process_id_, end_args_);
  if (ctx_.job()) ctx_.job()->end(id_, std::move(end_args_));
}

void TraceSpan::arg(std::string key, std::string value) {
  if (!ctx_.active()) return;
  end_args_.emplace_back(std::move(key), std::move(value));
}

}  // namespace obs
}  // namespace adc
