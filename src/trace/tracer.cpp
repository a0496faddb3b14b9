#include "trace/tracer.hpp"

#include <algorithm>
#include <atomic>

#include "report/json.hpp"

namespace adc {

namespace {

// thread_local slot per (thread, tracer) pair, keyed by a process-unique
// tracer id (never an address, which could be reused after destruction).
// Weak references let buffers die with their tracer; dead slots are pruned
// on the next lookup miss.  Tracer counts are O(1) in practice (one per
// CLI invocation / test), so the linear scan is fine.
struct LocalSlot {
  std::uint64_t tracer_id = 0;
  std::weak_ptr<void> buffer;
};
thread_local std::vector<LocalSlot> tls_slots;

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Tracer::Tracer() : id_(next_tracer_id()), epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::now_micros() const {
  auto d = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

Tracer::TrackBuffer& Tracer::local_buffer() {
  for (const LocalSlot& s : tls_slots)
    if (s.tracer_id == id_)
      if (auto held = s.buffer.lock()) return *std::static_pointer_cast<TrackBuffer>(held);
  tls_slots.erase(std::remove_if(tls_slots.begin(), tls_slots.end(),
                                 [](const LocalSlot& s) { return s.buffer.expired(); }),
                  tls_slots.end());
  auto buf = std::make_shared<TrackBuffer>();
  {
    std::lock_guard<std::mutex> lk(mu_);
    buf->id = static_cast<std::uint32_t>(buffers_.size()) + 1;  // tids start at 1
    buffers_.push_back(buf);
  }
  tls_slots.push_back({id_, buf});
  return *buf;
}

std::uint32_t Tracer::track_id() { return local_buffer().id; }

void Tracer::record(TraceEvent ev) {
  TrackBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lk(buf.mu);
  buf.events.push_back(std::move(ev));
}

void Tracer::begin(const std::string& name, const std::string& category,
                   std::vector<std::pair<std::string, std::string>> args) {
  record({TraceEvent::Phase::kBegin, name, category, now_micros(), std::move(args), 0});
}

void Tracer::end(const std::string& name, const std::string& category,
                 std::vector<std::pair<std::string, std::string>> args) {
  record({TraceEvent::Phase::kEnd, name, category, now_micros(), std::move(args), 0});
}

void Tracer::instant(const std::string& name, const std::string& category,
                     std::vector<std::pair<std::string, std::string>> args) {
  record({TraceEvent::Phase::kInstant, name, category, now_micros(), std::move(args), 0});
}

void Tracer::counter(const std::string& name, std::int64_t value) {
  record({TraceEvent::Phase::kCounter, name, "counter", now_micros(), {}, value});
}

std::vector<std::uint32_t> Tracer::tracks() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::uint32_t> out;
  for (const auto& b : buffers_) out.push_back(b->id);
  return out;
}

std::vector<TraceEvent> Tracer::events_for_track(std::uint32_t track) const {
  std::shared_ptr<TrackBuffer> buf;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& b : buffers_)
      if (b->id == track) buf = b;
  }
  if (!buf) return {};
  std::lock_guard<std::mutex> lk(buf->mu);
  return buf->events;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  std::vector<std::shared_ptr<TrackBuffer>> bufs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    bufs = buffers_;
  }
  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (const auto& buf : bufs) {
    std::vector<TraceEvent> events;
    {
      std::lock_guard<std::mutex> lk(buf->mu);
      events = buf->events;
    }
    // Close spans still in flight (an interrupted run flushing mid-stage):
    // a synthetic end per unmatched begin keeps B/E balanced per track.
    std::vector<const TraceEvent*> open;
    std::uint64_t last_ts = 0;
    for (const TraceEvent& ev : events) {
      last_ts = std::max(last_ts, ev.ts_micros);
      if (ev.phase == TraceEvent::Phase::kBegin) open.push_back(&ev);
      else if (ev.phase == TraceEvent::Phase::kEnd && !open.empty()) open.pop_back();
    }
    std::vector<TraceEvent> synthetic;  // built first: pushing into
    for (auto it = open.rbegin(); it != open.rend(); ++it) {  // `events`
      TraceEvent end;                   // would invalidate the pointers
      end.phase = TraceEvent::Phase::kEnd;
      end.name = (*it)->name;
      end.category = (*it)->category;
      end.ts_micros = std::max(last_ts, now_micros());
      end.args.emplace_back("flushed", "interrupted");
      synthetic.push_back(std::move(end));
    }
    for (auto& end : synthetic) events.push_back(std::move(end));
    for (const TraceEvent& ev : events) {
      w.begin_object();
      w.kv("name", ev.name);
      w.kv("cat", ev.category.empty() ? "adc" : ev.category);
      w.kv("ph", std::string(1, static_cast<char>(ev.phase)));
      w.kv("ts", ev.ts_micros);
      w.kv("pid", 1);
      w.kv("tid", static_cast<std::uint64_t>(buf->id));
      if (ev.phase == TraceEvent::Phase::kInstant) w.kv("s", "t");  // thread-scoped
      if (ev.phase == TraceEvent::Phase::kCounter) {
        w.key("args");
        w.begin_object();
        w.kv("value", ev.counter_value);
        w.end_object();
      } else if (!ev.args.empty()) {
        w.key("args");
        w.begin_object();
        for (const auto& [k, v] : ev.args) w.kv(k, v);
        w.end_object();
      }
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  os << w.str();
}

}  // namespace adc
