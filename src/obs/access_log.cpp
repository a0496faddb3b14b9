#include "obs/access_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "report/json.hpp"
#include "report/json_parse.hpp"

namespace adc {
namespace obs {

namespace {

std::uint64_t wall_clock_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

int open_append(const std::string& path) {
  return ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                0644);
}

}  // namespace

AccessLog::AccessLog(std::string path, std::int64_t max_bytes)
    : path_(std::move(path)), max_bytes_(max_bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  fd_ = open_append(path_);
  if (fd_ >= 0) {
    struct stat st{};
    if (::fstat(fd_, &st) == 0) size_ = st.st_size;
  } else {
    write_error_ = true;
  }
}

AccessLog::~AccessLog() {
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool AccessLog::ok() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fd_ >= 0 && !write_error_;
}

void AccessLog::rotate_locked() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  // rename() replaces any previous .1 atomically; the worst crash window
  // leaves both files intact under their new names.
  const std::string old = path_ + ".1";
  if (::rename(path_.c_str(), old.c_str()) != 0 && errno != ENOENT)
    write_error_ = true;
  fd_ = open_append(path_);
  size_ = 0;
  if (fd_ < 0) write_error_ = true;
}

void AccessLog::append(const AccessLogEntry& e) {
  JsonWriter w;
  w.begin_object();
  w.kv("ts_ms", wall_clock_ms());
  w.kv("event", e.event);
  w.kv("id", e.id);
  w.kv("trace_id", e.trace_id);
  w.kv("class", e.priority);
  w.kv("client", e.client);
  w.kv("bench", e.bench);
  w.kv("script", e.script);
  w.kv("status", e.status);
  w.kv("queue_wait_us", e.queue_wait_us);
  w.kv("service_us", e.service_us);
  w.kv("wall_ms", e.wall_ms);
  w.kv("from_disk_cache", e.from_disk_cache);
  w.kv("result_bytes", e.result_bytes);
  if (e.event == "rejected") w.kv("retry_after_ms", e.retry_after_ms);
  w.end_object();
  std::string line = w.str();
  line += '\n';

  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ < 0) return;
  if (max_bytes_ > 0 &&
      size_ + static_cast<std::int64_t>(line.size()) > max_bytes_ &&
      size_ > 0)
    rotate_locked();
  if (fd_ < 0) return;
  // One write(2) per line on an O_APPEND fd: concurrent appends land
  // whole, in some order, never spliced.
  const ssize_t n = ::write(fd_, line.data(), line.size());
  if (n != static_cast<ssize_t>(line.size()))
    write_error_ = true;
  else {
    size_ += n;
    ++lines_;
  }
}

void AccessLog::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ >= 0) ::fsync(fd_);
}

std::vector<std::string> AccessLog::validate(const std::string& path,
                                             std::uint64_t* lines_out) {
  std::vector<std::string> problems;
  std::ifstream in(path);
  if (!in) {
    problems.push_back("cannot open " + path);
    return problems;
  }
  std::string line;
  std::uint64_t lineno = 0, counted = 0;
  std::uint64_t last_ts = 0;
  auto fail = [&](const std::string& what) {
    problems.push_back(path + ":" + std::to_string(lineno) + ": " + what);
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    ++counted;
    JsonValue doc;
    try {
      doc = parse_json(line);
    } catch (const std::exception& ex) {
      fail(std::string("bad JSON: ") + ex.what());
      continue;
    }
    JsonReader r(doc, path + ":" + std::to_string(lineno), problems);
    if (!doc.is_object()) continue;
    const std::string event = r.required<std::string>("event");
    if (!event.empty() && event != "done" && event != "rejected" &&
        event != "cancelled")
      r.problem("unknown event '" + event + "'");
    const std::string cls = r.required<std::string>("class");
    if (!cls.empty() && cls != "high" && cls != "normal" && cls != "low")
      r.problem("unknown class '" + cls + "'");
    for (const char* key : {"client", "bench", "script", "status"})
      r.required<std::string>(key);
    for (const char* key :
         {"id", "queue_wait_us", "service_us", "wall_ms", "result_bytes"})
      r.required<std::uint64_t>(key);
    r.required<bool>("from_disk_cache");
    if (event == "rejected") r.required<std::uint64_t>("retry_after_ms");
    if (const JsonValue* ts = r.member("ts_ms", JsonValue::Kind::kNumber)) {
      const std::optional<std::uint64_t> t = json_integer<std::uint64_t>(*ts);
      if (!t)
        r.problem("ts_ms is not a non-negative integer");
      else if (*t + 1000 < last_ts)
        r.problem("timestamp went backwards by more than a second");
      last_ts = std::max(last_ts, t.value_or(0));
    }
    const std::string trace_id = r.required<std::string>("trace_id");
    if (!trace_id.empty() && trace_id.size() != 16)
      r.problem("trace_id is not 16 hex characters");
  }
  if (lines_out) *lines_out = counted;
  return problems;
}

}  // namespace obs
}  // namespace adc
