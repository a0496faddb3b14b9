#pragma once
// Structured access log for the serving daemon.
//
// One JSON object per line, one line per *finished* job — completed,
// rejected at admission, or cancelled — appended as a single write so
// concurrent completions never interleave mid-line.  JSONL because the
// consumers are `grep | jq`, not a database: "every busy rejection in
// the last hour, by class" must be a one-liner at 3am.
//
// Rotation is by size: when an append would push the file past the
// limit, the current file is renamed to `<path>.1` (replacing any
// previous `.1`) and a fresh file starts.  Two generations bound disk
// usage at roughly 2x the limit without a compaction thread; anyone
// needing real retention ships the files somewhere else anyway.
//
// `validate()` is the schema's executable form — adc_obs_check
// --access-log runs it, CI runs adc_obs_check, so the schema documented
// in docs/OBSERVABILITY.md cannot silently drift from what the daemon
// writes.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace adc {
namespace obs {

struct AccessLogEntry {
  // "done" | "rejected" | "cancelled"
  std::string event;
  std::uint64_t id = 0;          // job id (0 for rejected: none assigned)
  std::string trace_id;          // 16 hex chars; empty for rejected
  std::string priority;          // high | normal | low
  std::string client;            // client-supplied name; may be empty
  std::string bench;             // benchmark or source name
  std::string script;            // transform recipe
  std::string status;            // FlowPoint status for done; reject code
  std::uint64_t queue_wait_us = 0;
  std::uint64_t service_us = 0;
  std::uint64_t wall_ms = 0;     // submit -> finish, client-visible
  bool from_disk_cache = false;
  std::uint64_t result_bytes = 0;   // serialized FlowPoint size
  std::uint64_t retry_after_ms = 0; // rejected only
};

class AccessLog {
 public:
  // max_bytes <= 0 disables rotation.
  AccessLog(std::string path, std::int64_t max_bytes);
  ~AccessLog();

  const std::string& path() const { return path_; }
  bool ok() const;           // stream healthy (open + no write errors)
  std::uint64_t lines() const { return lines_; }

  void append(const AccessLogEntry& e);
  void flush();

  // Parses a log file and returns problems (empty == valid).  Checks
  // JSON well-formedness, every member append() writes with its type
  // (counts as non-negative integers, read through JsonReader), the
  // event/class enums, and that every line carries a wall-clock timestamp.
  static std::vector<std::string> validate(const std::string& path,
                                           std::uint64_t* lines_out = nullptr);

 private:
  void rotate_locked();

  const std::string path_;
  const std::int64_t max_bytes_;
  mutable std::mutex mu_;
  int fd_ = -1;
  std::int64_t size_ = 0;
  std::uint64_t lines_ = 0;
  bool write_error_ = false;
};

}  // namespace obs
}  // namespace adc
