#pragma once
// Disk tier for the stage cache: fingerprint-keyed files that survive
// restarts.
//
// One entry is one file `<key>.adcstage` under the cache directory, where
// `key` is the entry's fingerprint in hex.  The on-disk format is a small
// checksummed header followed by an opaque payload:
//
//   offset  size  field
//        0     4  magic "ADCK"
//        4     4  format version (little-endian u32)
//        8     8  payload length (little-endian u64)
//       16     8  FNV-1a 64 checksum of the payload (little-endian u64)
//       24     N  payload bytes
//
// Crash safety: put() writes to `<key>.adcstage.tmp.<pid>`, flushes and
// fsyncs it, then renames over the final name — readers see either the
// old entry or the complete new one, never a partial write.  get() treats
// *any* defect (bad magic, unknown version, length mismatch, checksum
// mismatch, short file) as a miss and evicts the file, so a corrupted
// cache degrades to cold, never to wrong answers.
//
// The cache keeps a byte budget: after each put the least-recently-used
// entries are removed until the total is back under `max_bytes`.  The
// byte total and the recency order are an in-process index, built by one
// directory scan at open (recency = file mtime) and then kept by every
// put, overwrite, hit, eviction and defect removal, so no put or
// total_bytes() call lists the directory.  Entries that writers in other
// processes add or remove meanwhile are counted at the next open (or, for
// an added entry, when this process first reads it).  Hits still refresh
// the file's mtime, so the next open sees the same recency order.
//
// Fault-injection sites (src/runtime/fault.hpp): `disk.get`, `disk.put`,
// `disk.put.payload` (corrupt/truncate/shortwrite the bytes about to be
// written), `disk.put.commit` (drop = crash before the rename).
//
// Deliberately dependency-free (std::filesystem only) so adc_trace and
// light tools can link it without pulling in the runtime.

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace adc {

class DiskCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t puts = 0;
    std::uint64_t evictions = 0;   // LRU size-cap removals
    std::uint64_t corrupt = 0;     // defective entries detected + removed
    std::uint64_t put_errors = 0;  // failed writes (I/O errors, faults)
  };

  struct ScanEntry {
    std::string key;
    std::uint64_t payload_bytes = 0;
    bool valid = false;
    std::string defect;  // why invalid ("bad magic", "checksum mismatch"...)
  };

  static constexpr std::uint32_t kFormatVersion = 1;

  // An empty dir disables the cache (every get misses, every put is a
  // no-op); max_bytes==0 means unlimited.
  explicit DiskCache(std::string dir, std::uint64_t max_bytes = 0);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  // Returns the payload, or nullopt on miss / defect (defective files are
  // unlinked).  A hit refreshes the entry's mtime for LRU.
  std::optional<std::string> get(const std::string& key);

  // Atomically stores key -> payload.  Failures (I/O errors, injected
  // faults) are swallowed and counted: the disk tier is an accelerator,
  // never a correctness dependency.  Returns true when the entry landed.
  bool put(const std::string& key, const std::string& payload);

  bool contains(const std::string& key);

  std::uint64_t total_bytes() const;

  // Thread-safe: one FlowExecutor's workers share a single instance.
  Stats stats() const;

  // Offline integrity scan of a cache directory (adc_obs_check
  // --cache-dir): validates every *.adcstage file without mutating it.
  static std::vector<ScanEntry> scan(const std::string& dir);

  // FNV-1a 64 — the checksum the header uses (exposed for tests).
  static std::uint64_t checksum(const std::string& payload);

 private:
  std::string path_for(const std::string& key) const;
  void evict_to_budget();
  // Index upkeep, under mu_: track() records `bytes` for `key` as its
  // most recent use (insert or overwrite); untrack() forgets it.
  void track(const std::string& key, std::uint64_t bytes);
  void untrack(const std::string& key);

  struct Indexed {
    std::uint64_t bytes = 0;
    std::list<std::string>::iterator lru;
  };

  mutable std::mutex mu_;
  std::string dir_;
  std::uint64_t max_bytes_ = 0;
  Stats stats_;
  std::unordered_map<std::string, Indexed> index_;
  std::list<std::string> lru_;  // keys, least recently used first
  std::uint64_t total_bytes_ = 0;
};

}  // namespace adc
