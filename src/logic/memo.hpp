#pragma once
// Content-addressed memo for hazard-free covers — the logic-level analogue
// of the stage cache's prefix reuse.
//
// A cover is a pure function of the FunctionSpec *content* (variable
// count, required / OFF / dynamic cube sets) and the covering options.
// DSE grid points and serve traffic frequently reach identical specs —
// e.g. every recipe that leaves a controller's machine untouched after
// local transforms — so the minimizer can replay the cover instead of
// regrowing implicants.  The key is a canonical fingerprint: cube lists
// are sorted before hashing so any spec with the same *sets* hits, and the
// function name is excluded (issue strings are stored as name-free
// suffixes and re-prefixed on replay).
//
// Two tiers, mirroring the point cache: a bounded in-memory LRU map shared
// by all workers of an executor, and an optional crash-safe disk tier
// (runtime/disk_cache) keyed `logic-<fingerprint>`.  Disk payloads carry
// their own checksum *inside* the ADCK envelope; a torn or bit-flipped
// entry is detected on parse, evicted from disk, and recomputed — never
// replayed wrong.  Fault-injection sites: `logic.memo.fill` (fail/stall
// the fill path; failures are swallowed and counted, the memo is an
// accelerator) and `logic.memo.put.payload` (corrupt the serialized cover
// before it reaches the disk tier).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "logic/hazard_free.hpp"
#include "runtime/fingerprint.hpp"

namespace adc {

class DiskCache;

class LogicMemo {
 public:
  // A memoized cover, name-free: `issue_suffixes` hold the text after the
  // "<name>: " prefix, which the minimizer re-applies for its own spec.
  struct Entry {
    bool feasible = true;
    std::vector<Cube> products;
    std::vector<std::string> issue_suffixes;
  };

  struct Stats {
    std::uint64_t hits = 0;          // served from memory
    std::uint64_t disk_hits = 0;     // served from the disk tier
    std::uint64_t misses = 0;        // caller computed
    std::uint64_t fills = 0;         // entries stored
    std::uint64_t fill_errors = 0;   // injected/IO failures, swallowed
    std::uint64_t disk_corrupt = 0;  // torn disk payloads detected+evicted
    std::uint64_t evictions = 0;     // in-memory LRU removals
    std::uint64_t entries = 0;       // resident in-memory entries
  };

  // capacity == 0 disables the in-memory tier (and with no disk attached,
  // the memo as a whole: every lookup misses, every fill is dropped).
  explicit LogicMemo(std::size_t capacity = 4096) : capacity_(capacity) {}

  // Borrowed; must outlive the memo.  Null detaches.
  void attach_disk(DiskCache* disk) { disk_ = disk; }

  // Null on miss.  The returned entry is immutable and shared.
  std::shared_ptr<const Entry> lookup(const Fingerprint& key);

  // Stores a computed cover in both tiers.  Failures never propagate.
  void fill(const Fingerprint& key, std::shared_ptr<const Entry> entry);

  Stats stats() const;
  void clear();  // memory tier only; the disk tier persists

  // Payload codec for the disk tier (exposed for tests): version-tagged,
  // self-checksummed text.  deserialize returns nullopt on any defect.
  static std::string serialize(const Entry& e);
  static std::optional<Entry> deserialize(const std::string& payload);

  static std::string disk_key(const Fingerprint& key) {
    return "logic-" + key.hex();
  }

 private:
  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::uint64_t lru = 0;
  };
  void insert_locked(const Fingerprint& key, std::shared_ptr<const Entry> e);

  std::size_t capacity_;
  DiskCache* disk_ = nullptr;
  mutable std::mutex mu_;
  std::map<Fingerprint, Slot> slots_;
  std::uint64_t tick_ = 0;
  Stats stats_;
};

// Canonical content fingerprint of a spec: cube lists are hashed in
// sorted order (cover results are order-independent — the candidate pool
// and the reduced requirement list are set-derived), the name is excluded.
Fingerprint spec_fingerprint(const FunctionSpec& f);

}  // namespace adc
