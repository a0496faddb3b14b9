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
// One tier: a bounded in-memory LRU map shared by all workers of an
// executor.  Entries sit on a recency list beside the map (the stage
// cache's idiom): a hit, or a fill of a resident key, moves the key to the
// back, and eviction pops the front, so every lookup and fill is O(log n)
// however full the memo is.  Restarts are served by the point-level disk
// cache (runtime/disk_cache), which replays whole flow points; the memo
// keeps nothing on disk.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "logic/hazard_free.hpp"
#include "runtime/fingerprint.hpp"

namespace adc {

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
    std::uint64_t hits = 0;       // served from memory
    std::uint64_t disk_hits = 0;  // always 0; read only by benchmark/workloads.cpp
    std::uint64_t misses = 0;     // caller computed
    std::uint64_t fills = 0;      // entries stored
    std::uint64_t evictions = 0;  // LRU removals
    std::uint64_t entries = 0;    // resident entries
  };

  // capacity == 0 disables the memo: every lookup misses, every fill is
  // dropped.
  explicit LogicMemo(std::size_t capacity = 4096) : capacity_(capacity) {}

  // Null on miss.  The returned entry is immutable and shared.
  std::shared_ptr<const Entry> lookup(const Fingerprint& key);

  // Stores a computed cover.
  void fill(const Fingerprint& key, std::shared_ptr<const Entry> entry);

  Stats stats() const;
  void clear();

 private:
  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::list<Fingerprint>::iterator lru;  // position in lru_
  };
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::map<Fingerprint, Slot> slots_;
  std::list<Fingerprint> lru_;  // resident keys, least recently used first
  Stats stats_;
};

// Canonical content fingerprint of a spec: cube lists are hashed in
// sorted order (cover results are order-independent — the candidate pool
// and the reduced requirement list are set-derived), the name is excluded.
Fingerprint spec_fingerprint(const FunctionSpec& f);

}  // namespace adc
