#pragma once
// Content-addressed stage cache for the flow executor.
//
// A synthesis run is a chain of pure stages (parse -> transform step ->
// ... -> extract).  Each stage's result is addressed by a fingerprint of
// everything that determined it: the program text, the normalized script
// prefix applied so far, and the option/delay-model rendering.  Recipes
// that share a prefix — `gt1; gt2` vs `gt1; gt2; gt3` — therefore share
// the upstream work: the second run starts from the cached post-`gt2`
// graph instead of recomputing it.
//
// Concurrency contract: get_or_compute() deduplicates in-flight work.  The
// first caller computes inline on its own thread; concurrent callers with
// the same key block on the shared future (the producer is running on a
// live thread, never parked in a pool queue, so this cannot deadlock).
// A compute that throws is erased so later callers retry.  A joined
// waiter rethrows the producer's exception, except a CancelledError: that
// is the producer's own token (its deadline, its abort), not the
// waiter's, so the waiter claims the key again and computes under its own
// token instead of reporting a timeout it never had.
//
// Values are immutable once inserted (shared_ptr<const T>); consumers that
// need a mutable copy clone.  Eviction is LRU over *ready* entries, bounded
// by entry count: ready entries sit on a recency list (a hit moves its
// entry to the back, the front is evicted), and in-flight entries are not
// on it, so they are never evicted.

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "runtime/cancel.hpp"
#include "runtime/fault.hpp"
#include "runtime/fingerprint.hpp"

namespace adc {

struct CacheStats {
  std::uint64_t hits = 0;      // served from a ready entry
  std::uint64_t joins = 0;     // waited on another thread's in-flight compute
  std::uint64_t misses = 0;    // computed here
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;   // current resident entries
  std::uint64_t bytes = 0;     // shallow payload bytes (sizeof each entry)

  double hit_rate() const {
    std::uint64_t total = hits + joins + misses;
    return total ? static_cast<double>(hits + joins) / static_cast<double>(total) : 0.0;
  }
};

class StageCache {
 public:
  // capacity == 0 disables caching entirely (every call computes).
  explicit StageCache(std::size_t capacity = 1024) : capacity_(capacity) {}

  template <typename T, typename Fn>
  std::shared_ptr<const T> get_or_compute(const Fingerprint& key, Fn&& compute) {
    if (capacity_ == 0) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::make_shared<const T>(compute());
    }
    for (;;) {
      auto [joined, future] = lookup_or_claim(key);
      if (!joined) break;  // claimed: compute below
      try {
        return std::static_pointer_cast<const T>(future.get());
      } catch (const CancelledError&) {
        // The producer's token tripped, not ours: claim the key again.
      }
    }
    try {
      // Injection site: a compute that dies after claiming the slot must
      // abandon it so joined waiters rethrow and later callers retry.
      fault().maybe_fail_or_stall("cache.compute", key.hex());
      auto value = std::make_shared<const T>(compute());
      fulfill(key, value, sizeof(T));
      return value;
    } catch (...) {
      abandon(key, std::current_exception());
      throw;
    }
  }

  CacheStats stats() const;
  void clear();

 private:
  using Any = std::shared_ptr<const void>;

  // Returns {true, future} when the key is (being) computed elsewhere;
  // {false, _} when the caller claimed the slot and must fulfill/abandon.
  std::pair<bool, std::shared_future<Any>> lookup_or_claim(const Fingerprint& key);
  void fulfill(const Fingerprint& key, Any value, std::size_t bytes);
  void abandon(const Fingerprint& key, std::exception_ptr err);
  void evict_locked();

  struct Slot {
    std::promise<Any> promise;
    std::shared_future<Any> future;
    bool ready = false;
    std::list<Fingerprint>::iterator lru;  // position in lru_ once ready
    std::size_t bytes = 0;
  };

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::map<Fingerprint, Slot> slots_;
  std::list<Fingerprint> lru_;  // ready entries, least recently used first
  std::uint64_t bytes_ = 0;  // guarded by mu_
  std::atomic<std::uint64_t> hits_{0}, joins_{0}, misses_{0}, evictions_{0};
};

}  // namespace adc
