#include "runtime/cache.hpp"

namespace adc {

std::pair<bool, std::shared_future<StageCache::Any>> StageCache::lookup_or_claim(
    const Fingerprint& key) {
  std::unique_lock<std::mutex> lk(mu_);
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    if (it->second.ready) lru_.splice(lru_.end(), lru_, it->second.lru);
    (it->second.ready ? hits_ : joins_).fetch_add(1, std::memory_order_relaxed);
    std::shared_future<Any> fut = it->second.future;
    lk.unlock();
    return {true, std::move(fut)};
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  Slot slot;
  slot.future = slot.promise.get_future().share();
  slots_.emplace(key, std::move(slot));
  return {false, {}};
}

void StageCache::fulfill(const Fingerprint& key, Any value, std::size_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end()) return;  // evicted/cleared mid-compute; drop
  it->second.promise.set_value(std::move(value));
  it->second.ready = true;
  it->second.lru = lru_.insert(lru_.end(), key);
  it->second.bytes = bytes;
  bytes_ += bytes;
  evict_locked();
}

void StageCache::abandon(const Fingerprint& key, std::exception_ptr err) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end()) return;
  it->second.promise.set_exception(std::move(err));
  // Joined waiters see the exception; future callers recompute.
  slots_.erase(it);
}

void StageCache::evict_locked() {
  // Only ready entries are on lru_, so in-flight work is never a victim.
  while (slots_.size() > capacity_ && !lru_.empty()) {
    auto victim = slots_.find(lru_.front());
    lru_.pop_front();
    bytes_ -= victim->second.bytes;
    slots_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

CacheStats StageCache::stats() const {
  // The counters tick under mu_ (lookup_or_claim), so reading them under
  // the same lock makes the snapshot internally consistent: a scrape can
  // rely on hits + joins + misses == lookups, never a torn total from
  // loading one counter before and one after a concurrent lookup.
  std::lock_guard<std::mutex> lk(mu_);
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.joins = joins_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = slots_.size();
  s.bytes = bytes_;
  return s;
}

void StageCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->second.ready) {
      bytes_ -= it->second.bytes;
      lru_.erase(it->second.lru);
      it = slots_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace adc
