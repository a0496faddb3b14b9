#include "logic/memo.hpp"

#include <algorithm>

namespace adc {

namespace {

void add_cube(FingerprintBuilder& b, const Cube& c) {
  b.add(static_cast<std::uint64_t>(c.var_count()));
  const std::uint64_t* w = c.words();
  for (std::size_t i = 0; i < 2 * c.word_count(); ++i) b.add(w[i]);
}

bool dynamic_less(const HfDynamic& x, const HfDynamic& y) {
  if (!(x.t == y.t)) return x.t < y.t;
  if (!(x.a == y.a)) return x.a < y.a;
  if (!(x.b == y.b)) return x.b < y.b;
  return static_cast<int>(x.type) < static_cast<int>(y.type);
}

// Adds a cube list in ascending order.  build_function_spec emits its
// lists sorted, so the common case hashes them in place.
void add_sorted(FingerprintBuilder& b, const std::vector<Cube>& cubes) {
  if (!std::is_sorted(cubes.begin(), cubes.end())) {
    std::vector<Cube> sorted = cubes;
    std::sort(sorted.begin(), sorted.end());
    return add_sorted(b, sorted);
  }
  b.add(static_cast<std::uint64_t>(cubes.size()));
  for (const auto& c : cubes) add_cube(b, c);
}

}  // namespace

Fingerprint spec_fingerprint(const FunctionSpec& f) {
  FingerprintBuilder b;
  b.add("logic-memo-v1");
  b.add(static_cast<std::uint64_t>(f.vars));

  add_sorted(b, f.required);
  add_sorted(b, f.off);

  std::vector<const HfDynamic*> dyn;
  dyn.reserve(f.dynamic.size());
  for (const auto& d : f.dynamic) dyn.push_back(&d);
  std::sort(dyn.begin(), dyn.end(),
            [](const HfDynamic* x, const HfDynamic* y) { return dynamic_less(*x, *y); });
  b.add(static_cast<std::uint64_t>(dyn.size()));
  for (const HfDynamic* d : dyn) {
    b.add(static_cast<std::uint64_t>(d->type == HfType::kRise ? 1 : 2));
    add_cube(b, d->t);
    add_cube(b, d->a);
    add_cube(b, d->b);
  }
  return b.digest();
}

std::shared_ptr<const LogicMemo::Entry> LogicMemo::lookup(const Fingerprint& key) {
  std::lock_guard<std::mutex> lk(mu_);
  if (capacity_ > 0) {
    auto it = slots_.find(key);
    if (it != slots_.end()) {
      lru_.splice(lru_.end(), lru_, it->second.lru);
      ++stats_.hits;
      return it->second.entry;
    }
  }
  ++stats_.misses;
  return nullptr;
}

void LogicMemo::fill(const Fingerprint& key, std::shared_ptr<const Entry> entry) {
  if (!entry) return;
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.fills;
  if (capacity_ == 0) return;
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    lru_.splice(lru_.end(), lru_, it->second.lru);
    return;  // first value wins; entries are deterministic anyway
  }
  slots_.emplace(key, Slot{std::move(entry), lru_.insert(lru_.end(), key)});
  while (slots_.size() > capacity_) {
    slots_.erase(lru_.front());
    lru_.pop_front();
    ++stats_.evictions;
  }
}

LogicMemo::Stats LogicMemo::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s = stats_;
  s.entries = slots_.size();
  return s;
}

void LogicMemo::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  slots_.clear();
  lru_.clear();
}

}  // namespace adc
