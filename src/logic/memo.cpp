#include "logic/memo.hpp"

#include <algorithm>
#include <cstdio>

#include "runtime/disk_cache.hpp"
#include "runtime/fault.hpp"

namespace adc {

namespace {

constexpr char kMagic[] = "ADCM v1 ";

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

std::optional<Cube> cube_from_pattern(const std::string& pat) {
  Cube c(pat.size());
  for (std::size_t i = 0; i < pat.size(); ++i) {
    switch (pat[i]) {
      case '0': c.set(i, Cube::V::kZero); break;
      case '1': c.set(i, Cube::V::kOne); break;
      case '-': break;
      default: return std::nullopt;  // covers never hold empty cubes
    }
  }
  return c;
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

std::string LogicMemo::serialize(const Entry& e) {
  std::size_t vars = e.products.empty() ? 0 : e.products.front().var_count();
  std::string body;
  char line[128];
  std::snprintf(line, sizeof line, "spec vars %zu feasible %d products %zu issues %zu\n",
                vars, e.feasible ? 1 : 0, e.products.size(), e.issue_suffixes.size());
  body += line;
  for (const auto& p : e.products) body += "p " + p.to_string() + "\n";
  for (const auto& s : e.issue_suffixes) body += "i " + s + "\n";

  // The ADCK envelope only checksums what *it* was handed; a payload
  // corrupted before the put (the logic.memo.put.payload site) would pass
  // that check, so the body carries its own checksum.
  char head[64];
  std::snprintf(head, sizeof head, "%s%016llx\n", kMagic,
                static_cast<unsigned long long>(DiskCache::checksum(body)));
  return head + body;
}

std::optional<LogicMemo::Entry> LogicMemo::deserialize(const std::string& payload) {
  constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;
  if (payload.size() < kMagicLen + 17) return std::nullopt;
  if (payload.compare(0, kMagicLen, kMagic) != 0) return std::nullopt;
  unsigned long long want = 0;
  if (std::sscanf(payload.c_str() + kMagicLen, "%16llx", &want) != 1) return std::nullopt;
  std::size_t body_at = payload.find('\n');
  if (body_at == std::string::npos) return std::nullopt;
  std::string body = payload.substr(body_at + 1);
  if (DiskCache::checksum(body) != want) return std::nullopt;

  std::size_t vars = 0, n_products = 0, n_issues = 0;
  int feasible = 0;
  std::size_t pos = body.find('\n');
  if (pos == std::string::npos) return std::nullopt;
  if (std::sscanf(body.substr(0, pos).c_str(),
                  "spec vars %zu feasible %d products %zu issues %zu", &vars,
                  &feasible, &n_products, &n_issues) != 4)
    return std::nullopt;
  if (feasible != 0 && feasible != 1) return std::nullopt;

  Entry e;
  e.feasible = feasible == 1;
  std::size_t at = pos + 1;
  auto next_line = [&](char tag) -> std::optional<std::string> {
    if (at + 2 > body.size() || body[at] != tag || body[at + 1] != ' ')
      return std::nullopt;
    std::size_t end = body.find('\n', at);
    if (end == std::string::npos) return std::nullopt;
    std::string text = body.substr(at + 2, end - at - 2);
    at = end + 1;
    return text;
  };
  for (std::size_t i = 0; i < n_products; ++i) {
    auto pat = next_line('p');
    if (!pat || pat->size() != vars) return std::nullopt;
    auto c = cube_from_pattern(*pat);
    if (!c) return std::nullopt;
    e.products.push_back(std::move(*c));
  }
  for (std::size_t i = 0; i < n_issues; ++i) {
    auto s = next_line('i');
    if (!s) return std::nullopt;
    e.issue_suffixes.push_back(std::move(*s));
  }
  if (at != body.size()) return std::nullopt;  // trailing garbage
  return e;
}

std::shared_ptr<const LogicMemo::Entry> LogicMemo::lookup(const Fingerprint& key) {
  if (capacity_ > 0) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = slots_.find(key);
    if (it != slots_.end()) {
      it->second.lru = ++tick_;
      ++stats_.hits;
      return it->second.entry;
    }
  }
  if (disk_ && disk_->enabled()) {
    if (auto payload = disk_->get(disk_key(key))) {
      if (auto parsed = deserialize(*payload)) {
        auto entry = std::make_shared<const Entry>(std::move(*parsed));
        std::lock_guard<std::mutex> lk(mu_);
        insert_locked(key, entry);
        ++stats_.disk_hits;
        return entry;
      }
      // Torn payload inside a structurally valid envelope: evict at this
      // layer so the next run recomputes instead of re-parsing garbage.
      disk_->remove(disk_key(key), /*count_corrupt=*/true);
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.disk_corrupt;
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.misses;
  return nullptr;
}

void LogicMemo::fill(const Fingerprint& key, std::shared_ptr<const Entry> entry) {
  if (!entry) return;
  try {
    fault().maybe_fail_or_stall("logic.memo.fill", key.hex());
  } catch (...) {
    // The memo is an accelerator: a failed fill costs a future recompute,
    // never the current answer.
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.fill_errors;
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    insert_locked(key, entry);
    ++stats_.fills;
  }
  if (disk_ && disk_->enabled()) {
    std::string payload = serialize(*entry);
    try {
      fault().mutate_payload("logic.memo.put.payload", payload, key.hex());
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.fill_errors;
      return;
    }
    disk_->put(disk_key(key), payload);  // put swallows its own failures
  }
}

void LogicMemo::insert_locked(const Fingerprint& key, std::shared_ptr<const Entry> e) {
  if (capacity_ == 0) return;
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    it->second.lru = ++tick_;
    return;  // first value wins; entries are deterministic anyway
  }
  slots_.emplace(key, Slot{std::move(e), ++tick_});
  while (slots_.size() > capacity_) {
    auto victim = slots_.begin();
    for (auto sit = slots_.begin(); sit != slots_.end(); ++sit)
      if (sit->second.lru < victim->second.lru) victim = sit;
    slots_.erase(victim);
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
}

}  // namespace adc
