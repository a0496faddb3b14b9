// The content-addressed cover memo: replay equality, name-independence of
// the key, and the bounded LRU.

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "logic/memo.hpp"

namespace adc {
namespace {

Cube cube(const std::string& pat) {
  Cube c(pat.size());
  for (std::size_t i = 0; i < pat.size(); ++i) {
    if (pat[i] == '0') c.set(i, Cube::V::kZero);
    if (pat[i] == '1') c.set(i, Cube::V::kOne);
  }
  return c;
}

// A small feasible spec: two required cubes, one OFF region.
FunctionSpec feasible_spec(std::string name) {
  FunctionSpec f;
  f.name = std::move(name);
  f.vars = 4;
  f.required = {cube("11--"), cube("1-1-")};
  f.off = {cube("0---")};
  return f;
}

// A spec whose required cube intersects OFF: minimization reports an
// issue prefixed with the function name.
FunctionSpec infeasible_spec(std::string name) {
  FunctionSpec f;
  f.name = std::move(name);
  f.vars = 3;
  f.required = {cube("11-")};
  f.off = {cube("1--")};
  return f;
}

TEST(LogicMemoTest, FingerprintIgnoresNameAndCubeOrder) {
  FunctionSpec a = feasible_spec("A");
  FunctionSpec b = feasible_spec("B");
  std::swap(b.required[0], b.required[1]);
  EXPECT_EQ(spec_fingerprint(a), spec_fingerprint(b));
  // Content changes change the key.
  FunctionSpec c = feasible_spec("A");
  c.off.push_back(cube("--00"));
  EXPECT_NE(spec_fingerprint(a), spec_fingerprint(c));
}

TEST(LogicMemoTest, ReplayMatchesFreshRunAndReprefixesIssues) {
  LogicMemo memo;
  CoverOptions opts;
  opts.memo = &memo;

  FunctionSpec a = infeasible_spec("A");
  CoverResult fresh = minimize_hazard_free(a, opts);
  ASSERT_FALSE(fresh.feasible);
  ASSERT_FALSE(fresh.issues.empty());
  EXPECT_EQ(fresh.issues[0].rfind("A: ", 0), 0u) << fresh.issues[0];
  EXPECT_EQ(memo.stats().fills, 1u);

  // Same content, different name: must hit, and the issue text must carry
  // the *new* name.
  FunctionSpec b = infeasible_spec("B");
  CoverResult replay = minimize_hazard_free(b, opts);
  EXPECT_EQ(memo.stats().hits, 1u);
  EXPECT_EQ(replay.feasible, fresh.feasible);
  ASSERT_EQ(replay.issues.size(), fresh.issues.size());
  for (std::size_t i = 0; i < fresh.issues.size(); ++i) {
    EXPECT_EQ(replay.issues[i], "B: " + fresh.issues[i].substr(3));
  }
  ASSERT_EQ(replay.products.size(), fresh.products.size());
  for (std::size_t i = 0; i < fresh.products.size(); ++i)
    EXPECT_TRUE(replay.products[i] == fresh.products[i]);
}

TEST(LogicMemoTest, LruEvictsAtCapacityAndZeroCapacityDisables) {
  LogicMemo memo(2);
  auto entry = std::make_shared<const LogicMemo::Entry>();
  Fingerprint k1 = FingerprintBuilder().add("k1").digest();
  Fingerprint k2 = FingerprintBuilder().add("k2").digest();
  Fingerprint k3 = FingerprintBuilder().add("k3").digest();
  memo.fill(k1, entry);
  memo.fill(k2, entry);
  EXPECT_NE(memo.lookup(k1), nullptr);  // refresh k1's LRU stamp
  memo.fill(k3, entry);                 // evicts k2
  EXPECT_EQ(memo.stats().evictions, 1u);
  EXPECT_NE(memo.lookup(k1), nullptr);
  EXPECT_EQ(memo.lookup(k2), nullptr);
  EXPECT_NE(memo.lookup(k3), nullptr);

  LogicMemo off(0);
  off.fill(k1, entry);
  EXPECT_EQ(off.lookup(k1), nullptr);
  EXPECT_EQ(off.stats().entries, 0u);
}

// The recency list must pick the victim the original min-tick scan picked:
// every lookup hit and every fill of a resident key stamps the key with a
// fresh tick, and eviction removes the smallest stamp.  Random sequences
// over a small key universe at small capacities exercise refills of
// resident keys, hits, misses and eviction chains; entry identity shows
// that a resident key keeps its first value.
TEST(LogicMemoTest, EvictionMatchesAMinTickReference) {
  struct Model {
    std::uint64_t tick = 0;
    std::map<int, std::pair<std::uint64_t, const LogicMemo::Entry*>> slots;
    LogicMemo::Stats stats;
  };
  std::vector<Fingerprint> keys;
  for (int k = 0; k < 9; ++k)
    keys.push_back(FingerprintBuilder().add("key").add(std::uint64_t(k)).digest());

  std::size_t resident_fills = 0;
  for (std::size_t capacity : {1u, 2u, 3u, 5u}) {
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
      std::mt19937 rng(seed * 7919u + static_cast<std::uint32_t>(capacity));
      LogicMemo memo(capacity);
      Model ref;
      for (int step = 0; step < 400; ++step) {
        const int k = static_cast<int>(rng() % keys.size());
        auto it = ref.slots.find(k);
        if (rng() % 2) {
          auto got = memo.lookup(keys[k]);
          if (it != ref.slots.end()) {
            it->second.first = ++ref.tick;
            ++ref.stats.hits;
            ASSERT_EQ(got.get(), it->second.second) << "seed " << seed << " step " << step;
          } else {
            ++ref.stats.misses;
            ASSERT_EQ(got, nullptr) << "seed " << seed << " step " << step;
          }
        } else {
          auto entry = std::make_shared<const LogicMemo::Entry>();
          memo.fill(keys[k], entry);
          ++ref.stats.fills;
          if (it != ref.slots.end()) {
            it->second.first = ++ref.tick;
            ++resident_fills;
          } else {
            ref.slots.emplace(k, std::make_pair(++ref.tick, entry.get()));
            while (ref.slots.size() > capacity) {
              auto victim = ref.slots.begin();
              for (auto s = ref.slots.begin(); s != ref.slots.end(); ++s)
                if (s->second.first < victim->second.first) victim = s;
              ref.slots.erase(victim);
              ++ref.stats.evictions;
            }
          }
        }
        const LogicMemo::Stats got = memo.stats();
        ASSERT_EQ(got.hits, ref.stats.hits);
        ASSERT_EQ(got.misses, ref.stats.misses);
        ASSERT_EQ(got.fills, ref.stats.fills);
        ASSERT_EQ(got.evictions, ref.stats.evictions);
        ASSERT_EQ(got.entries, ref.slots.size());
      }
    }
  }
  EXPECT_GT(resident_fills, 1000u);
}

}  // namespace
}  // namespace adc
