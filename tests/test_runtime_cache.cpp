// Stage-cache tests: fingerprint hygiene, hit/miss accounting, in-flight
// deduplication, exception recovery, LRU bounding — and the end-to-end
// guarantee the DSE runtime rests on: a cached flow produces byte-identical
// netlists to a cold flow.

#include "runtime/cache.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "logic/minimize.hpp"
#include "logic/netlist.hpp"
#include "runtime/flow.hpp"

namespace adc {
namespace {

TEST(Fingerprint, LengthPrefixingSeparatesConcatenations) {
  auto ab_c = FingerprintBuilder().add("ab").add("c").digest();
  auto a_bc = FingerprintBuilder().add("a").add("bc").digest();
  auto abc = FingerprintBuilder().add("abc").digest();
  EXPECT_FALSE(ab_c == a_bc);
  EXPECT_FALSE(ab_c == abc);
  EXPECT_FALSE(a_bc == abc);
}

TEST(Fingerprint, ChainingIsOrderSensitive) {
  auto base = FingerprintBuilder().add("program").digest();
  auto s12 = FingerprintBuilder().add(base).add("gt1").add("gt2").digest();
  auto s21 = FingerprintBuilder().add(base).add("gt2").add("gt1").digest();
  EXPECT_FALSE(s12 == s21);
  EXPECT_EQ(s12.hex().size(), 32u);
  EXPECT_NE(s12.hex(), s21.hex());
}

TEST(StageCache, CountsHitsAndMisses) {
  StageCache cache(16);
  Fingerprint k = FingerprintBuilder().add("k").digest();
  int computes = 0;
  auto v1 = cache.get_or_compute<int>(k, [&] { ++computes; return 5; });
  auto v2 = cache.get_or_compute<int>(k, [&] { ++computes; return 5; });
  EXPECT_EQ(*v1, 5);
  EXPECT_EQ(v1.get(), v2.get());  // literally the same cached object
  EXPECT_EQ(computes, 1);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(StageCache, ZeroCapacityDisablesCaching) {
  StageCache cache(0);
  Fingerprint k = FingerprintBuilder().add("k").digest();
  int computes = 0;
  cache.get_or_compute<int>(k, [&] { ++computes; return 1; });
  cache.get_or_compute<int>(k, [&] { ++computes; return 1; });
  EXPECT_EQ(computes, 2);
}

TEST(StageCache, InflightComputeIsDeduplicated) {
  StageCache cache(16);
  Fingerprint k = FingerprintBuilder().add("slow").digest();
  std::atomic<int> computes{0};
  auto job = [&] {
    return *cache.get_or_compute<int>(k, [&] {
      computes.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return 99;
    });
  };
  std::thread t1([&] { EXPECT_EQ(job(), 99); });
  std::thread t2([&] { EXPECT_EQ(job(), 99); });
  t1.join();
  t2.join();
  EXPECT_EQ(computes.load(), 1);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits + s.joins, 1u);
}

TEST(StageCache, FailedComputeIsRetried) {
  StageCache cache(16);
  Fingerprint k = FingerprintBuilder().add("fallible").digest();
  int attempts = 0;
  EXPECT_THROW(cache.get_or_compute<int>(k,
                                         [&]() -> int {
                                           ++attempts;
                                           throw std::runtime_error("first try fails");
                                         }),
               std::runtime_error);
  auto v = cache.get_or_compute<int>(k, [&] { ++attempts; return 3; });
  EXPECT_EQ(*v, 3);
  EXPECT_EQ(attempts, 2);
}

TEST(StageCache, EvictionKeepsEntriesBounded) {
  StageCache cache(4);
  for (int i = 0; i < 20; ++i) {
    Fingerprint k = FingerprintBuilder().add(std::int64_t{i}).digest();
    cache.get_or_compute<int>(k, [i] { return i; });
  }
  CacheStats s = cache.stats();
  EXPECT_LE(s.entries, 4u);
  EXPECT_GE(s.evictions, 16u);
}

TEST(StageCache, LruPrefersRecentlyUsed) {
  StageCache cache(2);
  Fingerprint a = FingerprintBuilder().add("a").digest();
  Fingerprint b = FingerprintBuilder().add("b").digest();
  Fingerprint c = FingerprintBuilder().add("c").digest();
  int a_computes = 0;
  cache.get_or_compute<int>(a, [&] { ++a_computes; return 1; });
  cache.get_or_compute<int>(b, [] { return 2; });
  cache.get_or_compute<int>(a, [&] { ++a_computes; return 1; });  // touch a
  cache.get_or_compute<int>(c, [] { return 3; });                 // evicts b
  cache.get_or_compute<int>(a, [&] { ++a_computes; return 1; });  // still resident
  EXPECT_EQ(a_computes, 1);
}

// The acceptance guarantee: a recipe served from the stage cache yields the
// exact same netlists as a cold evaluation.
TEST(StageCache, CachedFlowProducesByteIdenticalNetlists) {
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"),
                                         "gt1; gt2; gt4; gt2; gt5; lt");
  req.simulate = false;

  auto netlists = [](const FlowPoint& p) {
    std::vector<std::string> out;
    for (const auto& inst : p.artifacts->instances) {
      auto logic = synthesize_logic(inst.controller);
      out.push_back(to_verilog(logic, inst.controller.machine.name()));
      out.push_back(to_equations(logic));
    }
    return out;
  };

  FlowExecutor::Options cold_opts;
  cold_opts.cache_capacity = 0;
  FlowExecutor cold(nullptr, cold_opts);
  FlowPoint cold_point = cold.run(req);
  ASSERT_TRUE(cold_point.ok);
  // With nowhere to keep a cover, the minimizer never consults the memo.
  EXPECT_EQ(cold.logic_memo().stats().misses, 0u);

  FlowExecutor warm(nullptr);
  FlowPoint first = warm.run(req);
  FlowPoint second = warm.run(req);  // fully cached
  ASSERT_TRUE(second.ok);
  // The cached run reuses the identical artifact object...
  EXPECT_EQ(first.artifacts.get(), second.artifacts.get());
  // ...and both equal the cold evaluation, byte for byte.
  EXPECT_EQ(netlists(cold_point), netlists(second));
  EXPECT_EQ(cold_point.channels, second.channels);
  EXPECT_EQ(cold_point.literals, second.literals);
  EXPECT_GT(warm.logic_memo().stats().misses, 0u);
}

}  // namespace
}  // namespace adc
