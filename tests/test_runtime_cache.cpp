// Stage-cache tests: fingerprint hygiene, hit/miss accounting, in-flight
// deduplication, exception recovery, LRU bounding — and the end-to-end
// guarantee the DSE runtime rests on: a cached flow produces byte-identical
// netlists to a cold flow.

#include "runtime/cache.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <map>
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

// Eviction takes the least recently used *ready* entry: recency is set
// when an entry becomes ready and on every hit, and an entry still being
// computed is never a victim, however old its claim.
TEST(StageCache, EvictionOrderIsLeastRecentlyUsedReadyEntryFirst) {
  StageCache cache(3);
  auto key = [](const char* k) { return FingerprintBuilder().add(k).digest(); };
  std::map<std::string, int> computes;
  auto get = [&](const char* k) {
    cache.get_or_compute<int>(key(k), [&] { return ++computes[k]; });
  };
  // An in-flight entry, claimed first and held until the end.
  std::latch claimed(1), release(1);
  std::thread slow([&] {
    cache.get_or_compute<int>(key("slow"), [&] {
      claimed.count_down();
      release.wait();
      return ++computes["slow"];
    });
  });
  claimed.wait();
  get("a");
  get("b");  // {slow, a, b}: at capacity
  get("a");  // a is now the most recent
  get("c");  // evicts b, the least recent ready entry; slow is in flight
  get("d");  // evicts a
  EXPECT_EQ(cache.stats().evictions, 2u);
  release.count_down();
  slow.join();  // slow held its slot since its claim: nothing more to evict
  EXPECT_EQ(cache.stats().evictions, 2u);
  for (const char* k : {"slow", "c", "d"}) get(k);  // hits, in this order
  get("a");     // evicts slow
  get("slow");  // evicts c
  EXPECT_EQ(cache.stats().evictions, 4u);
  EXPECT_EQ(computes, (std::map<std::string, int>{
                          {"a", 2}, {"b", 1}, {"c", 1}, {"d", 1}, {"slow", 2}}));
  for (const char* k : {"d", "a", "slow"}) get(k);  // the residents: all hits
  EXPECT_EQ(cache.stats().evictions, 4u);
  EXPECT_EQ(computes["a"] + computes["d"] + computes["slow"], 5);
}

// A joined waiter whose producer unwinds on the *producer's* cancellation
// claims the key and computes under its own token; an injected fault, in
// contrast, reaches the waiter as it is.
TEST(StageCache, JoinedWaiterRecomputesWhenTheProducerIsCancelled) {
  for (bool cancelled : {true, false}) {
    SCOPED_TRACE(cancelled ? "producer cancelled" : "producer faulted");
    StageCache cache(16);
    const Fingerprint k = FingerprintBuilder().add("shared").digest();
    std::latch producing(1), joined(1);
    std::thread producer([&] {
      EXPECT_ANY_THROW(cache.get_or_compute<int>(k, [&]() -> int {
        producing.count_down();
        joined.wait();
        if (cancelled) throw CancelledError("flow job deadline exceeded");
        throw FaultInjectedError("cache.compute");
      }));
    });
    producing.wait();
    std::thread waiter([&] {
      int own_computes = 0;
      auto compute = [&] {
        ++own_computes;
        return 7;
      };
      if (cancelled) {
        EXPECT_EQ(*cache.get_or_compute<int>(k, compute), 7);
        EXPECT_EQ(own_computes, 1);
      } else {
        EXPECT_THROW(cache.get_or_compute<int>(k, compute), FaultInjectedError);
        EXPECT_EQ(own_computes, 0);
      }
    });
    // Release the producer only once the waiter has joined its compute.
    while (cache.stats().joins == 0) std::this_thread::yield();
    joined.count_down();
    producer.join();
    waiter.join();
    const CacheStats st = cache.stats();
    EXPECT_EQ(st.joins, 1u);
    EXPECT_EQ(st.misses, cancelled ? 2u : 1u);
    EXPECT_EQ(st.entries, cancelled ? 1u : 0u);
  }
}

// The acceptance guarantee: a recipe served from the stage cache yields the
// exact same netlists as a cold evaluation.
TEST(StageCache, CachedFlowProducesByteIdenticalNetlists) {
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"),
                                         "gt1; gt2; gt4; gt2; gt5; lt");
  req.simulate = false;

  auto netlists = [](const FlowPoint& p) {
    std::vector<std::string> out;
    for (const auto& c : p.artifacts->controllers) {
      const ExtractedController& ec = c->instance.controller;
      auto logic = synthesize_logic(ec);
      out.push_back(to_verilog(logic, ec.machine.name()));
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
