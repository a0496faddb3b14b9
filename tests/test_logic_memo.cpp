// The content-addressed cover memo: replay equality, name-independence of
// the key, the disk tier round trip, torn-entry detection/eviction, and
// the fault-injection sites on the fill path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "logic/memo.hpp"
#include "runtime/disk_cache.hpp"
#include "runtime/fault.hpp"

namespace adc {
namespace {

namespace fs = std::filesystem;

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

class LogicMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault().reset();
    // One directory per test and process: `ctest -j` runs the tests of
    // this fixture concurrently.
    dir_ = fs::temp_directory_path() /
           ("adc_logic_memo_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
            "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fault().reset();
    fs::remove_all(dir_);
  }
  fs::path dir_;
};

TEST_F(LogicMemoTest, FingerprintIgnoresNameAndCubeOrder) {
  FunctionSpec a = feasible_spec("A");
  FunctionSpec b = feasible_spec("B");
  std::swap(b.required[0], b.required[1]);
  EXPECT_EQ(spec_fingerprint(a), spec_fingerprint(b));
  // Content changes change the key.
  FunctionSpec c = feasible_spec("A");
  c.off.push_back(cube("--00"));
  EXPECT_NE(spec_fingerprint(a), spec_fingerprint(c));
}

TEST_F(LogicMemoTest, ReplayMatchesFreshRunAndReprefixesIssues) {
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

TEST_F(LogicMemoTest, SerializeRoundTripsAndRejectsDefects) {
  LogicMemo::Entry e;
  e.feasible = false;
  e.products = {cube("11--"), cube("1-1-")};
  e.issue_suffixes = {"required cube 0-0- has no dhf implicant"};

  std::string payload = LogicMemo::serialize(e);
  auto back = LogicMemo::deserialize(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->feasible, e.feasible);
  ASSERT_EQ(back->products.size(), 2u);
  EXPECT_TRUE(back->products[0] == e.products[0]);
  EXPECT_TRUE(back->products[1] == e.products[1]);
  EXPECT_EQ(back->issue_suffixes, e.issue_suffixes);

  EXPECT_FALSE(LogicMemo::deserialize("").has_value());
  EXPECT_FALSE(LogicMemo::deserialize("garbage").has_value());
  // Flip one payload byte: the body checksum must catch it.
  std::string torn = payload;
  torn[torn.size() / 2] ^= 0x20;
  EXPECT_FALSE(LogicMemo::deserialize(torn).has_value());
  // Trailing garbage is a defect even with a correct prefix.
  EXPECT_FALSE(LogicMemo::deserialize(payload + "x").has_value());
}

TEST_F(LogicMemoTest, DiskTierRoundTripAcrossMemoInstances) {
  DiskCache disk(dir_.string(), 0);
  FunctionSpec a = feasible_spec("A");
  CoverResult fresh;
  {
    LogicMemo memo;
    memo.attach_disk(&disk);
    CoverOptions opts;
    opts.memo = &memo;
    fresh = minimize_hazard_free(a, opts);
    ASSERT_TRUE(fresh.feasible);
  }
  // A fresh memo (new process, same cache dir) replays from disk.
  LogicMemo memo;
  memo.attach_disk(&disk);
  CoverOptions opts;
  opts.memo = &memo;
  CoverResult warm = minimize_hazard_free(a, opts);
  EXPECT_EQ(memo.stats().disk_hits, 1u);
  EXPECT_EQ(memo.stats().misses, 0u);
  ASSERT_EQ(warm.products.size(), fresh.products.size());
  for (std::size_t i = 0; i < fresh.products.size(); ++i)
    EXPECT_TRUE(warm.products[i] == fresh.products[i]);
  // Second lookup is a memory hit — the disk entry was promoted.
  minimize_hazard_free(a, opts);
  EXPECT_EQ(memo.stats().hits, 1u);
}

TEST_F(LogicMemoTest, TornDiskEntryIsDetectedEvictedAndRecomputed) {
  DiskCache disk(dir_.string(), 0);
  FunctionSpec a = feasible_spec("A");
  Fingerprint key = spec_fingerprint(a);
  CoverResult fresh;
  {
    // Corrupt every fill's payload in flight: the ADCK envelope is written
    // after the corruption and still validates — only the memo's own body
    // checksum can catch this.
    fault().configure("logic.memo.put.payload=corrupt");
    LogicMemo memo;
    memo.attach_disk(&disk);
    CoverOptions opts;
    opts.memo = &memo;
    fresh = minimize_hazard_free(a, opts);
    fault().reset();
    ASSERT_TRUE(disk.contains(LogicMemo::disk_key(key)));
  }
  LogicMemo memo;
  memo.attach_disk(&disk);
  CoverOptions opts;
  opts.memo = &memo;
  CoverResult warm = minimize_hazard_free(a, opts);
  // The torn entry was detected, evicted from disk, and recomputed with
  // the same result as the fresh run.
  EXPECT_EQ(memo.stats().disk_corrupt, 1u);
  EXPECT_EQ(memo.stats().disk_hits, 0u);
  EXPECT_EQ(memo.stats().misses, 1u);
  EXPECT_EQ(memo.stats().fills, 1u);
  EXPECT_TRUE(disk.contains(LogicMemo::disk_key(key)));
  ASSERT_EQ(warm.products.size(), fresh.products.size());
  for (std::size_t i = 0; i < fresh.products.size(); ++i)
    EXPECT_TRUE(warm.products[i] == fresh.products[i]);
  // The recompute refilled a good entry: a third memo replays from disk.
  LogicMemo memo2;
  memo2.attach_disk(&disk);
  CoverOptions opts2;
  opts2.memo = &memo2;
  minimize_hazard_free(a, opts2);
  EXPECT_EQ(memo2.stats().disk_hits, 1u);
  EXPECT_EQ(memo2.stats().disk_corrupt, 0u);
}

TEST_F(LogicMemoTest, FillFaultIsSwallowedAndCounted) {
  fault().configure("logic.memo.fill=fail:1");
  LogicMemo memo;
  CoverOptions opts;
  opts.memo = &memo;
  FunctionSpec a = feasible_spec("A");
  CoverResult r1 = minimize_hazard_free(a, opts);  // fill fails, swallowed
  EXPECT_TRUE(r1.feasible);
  EXPECT_EQ(memo.stats().fill_errors, 1u);
  EXPECT_EQ(memo.stats().fills, 0u);
  // The fault plan is exhausted; the next run computes again and fills.
  CoverResult r2 = minimize_hazard_free(a, opts);
  EXPECT_EQ(memo.stats().fills, 1u);
  CoverResult r3 = minimize_hazard_free(a, opts);
  EXPECT_EQ(memo.stats().hits, 1u);
  ASSERT_EQ(r3.products.size(), r1.products.size());
  for (std::size_t i = 0; i < r1.products.size(); ++i)
    EXPECT_TRUE(r3.products[i] == r1.products[i]);
  (void)r2;
}

TEST_F(LogicMemoTest, LruEvictsAtCapacityAndZeroCapacityDisables) {
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

}  // namespace
}  // namespace adc
