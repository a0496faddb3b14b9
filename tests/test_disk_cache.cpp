// Disk-tier stage cache tests: the crash-safety contract.  Whatever a
// crashed, killed or fault-injected writer leaves behind — a stray temp
// file, a truncated entry, flipped bits, a future format version — the
// reader must degrade to a clean miss (evicting the defective file), never
// to a wrong payload.

#include "runtime/disk_cache.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "runtime/fault.hpp"

namespace fs = std::filesystem;

namespace adc {
namespace {

class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault().reset();  // tests share the process-wide injector
    dir_ = fs::path(::testing::TempDir()) /
           ("adc_disk_cache_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault().reset();
    fs::remove_all(dir_);
  }

  fs::path entry_path(const std::string& key) const {
    return dir_ / (key + ".adcstage");
  }

  fs::path dir_;
};

TEST_F(DiskCacheTest, RoundTripAndStats) {
  DiskCache cache(dir_.string());
  EXPECT_TRUE(cache.enabled());
  EXPECT_FALSE(cache.get("deadbeef").has_value());
  EXPECT_TRUE(cache.put("deadbeef", "payload-bytes"));
  EXPECT_TRUE(cache.contains("deadbeef"));
  auto got = cache.get("deadbeef");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "payload-bytes");
  DiskCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.corrupt, 0u);
  // No temp droppings on the happy path.
  for (const auto& e : fs::directory_iterator(dir_))
    EXPECT_EQ(e.path().extension(), ".adcstage") << e.path();
}

TEST_F(DiskCacheTest, EntriesSurviveReopen) {
  {
    DiskCache cache(dir_.string());
    ASSERT_TRUE(cache.put("cafe01", "persisted across process restarts"));
  }
  DiskCache reopened(dir_.string());
  auto got = reopened.get("cafe01");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "persisted across process restarts");
}

TEST_F(DiskCacheTest, EmptyDirDisablesTheTier) {
  DiskCache cache("");
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.put("k", "v"));
  EXPECT_FALSE(cache.get("k").has_value());
}

TEST_F(DiskCacheTest, KillBetweenTempAndRenameLeavesNoEntry) {
  // drop at disk.put.commit models dying after the temp file is fsynced
  // but before the atomic rename publishes it.
  fault().configure("disk.put.commit=drop:1");
  DiskCache cache(dir_.string());
  EXPECT_FALSE(cache.put("0badc0de", "never committed"));
  EXPECT_FALSE(fs::exists(entry_path("0badc0de")));
  EXPECT_FALSE(cache.get("0badc0de").has_value());
  EXPECT_EQ(cache.stats().put_errors, 1u);
  // The stray temp file is exactly what a crash leaves; a later successful
  // put of the same key must still land.
  fault().reset();
  EXPECT_TRUE(cache.put("0badc0de", "second try"));
  auto got = cache.get("0badc0de");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "second try");
}

TEST_F(DiskCacheTest, TruncatedEntryMissesCleanlyAndIsEvicted) {
  DiskCache cache(dir_.string());
  ASSERT_TRUE(cache.put("aa11", std::string(256, 'p')));
  fs::resize_file(entry_path("aa11"), 40);  // header + a stub of payload
  EXPECT_FALSE(cache.get("aa11").has_value());
  EXPECT_FALSE(fs::exists(entry_path("aa11")));  // defective file removed
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST_F(DiskCacheTest, BitFlippedPayloadMissesCleanlyAndIsEvicted) {
  DiskCache cache(dir_.string());
  ASSERT_TRUE(cache.put("bb22", std::string(128, 'q')));
  {
    std::fstream f(entry_path("bb22"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24 + 64);  // a payload byte, past the 24-byte header
    f.put('Q');
  }
  EXPECT_FALSE(cache.get("bb22").has_value());
  EXPECT_FALSE(fs::exists(entry_path("bb22")));
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST_F(DiskCacheTest, VersionMismatchMissesCleanlyAndIsEvicted) {
  DiskCache cache(dir_.string());
  ASSERT_TRUE(cache.put("cc33", "from the future"));
  {
    std::fstream f(entry_path("cc33"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);  // the version field follows the 4-byte magic
    char v2[4] = {2, 0, 0, 0};
    f.write(v2, 4);
  }
  EXPECT_FALSE(cache.get("cc33").has_value());
  EXPECT_FALSE(fs::exists(entry_path("cc33")));
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST_F(DiskCacheTest, InjectedShortWriteIsDetectedOnRead) {
  // The payload is cut mid-write (fault at disk.put.payload), so the
  // header's length no longer matches the bytes that made it to disk.
  fault().configure("disk.put.payload=shortwrite:1");
  DiskCache cache(dir_.string());
  cache.put("dd44", std::string(512, 'r'));
  fault().reset();
  EXPECT_FALSE(cache.get("dd44").has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);
}

TEST_F(DiskCacheTest, LruEvictionKeepsNewestUnderBudget) {
  // Budget fits roughly one 400-byte entry (payload + 24-byte header).
  DiskCache cache(dir_.string(), 600);
  ASSERT_TRUE(cache.put("old1", std::string(400, 'a')));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(cache.put("new2", std::string(400, 'b')));
  EXPECT_LE(cache.total_bytes(), 600u);
  EXPECT_FALSE(cache.contains("old1"));  // oldest mtime evicted first
  EXPECT_TRUE(cache.contains("new2"));
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST_F(DiskCacheTest, HitRefreshesLruRecency) {
  DiskCache cache(dir_.string(), 1000);
  ASSERT_TRUE(cache.put("first", std::string(400, 'a')));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(cache.put("second", std::string(400, 'b')));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(cache.get("first").has_value());  // touch: now most recent
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(cache.put("third", std::string(400, 'c')));
  EXPECT_TRUE(cache.contains("first"));
  EXPECT_FALSE(cache.contains("second"));
}

TEST_F(DiskCacheTest, ScanReportsDefectsWithoutMutating) {
  DiskCache cache(dir_.string());
  ASSERT_TRUE(cache.put("good", "valid payload"));
  ASSERT_TRUE(cache.put("bad", std::string(64, 'z')));
  {
    std::fstream f(entry_path("bad"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    f.put('!');
  }
  auto entries = DiskCache::scan(dir_.string());
  ASSERT_EQ(entries.size(), 2u);
  // scan() sorts by key: "bad" < "good".
  EXPECT_EQ(entries[0].key, "bad");
  EXPECT_FALSE(entries[0].valid);
  EXPECT_EQ(entries[0].defect, "checksum mismatch");
  EXPECT_EQ(entries[1].key, "good");
  EXPECT_TRUE(entries[1].valid);
  // The audit is read-only: the defective file is still there.
  EXPECT_TRUE(fs::exists(entry_path("bad")));
}

// The running byte total must equal what a directory scan counts after
// puts, overwrites, evictions and defect removals, and a reopened cache
// must start from the same figure.
TEST_F(DiskCacheTest, RunningTotalMatchesADirectoryScan) {
  auto scanned = [&] {
    std::uint64_t total = 0;
    for (const auto& e : fs::directory_iterator(dir_))
      if (e.path().extension() == ".adcstage") total += fs::file_size(e.path());
    return total;
  };
  DiskCache cache(dir_.string(), 1900);
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(cache.put(std::to_string(i) + "k", std::string(100 + 50 * i, 'a')));
  EXPECT_EQ(cache.total_bytes(), scanned());
  ASSERT_TRUE(cache.put("2k", std::string(700, 'b')));  // overwrite, larger
  EXPECT_EQ(cache.total_bytes(), scanned());
  EXPECT_GE(cache.stats().evictions, 1u);  // the larger copy broke the budget
  EXPECT_LE(cache.total_bytes(), 1900u);
  ASSERT_TRUE(cache.put("3k", "short"));  // overwrite, smaller
  EXPECT_EQ(cache.total_bytes(), scanned());
  {
    std::fstream f(entry_path("3k"), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24);
    f.put('!');
  }
  EXPECT_FALSE(cache.get("3k").has_value());  // defect: removed
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_EQ(cache.total_bytes(), scanned());
  ASSERT_TRUE(cache.put("big", std::string(1800, 'c')));  // evicts all but itself
  EXPECT_EQ(cache.total_bytes(), scanned());
  EXPECT_TRUE(cache.contains("big"));
  EXPECT_EQ(cache.total_bytes(), 1824u);
  EXPECT_EQ(DiskCache(dir_.string(), 1900).total_bytes(), scanned());
}

TEST_F(DiskCacheTest, ChecksumIsFnv1a64) {
  // Pinned reference values: the on-disk format must not drift silently.
  EXPECT_EQ(DiskCache::checksum(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(DiskCache::checksum("a"), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace adc
