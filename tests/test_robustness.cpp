// Robustness tests: the hardened runtime's contracts end to end.
//
//  * The paper's E8 deadlock corners — GT5 without GT2/GT3 leaves the
//    broadcast protocol without the sequencing those transforms insert, so
//    the event simulation must detect a system deadlock (status=deadlock)
//    in bounded time, never hang.
//  * Deadlines and cooperative cancellation: CancelToken semantics, the
//    watchdog, and stalls converted into structured status=timeout points.
//  * Injected faults surface as status=fault with the site in the error.
//  * The disk-tier point cache replays completed points warm across
//    executors (including deadlock verdicts), round-trips FlowPoint JSON
//    losslessly, and treats a drifted or partial payload as a miss.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "runtime/cancel.hpp"
#include "runtime/disk_cache.hpp"
#include "runtime/fault.hpp"
#include "runtime/flow.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/watchdog.hpp"

namespace fs = std::filesystem;

namespace adc {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { fault().reset(); }
  void TearDown() override { fault().reset(); }
};

// --- E8: GT5 without GT2/GT3 deadlock corners ------------------------------

// Each corner runs on a generous whole-job deadline: a real deadlock must
// be *detected* by the simulator, not rescued by the watchdog, so the
// status has to be `deadlock` (not `timeout`) and the run must finish.
FlowPoint run_deadlock_corner(const char* script) {
  FlowExecutor exec(nullptr);
  FlowRequest req = make_builtin_request(*find_builtin("diffeq"), script);
  req.deadline_ms = 120000;
  return exec.run(req);
}

void expect_deadlock(const FlowPoint& p) {
  EXPECT_EQ(p.status, FlowStatus::kDeadlock) << to_string(p.status) << ": "
                                             << p.error;
  EXPECT_TRUE(p.deadlocked);
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.error.find("deadlock"), std::string::npos) << p.error;
}

TEST_F(RobustnessTest, E8DeadlockCornerGt5Alone) {
  expect_deadlock(run_deadlock_corner("gt5; lt"));
}

TEST_F(RobustnessTest, E8DeadlockCornerGt1Gt5) {
  expect_deadlock(run_deadlock_corner("gt1; gt5; lt"));
}

TEST_F(RobustnessTest, E8DeadlockCornerGt4Gt5) {
  expect_deadlock(run_deadlock_corner("gt4; gt5; lt"));
}

TEST_F(RobustnessTest, E8DeadlockCornerGt1Gt4Gt5) {
  expect_deadlock(run_deadlock_corner("gt1; gt4; gt5; lt"));
}

// --- cancellation primitives ------------------------------------------------

TEST_F(RobustnessTest, CancelTokenKeepsFirstReason) {
  CancelToken t;
  EXPECT_FALSE(t.cancelled());
  t.request("first");
  t.request("second");
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.reason(), "first");
  EXPECT_THROW(t.throw_if_cancelled(), CancelledError);
  // Copies share state.
  CancelToken copy = t;
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(copy.same(t));
}

TEST_F(RobustnessTest, WatchdogTripsTokenAfterDelay) {
  CancelToken t;
  WatchdogGuard guard(t, 50, "watchdog test deadline");
  auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!t.cancelled() && std::chrono::steady_clock::now() < limit)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(t.cancelled());
  EXPECT_EQ(t.reason(), "watchdog test deadline");
}

TEST_F(RobustnessTest, DisarmedWatchdogNeverFires) {
  CancelToken t;
  { WatchdogGuard guard(t, 50, "should never fire"); }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(t.cancelled());
}

TEST_F(RobustnessTest, ZeroDelayMeansNoDeadline) {
  CancelToken t;
  std::size_t before = Watchdog::global().armed();
  WatchdogGuard guard(t, 0, "unused");
  EXPECT_EQ(Watchdog::global().armed(), before);
}

// --- deadlines through the flow --------------------------------------------

TEST_F(RobustnessTest, StalledStageBecomesStructuredTimeout) {
  fault().configure("flow.sim=stall(30000)");
  FlowExecutor exec(nullptr);
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"), "lt");
  req.stage_deadline_ms = 150;
  auto t0 = std::chrono::steady_clock::now();
  FlowPoint p = exec.run(req);
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
  EXPECT_EQ(p.status, FlowStatus::kTimeout) << p.error;
  EXPECT_FALSE(p.ok);
  EXPECT_NE(p.error.find("deadline"), std::string::npos) << p.error;
  EXPECT_LT(ms, 20000) << "stall must be cut short by the watchdog";
  EXPECT_EQ(exec.metrics().counter("flow.timeouts").value(), 1u);
}

TEST_F(RobustnessTest, JobDeadlineCoversTheWholePoint) {
  fault().configure("flow.controllers=stall(30000)");
  FlowExecutor exec(nullptr);
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"), "lt");
  req.deadline_ms = 150;
  FlowPoint p = exec.run(req);
  EXPECT_EQ(p.status, FlowStatus::kTimeout) << p.error;
  EXPECT_NE(p.error.find("deadline"), std::string::npos) << p.error;
}

TEST_F(RobustnessTest, StageDeadlineIsScopedToThePointNotItsQueueNeighbours) {
  // Regression: the controllers fan-out used to join via the pool's
  // *helping* wait, which executes arbitrary queued work — including whole
  // other points — nested inside the waiting point's controllers stage.
  // One stalled point then blew every earlier point's stage deadline (a
  // 32-point grid with one injected stall reported 27 timeouts).  The
  // scoped TaskGroup join keeps each point's deadline its own.
  fault().configure("flow.sim[gt2; gt5]=stall(60000)");
  ThreadPool pool(1);
  FlowExecutor exec(&pool);
  std::vector<FlowRequest> reqs;
  for (const char* s : {"lt", "gt1; lt", "gt2; lt", "gt2; gt5; lt"}) {
    FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"), s);
    // Wide margin over the ~30 ms the honest stages need: the deadline is
    // wall-clock, and a parallel ctest run on a small machine can starve
    // this process for whole seconds.  The stalled point still times out
    // (its injected stall is 60 s).
    req.stage_deadline_ms = 10000;
    reqs.push_back(std::move(req));
  }
  std::vector<FlowPoint> points = exec.run_all(reqs);
  ASSERT_EQ(points.size(), reqs.size());
  for (const FlowPoint& p : points) {
    if (p.script == "gt2; gt5; lt") {
      EXPECT_EQ(p.status, FlowStatus::kTimeout) << p.script << ": " << p.error;
    } else {
      EXPECT_EQ(p.status, FlowStatus::kOk) << p.script << ": " << p.error;
    }
  }
}

TEST_F(RobustnessTest, PreCancelledRequestNeverRuns) {
  FlowExecutor exec(nullptr);
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"), "lt");
  req.cancel.request("operator abort");
  FlowPoint p = exec.run(req);
  EXPECT_EQ(p.status, FlowStatus::kCancelled) << to_string(p.status);
  EXPECT_FALSE(p.ok);
}

// --- injected faults --------------------------------------------------------

TEST_F(RobustnessTest, InjectedStageFaultSurfacesAsFaultStatus) {
  fault().configure("flow.global=fail:1");
  FlowExecutor exec(nullptr);
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"), "lt");
  FlowPoint p = exec.run(req);
  EXPECT_EQ(p.status, FlowStatus::kFault) << to_string(p.status);
  EXPECT_NE(p.error.find("flow.global"), std::string::npos) << p.error;
  EXPECT_EQ(exec.metrics().counter("flow.faults").value(), 1u);
  // The plan is exhausted (count 1): a fresh token retries clean.
  req.cancel = CancelToken();
  FlowPoint retry = exec.run(req);
  EXPECT_EQ(retry.status, FlowStatus::kOk) << retry.error;
}

TEST_F(RobustnessTest, FaultFilterSelectsByScript) {
  fault().configure("flow.sim[gt2; gt5]=fail");
  FlowExecutor exec(nullptr);
  const BuiltinBenchmark* b = find_builtin("mac_reduce");
  FlowPoint hit = exec.run(make_builtin_request(*b, "gt2; gt5; lt"));
  EXPECT_EQ(hit.status, FlowStatus::kFault);
  FlowPoint miss = exec.run(make_builtin_request(*b, "lt"));
  EXPECT_EQ(miss.status, FlowStatus::kOk) << miss.error;
}

// --- disk-tier point cache ---------------------------------------------------

class DiskTierTest : public RobustnessTest {
 protected:
  void SetUp() override {
    RobustnessTest::SetUp();
    dir_ = fs::path(::testing::TempDir()) /
           ("adc_disk_tier_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    RobustnessTest::TearDown();
  }

  FlowExecutor::Options disk_opts() const {
    FlowExecutor::Options o;
    o.disk_cache_dir = dir_.string();
    return o;
  }

  fs::path dir_;
};

TEST_F(DiskTierTest, CompletedPointReplaysWarmAcrossExecutors) {
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"), "lt");
  FlowPoint cold;
  {
    FlowExecutor exec(nullptr, disk_opts());
    cold = exec.run(req);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_FALSE(cold.from_disk_cache);
    EXPECT_EQ(exec.metrics().counter("flow.disk_stores").value(), 1u);
  }
  FlowExecutor fresh(nullptr, disk_opts());
  FlowPoint warm = fresh.run(req);
  EXPECT_TRUE(warm.from_disk_cache);
  EXPECT_EQ(warm.status, FlowStatus::kOk);
  EXPECT_EQ(fresh.metrics().counter("flow.disk_hits").value(), 1u);
  // The replay carries the original metrics verbatim.
  EXPECT_EQ(warm.channels, cold.channels);
  EXPECT_EQ(warm.states, cold.states);
  EXPECT_EQ(warm.transitions, cold.transitions);
  EXPECT_EQ(warm.products, cold.products);
  EXPECT_EQ(warm.literals, cold.literals);
  EXPECT_EQ(warm.latency, cold.latency);
  EXPECT_EQ(warm.sim_registers, cold.sim_registers);
}

TEST_F(DiskTierTest, DeadlockVerdictIsCachedToo) {
  FlowRequest req = make_builtin_request(*find_builtin("diffeq"), "gt5; lt");
  {
    FlowExecutor exec(nullptr, disk_opts());
    FlowPoint p = exec.run(req);
    ASSERT_EQ(p.status, FlowStatus::kDeadlock);
  }
  FlowExecutor fresh(nullptr, disk_opts());
  FlowPoint warm = fresh.run(req);
  EXPECT_TRUE(warm.from_disk_cache);
  EXPECT_EQ(warm.status, FlowStatus::kDeadlock);
  EXPECT_TRUE(warm.deadlocked);
  EXPECT_FALSE(warm.ok);
}

TEST_F(DiskTierTest, FaultedPointIsNeverCached) {
  fault().configure("flow.sim=fail:1");
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"), "lt");
  {
    FlowExecutor exec(nullptr, disk_opts());
    FlowPoint p = exec.run(req);
    ASSERT_EQ(p.status, FlowStatus::kFault);
    EXPECT_EQ(exec.metrics().counter("flow.disk_stores").value(), 0u);
  }
  fault().reset();
  // A fresh executor recomputes (no poisoned entry) and succeeds.
  FlowExecutor fresh(nullptr, disk_opts());
  req.cancel = CancelToken();
  FlowPoint p = fresh.run(req);
  EXPECT_FALSE(p.from_disk_cache);
  EXPECT_EQ(p.status, FlowStatus::kOk) << p.error;
}

TEST_F(DiskTierTest, CorruptedEntryFallsBackToRecompute) {
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"), "lt");
  {
    FlowExecutor exec(nullptr, disk_opts());
    ASSERT_TRUE(exec.run(req).ok);
  }
  // Flip bits in every cached file: all entries must fail their checksum.
  for (const auto& ent : fs::directory_iterator(dir_)) {
    std::fstream f(ent.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0, std::ios::end);
    auto size = static_cast<long>(f.tellp());
    f.seekp(size / 2);
    f.put('\xff');
  }
  FlowExecutor fresh(nullptr, disk_opts());
  FlowPoint p = fresh.run(req);
  EXPECT_FALSE(p.from_disk_cache);
  EXPECT_EQ(p.status, FlowStatus::kOk) << p.error;
  ASSERT_NE(fresh.disk_cache(), nullptr);
  EXPECT_GE(fresh.disk_cache()->stats().corrupt, 1u);
}

// The directory holds point entries only: one per ok or deadlocked point,
// and nothing from the cover memo, which lives in memory.
TEST_F(DiskTierTest, DirectoryHoldsOneEntryPerPointAndNoMemoEntries) {
  const std::pair<const char*, const char*> runs[] = {
      {"mac_reduce", "lt"},
      {"mac_reduce", "gt2; gt5; lt"},
      {"gcd", "lt"},
      {"fir4", "lt"},
      {"diffeq", "gt5; lt"}};
  std::size_t stored = 0;
  {
    FlowExecutor exec(nullptr, disk_opts());
    for (const auto& [bench, script] : runs) {
      FlowPoint p = exec.run(make_builtin_request(*find_builtin(bench), script));
      ASSERT_TRUE(p.status == FlowStatus::kOk || p.status == FlowStatus::kDeadlock)
          << bench << " / " << script << ": " << p.error;
      ++stored;
    }
    EXPECT_GT(exec.logic_memo().stats().fills, 0u);
  }
  const std::vector<DiskCache::ScanEntry> entries = DiskCache::scan(dir_.string());
  EXPECT_EQ(entries.size(), stored);
  for (const DiskCache::ScanEntry& e : entries) {
    EXPECT_TRUE(e.valid) << e.key << ": " << e.defect;
    EXPECT_NE(e.key.rfind("logic-", 0), 0u) << e.key;
  }
}

// A payload whose envelope and checksum are intact but whose schema has
// drifted must be a miss that recomputes, never a replay with zeroed
// counts.
TEST_F(RobustnessTest, DriftedDiskPayloadIsAMissNotAZeroPoint) {
  const fs::path dir = fs::path(::testing::TempDir()) / "adc_disk_drifted_payload";
  fs::remove_all(dir);
  FlowExecutor::Options opts;
  opts.disk_cache_dir = dir.string();
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"), "gt2; gt5; lt");
  FlowPoint cold;
  {
    FlowExecutor exec(nullptr, opts);
    cold = exec.run(req);
    ASSERT_TRUE(cold.ok) << cold.error;
  }
  DiskCache cache(dir.string());
  const std::vector<DiskCache::ScanEntry> entries = DiskCache::scan(dir.string());
  ASSERT_EQ(entries.size(), 1u);
  ASSERT_TRUE(cache.put(entries[0].key, R"({"benchmark": ")" + cold.benchmark +
                                            R"(", "script": ")" + cold.script +
                                            R"(", "ok": true, "status": "ok"})"));
  FlowExecutor fresh(nullptr, opts);
  FlowPoint warm = fresh.run(req);
  EXPECT_FALSE(warm.from_disk_cache);
  EXPECT_EQ(warm.status, FlowStatus::kOk) << warm.error;
  EXPECT_EQ(warm.literals, cold.literals);
  EXPECT_EQ(warm.channels, cold.channels);
  fs::remove_all(dir);
}

TEST_F(RobustnessTest, FlowPointJsonRoundTrips) {
  FlowExecutor exec(nullptr);
  FlowRequest req = make_builtin_request(*find_builtin("mac_reduce"),
                                         "gt2; gt5; lt");
  FlowPoint p = exec.run(req);
  ASSERT_TRUE(p.ok) << p.error;
  FlowPoint r = parse_flow_point(to_json(p));
  EXPECT_EQ(r.benchmark, p.benchmark);
  EXPECT_EQ(r.script, p.script);
  EXPECT_EQ(r.ok, p.ok);
  EXPECT_EQ(r.status, p.status);
  EXPECT_EQ(r.channels, p.channels);
  EXPECT_EQ(r.states, p.states);
  EXPECT_EQ(r.transitions, p.transitions);
  EXPECT_EQ(r.products, p.products);
  EXPECT_EQ(r.literals, p.literals);
  EXPECT_EQ(r.latency, p.latency);
  EXPECT_EQ(r.sim_events, p.sim_events);
  EXPECT_EQ(r.sim_operations, p.sim_operations);
  EXPECT_EQ(r.sim_registers, p.sim_registers);
  ASSERT_EQ(r.controllers.size(), p.controllers.size());
  for (std::size_t i = 0; i < r.controllers.size(); ++i) {
    EXPECT_EQ(r.controllers[i].name, p.controllers[i].name);
    EXPECT_EQ(r.controllers[i].states, p.controllers[i].states);
    EXPECT_EQ(r.controllers[i].literals, p.controllers[i].literals);
  }
  ASSERT_EQ(r.timings.size(), p.timings.size());
  for (std::size_t i = 0; i < r.timings.size(); ++i) {
    EXPECT_EQ(r.timings[i].stage, p.timings[i].stage);
    EXPECT_EQ(r.timings[i].cached, p.timings[i].cached);
  }
  // Registers are untrusted integers: one no int64 holds rejects the payload.
  const std::string head =
      R"({"benchmark": "b", "script": "lt", "ok": true, "status": "ok",
          "channels": 3, "states": 4, "transitions": 5, "products": 6,
          "literals": 7, "latency": 8, "sim_events": 9, "sim_operations": 10,
          "total_us": 11, "controllers": [], "stages": [], "registers": )";
  EXPECT_EQ(parse_flow_point(head + R"({"r0": -3}})").sim_registers.at("r0"), -3);
  EXPECT_THROW(parse_flow_point(head + R"({"r0": 1e300}})"), std::runtime_error);
  EXPECT_THROW(parse_flow_point(head + R"({"r0": 0.5}})"), std::runtime_error);

  // So are the counts, and every member write_json always emits is
  // required: a count no size_t holds, or a missing one, is no point.
  const std::string json = to_json(p);
  auto with = [&](const std::string& from, const std::string& to) {
    std::string s = json;
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return s.replace(at, from.size(), to);
  };
  const std::string channels = "\"channels\":" + std::to_string(p.channels);
  const std::string literals = "\"literals\":" + std::to_string(p.literals) + ",";
  EXPECT_THROW(parse_flow_point(with(channels, "\"channels\":1e300")),
               std::runtime_error);
  EXPECT_THROW(parse_flow_point(with(channels, "\"channels\":-1")),
               std::runtime_error);
  EXPECT_THROW(parse_flow_point(with(literals, "")), std::runtime_error);
}

TEST_F(RobustnessTest, DeadlockPointJsonRoundTripsStatus) {
  FlowExecutor exec(nullptr);
  FlowPoint p = exec.run(make_builtin_request(*find_builtin("diffeq"),
                                              "gt5; lt"));
  ASSERT_EQ(p.status, FlowStatus::kDeadlock);
  FlowPoint r = parse_flow_point(to_json(p));
  EXPECT_EQ(r.status, FlowStatus::kDeadlock);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, p.error);
}

}  // namespace
}  // namespace adc
