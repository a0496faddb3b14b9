// Golden gate-level equivalence: the optimized minimizer (word-parallel
// cube kernels, parallel per-function covering, cover memo) must reproduce
// the seed minimizer's product/literal counts and feasibility verdicts
// byte-for-byte across the whole benchmark library.
//
// tests/data/logic_golden.txt was captured from the seed implementation:
// the full 32-recipe DIFFEQ ablation grid plus the default recipe of every
// other builtin benchmark.  Any drift — a changed candidate order, a
// different covering tie-break, a memo replay that differs from a fresh
// run — fails here with the exact point named.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "logic/memo.hpp"
#include "logic/minimize.hpp"
#include "ltrans/local.hpp"
#include "runtime/flow.hpp"
#include "runtime/thread_pool.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

struct GoldController {
  std::string name;
  std::size_t products = 0;
  std::size_t literals = 0;
  bool feasible = true;
};

struct GoldPoint {
  std::string benchmark;
  std::string script;
  std::string status;  // "ok" / "deadlock"
  std::size_t products = 0;
  std::size_t literals = 0;
  std::vector<GoldController> controllers;
};

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, sep)) out.push_back(field);
  return out;
}

std::vector<GoldPoint> load_golden() {
  std::ifstream in(std::string(ADC_TEST_DATA_DIR) + "/logic_golden.txt");
  EXPECT_TRUE(in.is_open()) << "missing tests/data/logic_golden.txt";
  std::vector<GoldPoint> points;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto f = split(line, '|');
    if (f[0] == "point") {
      EXPECT_EQ(f.size(), 6u) << line;
      GoldPoint p;
      p.benchmark = f[1];
      p.script = f[2];
      p.status = f[3];
      p.products = std::stoul(f[4]);
      p.literals = std::stoul(f[5]);
      points.push_back(std::move(p));
    } else {
      EXPECT_EQ(f.size(), 6u) << line;
      EXPECT_FALSE(points.empty()) << "controller line before any point";
      if (points.empty()) continue;
      GoldController c;
      c.name = f[2];
      c.products = std::stoul(f[3]);
      c.literals = std::stoul(f[4]);
      c.feasible = f[5] == "true";
      points.back().controllers.push_back(std::move(c));
    }
  }
  EXPECT_FALSE(points.empty());
  return points;
}

// The whole library through one pooled executor — the exact production
// configuration (fan-out on, memo on) against every golden number.  Event
// simulation runs only for the points whose golden status says it matters
// (the four E8 deadlock corners); products/literals are sim-independent.
TEST(LogicGolden, FullLibraryMatchesSeedCounts) {
  auto points = load_golden();
  ThreadPool pool(4);
  FlowExecutor exec(&pool);
  for (const auto& gold : points) {
    const BuiltinBenchmark* b = find_builtin(gold.benchmark);
    ASSERT_NE(b, nullptr) << gold.benchmark;
    FlowRequest req = make_builtin_request(*b, gold.script);
    req.simulate = gold.status == "deadlock";
    FlowPoint p = exec.run(req);
    std::string at = gold.benchmark + " [" + gold.script + "]";
    if (gold.status == "deadlock") {
      EXPECT_EQ(p.status, FlowStatus::kDeadlock) << at;
    } else {
      EXPECT_EQ(gold.status, "ok") << at;
      EXPECT_TRUE(p.error.empty()) << at << ": " << p.error;
    }
    EXPECT_EQ(p.products, gold.products) << at;
    EXPECT_EQ(p.literals, gold.literals) << at;
    ASSERT_EQ(p.controllers.size(), gold.controllers.size()) << at;
    for (std::size_t i = 0; i < gold.controllers.size(); ++i) {
      const auto& gc = gold.controllers[i];
      EXPECT_EQ(p.controllers[i].name, gc.name) << at;
      EXPECT_EQ(p.controllers[i].products, gc.products) << at << " " << gc.name;
      EXPECT_EQ(p.controllers[i].literals, gc.literals) << at << " " << gc.name;
      EXPECT_EQ(p.controllers[i].feasible, gc.feasible) << at << " " << gc.name;
    }
  }
  // Sharing across the grid means the memo must actually have replayed.
  EXPECT_GT(exec.logic_memo().stats().hits, 0u);
}

// Serial, pooled and memo-replayed synthesis must agree product for
// product, not just in the counts.
TEST(LogicGolden, SerialParallelAndMemoizedCoversAreIdentical) {
  Cdfg g = diffeq();
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  auto controllers = extract_controllers(g, res.plan);
  for (auto& c : controllers) run_local_transforms(c);

  ThreadPool pool(4);
  LogicMemo memo;
  for (const auto& c : controllers) {
    SynthesisOptions serial;
    LogicSynthesisResult r0 = synthesize_logic(c, serial);

    SynthesisOptions pooled;
    pooled.pool = &pool;
    LogicSynthesisResult r1 = synthesize_logic(c, pooled);

    SynthesisOptions memo_cold;
    memo_cold.cover.memo = &memo;
    LogicSynthesisResult r2 = synthesize_logic(c, memo_cold);  // fills
    LogicSynthesisResult r3 = synthesize_logic(c, memo_cold);  // replays

    for (const LogicSynthesisResult* r : {&r1, &r2, &r3}) {
      ASSERT_EQ(r->functions.size(), r0.functions.size());
      for (std::size_t fi = 0; fi < r0.functions.size(); ++fi) {
        EXPECT_EQ(r->functions[fi].name, r0.functions[fi].name);
        ASSERT_EQ(r->functions[fi].products.size(),
                  r0.functions[fi].products.size())
            << r0.functions[fi].name;
        for (std::size_t pi = 0; pi < r0.functions[fi].products.size(); ++pi)
          EXPECT_TRUE(r->functions[fi].products[pi] ==
                      r0.functions[fi].products[pi])
              << r0.functions[fi].name << " product " << pi;
      }
      EXPECT_EQ(r->issues, r0.issues);
    }
  }
  EXPECT_GT(memo.stats().hits, 0u);
}

}  // namespace
}  // namespace adc
