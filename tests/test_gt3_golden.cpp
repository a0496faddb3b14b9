// GT3 decision golden: the relative-timing pass must remove the same arcs,
// in the same order and by the same proof method, as the GT3 that ran one
// full token simulation per trial and compared recorded times afterwards.
// Any change to the trial seeds, the delay draws, the event order or the
// never-last check shows up here with the graph and margin named.
//
// tests/data/gt3_golden.txt was captured from that earlier GT3 with
//
//   ADC_GT3_GOLDEN_OUT=tests/data/gt3_golden.txt ./build/tests/test_gt3_golden
//
// (the test writes the file instead of comparing when the variable is set).
// Inputs: random_program with alus in {2,3}, stmts in {8,12,16,24} and
// seeds 1..10 after `gt1; gt2`, and every builtin benchmark after each of
// "", `gt1`, `gt2`, `gt1; gt2` and `gt1; gt2; gt4`; each at margins 0, 1
// and 2 with the default samples and the typical delay model.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/benchmarks.hpp"
#include "runtime/flow.hpp"
#include "transforms/global.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

Cdfg after(Cdfg g, const std::string& prefix) {
  TransformScript script = TransformScript::parse(prefix);
  GlobalPipelineResult res;
  for (std::size_t i = 0; i < script.step_count(); ++i)
    script.run_step(g, i, DelayModel::typical(), res);
  return g;
}

// One block per (graph, margin): a header line, then one line per removed
// arc in removal order.
void log_decisions(std::ostream& out, const std::string& key, const Cdfg& g) {
  for (std::int64_t margin = 0; margin <= 2; ++margin) {
    Cdfg h = g;
    Gt3Options o;
    o.margin = margin;
    TransformResult res = gt3_relative_timing(h, DelayModel::typical(), o);
    out << "graph|" << key << "|margin=" << margin << "|removed=" << res.arcs_removed
        << "\n";
    for (const auto& d : res.decisions) {
      std::string src, dst, proof;
      for (const auto& [k, v] : d.fields) {
        if (k == "src") src = v;
        if (k == "dst") dst = v;
        if (k == "proof") proof = v;
      }
      out << "arc|" << src << " -> " << dst << "|" << proof << "\n";
    }
  }
}

std::string decision_log() {
  std::ostringstream out;
  for (int alus : {2, 3}) {
    for (int stmts : {8, 12, 16, 24}) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        RandomProgramParams p;
        p.alus = alus;
        p.stmts = stmts;
        std::string key = "random alus=" + std::to_string(alus) +
                          " stmts=" + std::to_string(stmts) +
                          " seed=" + std::to_string(seed) + "|gt1; gt2";
        log_decisions(out, key, after(random_program(p, seed), "gt1; gt2"));
      }
    }
  }
  for (const auto& b : builtin_benchmarks())
    for (const char* prefix : {"", "gt1", "gt2", "gt1; gt2", "gt1; gt2; gt4"})
      log_decisions(out, b.name + "|" + prefix, after(b.make(), prefix));
  return out.str();
}

TEST(Gt3Golden, RemovesTheCapturedArcsInOrder) {
  const std::string path = std::string(ADC_TEST_DATA_DIR) + "/gt3_golden.txt";
  const std::string log = decision_log();
  if (const char* capture = std::getenv("ADC_GT3_GOLDEN_OUT")) {
    std::ofstream(capture) << "# GT3 removals per graph and margin; see tests/test_gt3_golden.cpp\n"
                           << log;
    GTEST_SKIP() << "captured " << capture;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing " << path;
  std::stringstream want;
  want << in.rdbuf();

  // Compare block by block so a drift names its graph and margin.
  auto blocks = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream ss(text);
    std::string line;
    while (std::getline(ss, line)) {
      if (line.rfind("graph|", 0) == 0) out.emplace_back();
      if (!out.empty()) out.back() += line + "\n";
    }
    return out;
  };
  const auto got = blocks(log);
  const auto expected = blocks(want.str());
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]);
}

}  // namespace
}  // namespace adc
