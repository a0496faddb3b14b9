// Cover golden: synthesize_logic must return the same products, function by
// function and in the same order, as the minimizer that re-scanned the OFF
// list for every variable it tried and shared products through hash maps.
// logic_golden pins only product and literal counts on the library; this
// pins every product string over a generated corpus as well.
//
// tests/data/cover_golden.txt was captured from that earlier minimizer with
//
//   ADC_COVER_GOLDEN_OUT=tests/data/cover_golden.txt ./build/tests/test_cover_golden
//
// (the test writes the file instead of comparing when the variable is set).
// Inputs: every builtin benchmark, and random_program controllers with alus
// in {2,3}, stmts in {8,16,24,32}, moves on and off and seeds 1..2; each
// after `gt1; gt2; gt3; gt4; gt2; gt5(no_sym); lt` and after the same script
// without `lt`.  A program whose flow throws (the LT pipeline refuses some)
// is logged as refused.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "logic/minimize.hpp"
#include "ltrans/local.hpp"
#include "runtime/flow.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

const char* const kScripts[] = {"gt1; gt2; gt3; gt4; gt2; gt5(no_sym); lt",
                                "gt1; gt2; gt3; gt4; gt2; gt5(no_sym)"};

// One block per (program, script): a header line, then per controller a
// line with its issue count and one line per function with its products.
void log_covers(std::ostream& out, const std::string& key, const Cdfg& source,
                const std::string& script_text) {
  std::ostringstream block;
  try {
    Cdfg g = source;
    TransformScript script = TransformScript::parse(script_text);
    GlobalPipelineResult res = script.run(g);
    for (auto& c : extract_controllers(g, res.plan)) {
      if (script.has_local_step()) run_local_transforms(c, script.local_options());
      LogicSynthesisResult logic = synthesize_logic(c);
      block << "ctl|" << c.machine.name() << "|issues=" << logic.issues.size() << "\n";
      for (const auto& f : logic.functions) {
        block << "fn|" << f.name << "|";
        for (const auto& p : f.products) block << " " << p.to_string();
        block << "\n";
      }
    }
  } catch (const std::exception&) {
    out << "point|" << key << "|" << script_text << "|refused\n";
    return;
  }
  out << "point|" << key << "|" << script_text << "|ok\n" << block.str();
}

std::string cover_log() {
  std::ostringstream out;
  for (const char* script : kScripts) {
    for (const auto& b : builtin_benchmarks()) log_covers(out, b.name, b.make(), script);
    for (int alus : {2, 3}) {
      for (int stmts : {8, 16, 24, 32}) {
        for (bool moves : {true, false}) {
          for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            RandomProgramParams p;
            p.alus = alus;
            p.stmts = stmts;
            p.moves = moves;
            std::string key = "random alus=" + std::to_string(alus) +
                              " stmts=" + std::to_string(stmts) +
                              " moves=" + std::to_string(moves) +
                              " seed=" + std::to_string(seed);
            log_covers(out, key, random_program(p, seed), script);
          }
        }
      }
    }
  }
  return out.str();
}

TEST(CoverGolden, ProductsMatchTheCapturedCovers) {
  const std::string path = std::string(ADC_TEST_DATA_DIR) + "/cover_golden.txt";
  const std::string log = cover_log();
  if (const char* capture = std::getenv("ADC_COVER_GOLDEN_OUT")) {
    std::ofstream(capture)
        << "# synthesize_logic products per function; see tests/test_cover_golden.cpp\n"
        << log;
    GTEST_SKIP() << "captured " << capture;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing " << path;
  std::stringstream want;
  want << in.rdbuf();

  // Compare block by block so a drift names its program and script.
  auto blocks = [](const std::string& text) {
    std::vector<std::string> out;
    std::istringstream ss(text);
    std::string line;
    while (std::getline(ss, line)) {
      if (line.rfind("point|", 0) == 0) out.emplace_back();
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
