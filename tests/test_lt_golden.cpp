// LT golden: the local transformations must leave every controller exactly
// as the LT layer did before its validator and incidence were rewritten —
// the same post-LT controller fingerprint, or the same "LT pipeline broke"
// report — and the machine's incidence lists must match a scan of its
// transition slots after every LT step.
//
// tests/data/lt_golden.txt was captured from that earlier LT layer with
//
//   ADC_LT_GOLDEN_OUT=tests/data/lt_golden.txt ./build/tests/test_lt_golden
//
// (the test writes the file instead of comparing when the variable is set).
// Inputs: every builtin benchmark at each of the 32 GT-grid recipes, and
// 150 generated programs with pure moves and one to three ALUs at the
// paper's full recipe.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "ltrans/local.hpp"
#include "runtime/flow.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

struct Input {
  std::string key;
  std::function<Cdfg()> make;
  std::string recipe;
};

std::vector<Input> inputs() {
  std::vector<Input> out;
  for (const auto& b : builtin_benchmarks())
    for (const auto& recipe : gt_ablation_grid(true))
      out.push_back({b.name, b.make, recipe});
  for (int i = 0; i < 150; ++i) {
    RandomProgramParams p;
    p.alus = 1 + i % 3;
    p.mults = 1 + (i / 3) % 2;
    p.stmts = 8 + (i % 7) * 4;
    p.regs = 4 + i % 5;
    p.moves = true;
    const auto seed = static_cast<std::uint64_t>(1000 + i);
    out.push_back({"random " + std::to_string(i),
                   [p, seed] { return random_program(p, seed); }, kPaperRecipe});
  }
  return out;
}

// The extracted controllers of one input, before LT.
std::vector<ExtractedController> extracted(const Input& in, const TransformScript& script) {
  Cdfg g = in.make();
  auto res = script.run(g);
  return extract_controllers(g, res.plan);
}

std::string one_line(std::string s) {
  for (std::string::size_type at = s.find('\n'); at != std::string::npos; at = s.find('\n'))
    s.replace(at, 1, " // ");
  return s;
}

// One line per controller: input, recipe, controller, then the post-LT
// fingerprint or the pipeline's refusal.
std::string lt_log() {
  std::ostringstream out;
  for (const Input& in : inputs()) {
    const TransformScript script = TransformScript::parse(in.recipe);
    for (ExtractedController& c : extracted(in, script)) {
      out << in.key << "|" << in.recipe << "|" << c.machine.name() << "|";
      try {
        run_local_transforms(c, script.local_options());
        out << fingerprint(c).hex();
      } catch (const std::exception& e) {
        out << one_line(e.what());
      }
      out << "\n";
    }
  }
  return out.str();
}

TEST(LtGolden, EveryControllerMatchesTheCapturedLtLayer) {
  const std::string log = lt_log();
  if (const char* path = std::getenv("ADC_LT_GOLDEN_OUT")) {
    std::ofstream f(path);
    f << "# Post-LT controllers; see tests/test_lt_golden.cpp\n" << log;
    GTEST_SKIP() << "wrote " << path;
  }
  std::ifstream f(std::string(ADC_TEST_DATA_DIR) + "/lt_golden.txt");
  ASSERT_TRUE(f.is_open()) << "missing tests/data/lt_golden.txt";
  std::vector<std::string> want, got;
  std::string line;
  while (std::getline(f, line))
    if (!line.empty() && line[0] != '#') want.push_back(line);
  std::istringstream g(log);
  while (std::getline(g, line)) got.push_back(line);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]) << "line " << i;
}

// out_transitions / in_transitions against a scan of the slots.
void expect_incidence(const Xbm& m, const std::string& at) {
  for (const XbmState& s : m.state_slots()) {
    std::vector<TransitionId> outs, ins;
    for (const XbmTransition& t : m.transition_slots()) {
      if (!t.alive) continue;
      if (t.from() == s.id) outs.push_back(t.id);
      if (t.to() == s.id) ins.push_back(t.id);
    }
    EXPECT_EQ(m.out_transitions(s.id), outs) << at << " state " << s.name;
    EXPECT_EQ(m.in_transitions(s.id), ins) << at << " state " << s.name;
  }
}

// The steps of run_local_transforms, in its order, each followed by the
// incidence check (validity is the golden's business, not this test's).
TEST(LtIncidence, ListsMatchASlotScanAfterEveryStep) {
  for (const Input& in : inputs()) {
    const TransformScript script = TransformScript::parse(in.recipe);
    for (ExtractedController& c : extracted(in, script)) {
      Xbm& m = c.machine;
      const SignalBindings& b = c.bindings;
      const std::string at = in.key + " [" + in.recipe + "] " + m.name();
      std::vector<std::pair<std::string, std::string>> shared;
      const std::vector<std::pair<const char*, std::function<void()>>> steps = {
          {"extract", [] {}},
          {"LT1", [&] { lt1_move_up(m, b); }},
          {"LT4", [&] { lt4_remove_acks(m, b); }},
          {"LT2", [&] { lt2_move_down(m, b); }},
          {"fold", [&] { fold_trivial_transitions(m, &b); }},
          {"LT3", [&] { lt3_mux_preselection(m, b); }},
          {"fold", [&] { fold_trivial_transitions(m, &b); }},
          {"LT5", [&] { lt5_signal_sharing(m, b, shared); }},
          {"sweep", [&] { m.sweep_dead_states(); }},
      };
      for (const auto& [name, step] : steps) {
        step();
        expect_incidence(m, at + " after " + name);
      }
    }
  }
}

}  // namespace
}  // namespace adc
