// End-to-end two-level synthesis of controllers: feasibility, cover
// verification, encoding quality, and the Figure 13 trend (GT+LT shrinks
// the gate level dramatically).

#include <gtest/gtest.h>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "logic/cover.hpp"
#include "logic/minimize.hpp"
#include "logic/stats.hpp"
#include "ltrans/local.hpp"
#include "transforms/pipeline.hpp"

namespace adc {
namespace {

std::vector<ExtractedController> optimized_controllers(Cdfg& g) {
  auto res = run_global_transforms(g);
  auto cs = extract_controllers(g, res.plan);
  for (auto& c : cs) run_local_transforms(c);
  return cs;
}

TEST(Logic, DiffeqControllersSynthesizeFeasibly) {
  Cdfg g = diffeq();
  for (auto& c : optimized_controllers(g)) {
    auto r = synthesize_logic(c);
    EXPECT_TRUE(r.feasible()) << c.machine.name() << ": "
                              << (r.issues.empty() ? "" : r.issues[0]);
    EXPECT_GT(r.product_count(true), 0u);
    EXPECT_GT(r.literal_count(true), 0u);
  }
}

TEST(Logic, CoversVerifyAgainstTheirSpecs) {
  Cdfg g = diffeq();
  for (auto& c : optimized_controllers(g)) {
    auto r = synthesize_logic(c);
    for (std::size_t i = 0; i < r.functions.size(); ++i) {
      const auto& fl = r.functions[i];
      FunctionSpec spec = build_function_spec(
          r.machine, r.encoding, fl.is_state_bit,
          fl.is_state_bit ? i - r.machine.output_names.size() : i, fl.name);
      EXPECT_TRUE(verify_cover(spec, fl.products).empty())
          << c.machine.name() << "/" << fl.name;
    }
  }
}

TEST(Logic, SharedCountsNeverExceedSingleOutputCounts) {
  Cdfg g = diffeq();
  for (auto& c : optimized_controllers(g)) {
    auto r = synthesize_logic(c);
    EXPECT_LE(r.product_count(true), r.product_count(false));
    EXPECT_LE(r.literal_count(true), r.literal_count(false));
  }
}

TEST(Logic, Figure13TrendLtShrinksGateLevel) {
  // The paper's Figure 13 point: the transformed controllers are far
  // smaller than naive ones.  Compare gate-level size of unoptimized vs
  // GT+LT controllers.
  Cdfg g1 = diffeq();
  auto plan1 = ChannelPlan::derive(g1);
  std::size_t unopt_lits = 0;
  for (auto& c : extract_controllers(g1, plan1)) {
    auto r = synthesize_logic(c);
    unopt_lits += r.literal_count(true);
  }
  Cdfg g2 = diffeq();
  std::size_t opt_lits = 0;
  for (auto& c : optimized_controllers(g2)) {
    auto r = synthesize_logic(c);
    opt_lits += r.literal_count(true);
  }
  EXPECT_LT(opt_lits, unopt_lits)
      << "optimized " << opt_lits << " vs unoptimized " << unopt_lits;
  EXPECT_LT(opt_lits * 3, unopt_lits * 2) << "expect at least ~30% reduction";
}

TEST(Logic, EncodingMostTransitionsDistanceOne) {
  Cdfg g = diffeq();
  for (auto& c : optimized_controllers(g)) {
    auto r = synthesize_logic(c);
    EXPECT_GE(r.encoding.distance1 * 10, r.encoding.total * 7)
        << c.machine.name() << ": " << r.encoding.distance1 << "/"
        << r.encoding.total << " distance-1 transitions";
  }
}

TEST(Logic, EncodingCodesAreUnique) {
  Cdfg g = diffeq();
  for (auto& c : optimized_controllers(g)) {
    auto cm = concretize(c.machine, &c.bindings);
    auto enc = assign_codes(cm);
    std::set<std::uint32_t> codes(enc.code.begin(), enc.code.end());
    EXPECT_EQ(codes.size(), cm.states.size()) << c.machine.name();
    for (auto code : codes) EXPECT_LT(code, 1u << enc.bits);
  }
}

TEST(Logic, GateStatsDescribe) {
  Cdfg g = diffeq();
  auto cs = optimized_controllers(g);
  auto r = synthesize_logic(cs[0]);
  auto st = gate_stats(r, cs[0].machine.state_count());
  EXPECT_TRUE(st.feasible);
  EXPECT_EQ(st.spec_states, cs[0].machine.state_count());
  EXPECT_GE(st.impl_states, st.spec_states);
  std::string d = describe(st);
  EXPECT_NE(d.find("products"), std::string::npos);
  EXPECT_NE(d.find("state bits"), std::string::npos);
}

TEST(Logic, AllBenchmarksSynthesize) {
  for (auto make : {diffeq, gcd, fir4, mac_reduce, ewf_lite}) {
    Cdfg g = make();
    for (auto& c : optimized_controllers(g)) {
      auto r = synthesize_logic(c);
      EXPECT_TRUE(r.feasible()) << g.name() << "/" << c.machine.name() << ": "
                                << (r.issues.empty() ? "" : r.issues[0]);
    }
  }
}

}  // namespace
}  // namespace adc
