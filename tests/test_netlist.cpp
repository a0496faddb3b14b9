// Netlist emission and functional (dynamic) hazard checking of the
// synthesized two-level networks.

#include <gtest/gtest.h>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "logic/netlist.hpp"
#include "ltrans/local.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

std::vector<ExtractedController> optimized(Cdfg& g) {
  auto res = TransformScript::parse(kPaperRecipe).run(g);
  auto cs = extract_controllers(g, res.plan);
  for (auto& c : cs) run_local_transforms(c);
  return cs;
}

TEST(Netlist, VerilogMentionsEverySignal) {
  Cdfg g = diffeq();
  auto cs = optimized(g);
  for (auto& c : cs) {
    auto r = synthesize_logic(c);
    std::string v = to_verilog(r, c.machine.name());
    EXPECT_NE(v.find("module"), std::string::npos);
    EXPECT_NE(v.find("endmodule"), std::string::npos);
    for (const auto& n : r.machine.output_names)
      EXPECT_NE(v.find(n), std::string::npos) << c.machine.name() << "/" << n;
  }
}

TEST(Netlist, EquationsOnePerFunction) {
  Cdfg g = diffeq();
  auto cs = optimized(g);
  auto r = synthesize_logic(cs[0]);
  std::string e = to_equations(r);
  std::size_t lines = static_cast<std::size_t>(std::count(e.begin(), e.end(), '\n'));
  EXPECT_EQ(lines, r.functions.size());
}

TEST(Netlist, DiffeqNetworksReplayTheirSpecs) {
  // The strongest check on the logic backend: the synthesized AND-OR
  // network, with feedback, must walk the concretized machine without
  // output glitches or premature state changes, for adversarial input
  // orderings.
  Cdfg g = diffeq();
  for (auto& c : optimized(g)) {
    auto r = synthesize_logic(c);
    auto chk = check_netlist(r);
    EXPECT_TRUE(chk.ok) << c.machine.name() << ": "
                        << (chk.violations.empty() ? "" : chk.violations[0]);
    EXPECT_GT(chk.transitions_checked, 0);
  }
}

TEST(Netlist, AllBenchmarksReplay) {
  for (auto make : {gcd, fir4, mac_reduce, ewf_lite}) {
    Cdfg g = make();
    for (auto& c : optimized(g)) {
      auto r = synthesize_logic(c);
      NetlistCheckOptions o;
      o.walks = 8;
      o.steps_per_walk = 40;
      auto chk = check_netlist(r, o);
      EXPECT_TRUE(chk.ok) << g.name() << "/" << c.machine.name() << ": "
                          << (chk.violations.empty() ? "" : chk.violations[0]);
    }
  }
}

TEST(Netlist, UnoptimizedControllersReplayToo) {
  Cdfg g = diffeq();
  auto plan = ChannelPlan::derive(g);
  for (auto& c : extract_controllers(g, plan)) {
    auto r = synthesize_logic(c);
    NetlistCheckOptions o;
    o.walks = 5;
    auto chk = check_netlist(r, o);
    EXPECT_TRUE(chk.ok) << c.machine.name() << ": "
                        << (chk.violations.empty() ? "" : chk.violations[0]);
  }
}

TEST(Netlist, DetectsABrokenCover) {
  // Damage a cover on purpose: the checker must notice.
  Cdfg g = diffeq();
  auto cs = optimized(g);
  auto r = synthesize_logic(cs[0]);
  ASSERT_FALSE(r.functions.empty());
  // Drop all products of the busiest function.
  std::size_t busiest = 0;
  for (std::size_t i = 0; i < r.functions.size(); ++i)
    if (r.functions[i].products.size() > r.functions[busiest].products.size()) busiest = i;
  r.functions[busiest].products.clear();
  auto chk = check_netlist(r);
  EXPECT_FALSE(chk.ok);
}

}  // namespace
}  // namespace adc
