// The textual XBM format: parsing, round trips through to_text(), and the
// role-inference/override rules.

#include <gtest/gtest.h>

#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "ltrans/local.hpp"
#include "transforms/script.hpp"
#include "xbm/parse.hpp"
#include "xbm/print.hpp"
#include "xbm/validate.hpp"

namespace adc {
namespace {

TEST(XbmParse, SmallMachine) {
  Xbm m = parse_xbm(R"(name demo
inputs req=0 c=0
outputs ack=0
initial s0
s0 s1 <c+> req+ / ack+
s1 s0 req- / ack-
s0 s0 <c-> req~ /
)");
  EXPECT_EQ(m.name(), "demo");
  EXPECT_EQ(m.state_count(), 2u);
  EXPECT_EQ(m.transition_count(), 3u);
  EXPECT_EQ(m.signal(*m.find_signal("c")).role, SignalRole::kConditional);
}

TEST(XbmParse, RoundTripsEveryExtractedController) {
  for (auto make : {diffeq, gcd, fir4, mac_reduce}) {
    Cdfg g = make();
    auto res = TransformScript::parse(kPaperRecipe).run(g);
    for (auto& c : extract_controllers(g, res.plan)) {
      run_local_transforms(c);
      std::string text = to_text(c.machine);
      Xbm back = parse_xbm(text);
      EXPECT_EQ(back.state_count(), c.machine.state_count()) << c.machine.name();
      EXPECT_EQ(back.transition_count(), c.machine.transition_count()) << c.machine.name();
      EXPECT_EQ(back.input_count(), c.machine.input_count()) << c.machine.name();
      EXPECT_EQ(back.output_count(), c.machine.output_count()) << c.machine.name();
      // The reparsed machine must print identically modulo the role-derived
      // ordering, and must still validate.
      EXPECT_TRUE(validate(back).empty()) << c.machine.name();
    }
  }
}

TEST(XbmParse, DdcMarksSurvive) {
  Xbm m = parse_xbm(R"(name d
inputs a=0 b=0
outputs y=0
initial s0
s0 s1 a~ b~* / y~
s1 s0 b~ / y~
)");
  bool saw_ddc = false;
  for (TransitionId t : m.transition_ids())
    for (const auto& e : m.transition(t).inputs)
      if (e.directed_dont_care) saw_ddc = true;
  EXPECT_TRUE(saw_ddc);
  EXPECT_TRUE(validate(m).empty());
}

TEST(XbmParse, RoleOverride) {
  Xbm m = parse_xbm(R"(name r
role done fu-done
inputs done=0
outputs go=0
initial s0
s0 s0 done+ / go+
)");
  EXPECT_EQ(m.signal(*m.find_signal("done")).role, SignalRole::kFuDone);
}

TEST(XbmParse, InitialValuesParsed) {
  Xbm m = parse_xbm(R"(name i
inputs a=1
outputs y=1
initial s0
s0 s0 a- / y-
)");
  EXPECT_TRUE(m.signal(*m.find_signal("a")).initial_value);
  EXPECT_TRUE(m.signal(*m.find_signal("y")).initial_value);
}

TEST(XbmParse, Errors) {
  EXPECT_THROW(parse_xbm("s0 s1 a+ / y+\n"), std::invalid_argument);  // undeclared
  EXPECT_THROW(parse_xbm("inputs a=0\ns0 s1 a+ y+\n"), std::invalid_argument);  // no '/'
  EXPECT_THROW(parse_xbm("inputs a=0\noutputs y=0\ns0 s1 a? / y+\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_xbm("role x banana\n"), std::invalid_argument);
  EXPECT_THROW(parse_xbm("inputs a=0\noutputs y=0\ns0 s1 a+ / y+*\n"),
               std::invalid_argument);  // ddc on output
}

TEST(XbmParse, CommentsIgnored) {
  Xbm m = parse_xbm(R"(; full line comment
name c
inputs a=0 ; trailing
outputs y=0
initial s0
s0 s0 a~ / y~ ; and here
)");
  EXPECT_EQ(m.transition_count(), 1u);
}

}  // namespace
}  // namespace adc
