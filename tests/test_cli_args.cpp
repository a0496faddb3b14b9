// The tools' shared command-line value parser: numbers are read whole and
// range-checked for their destination type, and a bad value is a usage
// error (exit 2) that names the flag and the value.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "cli_args.hpp"

namespace adc::cli {
namespace {

TEST(CliArgs, NumbersAreParsedWhole) {
  EXPECT_EQ(parse_number<std::int64_t>("21"), 21);
  EXPECT_EQ(parse_number<std::int64_t>("-7"), -7);
  EXPECT_FALSE(parse_number<std::int64_t>("21x"));
  EXPECT_FALSE(parse_number<std::int64_t>(""));
  EXPECT_FALSE(parse_number<std::int64_t>(" 21"));
  EXPECT_FALSE(parse_number<std::int64_t>("21 "));
  EXPECT_FALSE(parse_number<std::size_t>("2x"));
}

TEST(CliArgs, RangeIsTheDestinationType) {
  EXPECT_FALSE(parse_number<std::size_t>("-1"));
  EXPECT_EQ(parse_number<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_FALSE(parse_number<std::uint32_t>("4294967296"));
  EXPECT_FALSE(parse_number<std::uint16_t>("65536"));
  EXPECT_FALSE(parse_number<std::int64_t>("9223372036854775808"));
  EXPECT_EQ(parse_number<std::int64_t>("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  // An explicit range narrows it.
  EXPECT_EQ(parse_number<int>("-1", -1, 65535), -1);
  EXPECT_FALSE(parse_number<int>("-2", -1, 65535));
  EXPECT_FALSE(parse_number<std::size_t>("1025", 0, kMaxThreads));
}

TEST(CliArgs, FloatingPointRejectsNonFiniteValues) {
  EXPECT_EQ(parse_number<double>("2.5"), 2.5);
  EXPECT_EQ(parse_number<double>("-10"), -10.0);
  EXPECT_FALSE(parse_number<double>("2.5%"));
  EXPECT_FALSE(parse_number<double>("nan"));
  EXPECT_FALSE(parse_number<double>("inf"));
  EXPECT_FALSE(parse_number<double>("1e400"));
}

TEST(CliArgs, SplitTrimsAndDropsEmptyItems) {
  EXPECT_EQ(split(" gt1; gt2 | | lt ", '|'),
            (std::vector<std::string>{"gt1; gt2", "lt"}));
}

TEST(CliArgs, ParseInitReadsRegisterPairs) {
  auto init = parse_init("adc_test", "--init", "A=21,B=-14");
  EXPECT_EQ(init.size(), 2u);
  EXPECT_EQ(init["A"], 21);
  EXPECT_EQ(init["B"], -14);
  EXPECT_TRUE(parse_init("adc_test", "--init", "").empty());
}

TEST(CliArgs, HostPortSplitsAtTheLastColon) {
  auto [host, port] = host_port("adc_test", "--connect", "127.0.0.1:7788");
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7788);
}

using CliArgsDeathTest = ::testing::Test;

TEST_F(CliArgsDeathTest, BadValuesAreUsageErrorsNamingFlagAndValue) {
  std::size_t jobs = 0;
  EXPECT_EXIT(set_number(jobs, "adc_test", "--jobs", "2x"),
              ::testing::ExitedWithCode(2), "adc_test: --jobs expects an integer .*got '2x'");
  EXPECT_EXIT(set_number(jobs, "adc_test", "--jobs", "-1"),
              ::testing::ExitedWithCode(2), "--jobs .*got '-1'");
  std::uint32_t frame = 0;
  EXPECT_EXIT(set_number(frame, "adc_test", "--max-frame-bytes", "4294967296"),
              ::testing::ExitedWithCode(2), "--max-frame-bytes .*got '4294967296'");
  EXPECT_EXIT(parse_init("adc_test", "--simulate", "A=21x"), ::testing::ExitedWithCode(2),
              "--simulate A expects an integer .*got '21x'");
  EXPECT_EXIT(parse_init("adc_test", "--simulate", "A="), ::testing::ExitedWithCode(2),
              "--simulate A .*got ''");
  EXPECT_EXIT(parse_init("adc_test", "--simulate", "A"), ::testing::ExitedWithCode(2),
              "--simulate expects REG=VAL pairs, got 'A'");
  EXPECT_EXIT(number<double>("adc_test", "--threshold", "5%"), ::testing::ExitedWithCode(2),
              "--threshold expects a finite number, got '5%'");
  EXPECT_EXIT(host_port("adc_test", "--connect", "localhost:70000"),
              ::testing::ExitedWithCode(2), "--connect .*got '70000'");
}

}  // namespace
}  // namespace adc::cli
