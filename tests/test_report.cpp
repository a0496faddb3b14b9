// Table formatting and area model.

#include <gtest/gtest.h>

#include "area/area_model.hpp"
#include "report/table.hpp"

namespace adc {
namespace {

TEST(Report, TableAlignsColumns) {
  Table t({"name", "#states", "#trans"});
  t.add_row({"ALU1", "7", "9"});
  t.add_row({"ALU2", "11", "13"});
  t.add_separator();
  t.add_row({"total", "18", "22"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("| ALU1"), std::string::npos);
  EXPECT_NE(s.find("| total"), std::string::npos);
  // Every rendered line has the same width.
  std::size_t width = s.find('\n');
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, width);
    pos = next + 1;
  }
}

TEST(Report, MissingCellsRenderEmpty) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Report, PairCell) { EXPECT_EQ(pair_cell(7, 9), "7/9"); }

TEST(Area, TransistorEstimateMonotone) {
  ControllerArea small{"s", 10, 30, 3, 5};
  ControllerArea big{"b", 20, 60, 4, 8};
  EXPECT_LT(small.transistor_estimate(), big.transistor_estimate());
}

}  // namespace
}  // namespace adc
