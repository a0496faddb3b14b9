#pragma once
// Area estimate of a synthesized controller, used by the DSE profiles
// (analysis/build.hpp).  Two-level logic area follows the usual SIS-style
// accounting: each literal costs two transistors in the AND plane, each
// product one OR-plane input per function it feeds, plus one C-element /
// flip-flop per state bit and a keeper per output.

#include <cstddef>
#include <string>

namespace adc {

struct ControllerArea {
  std::string name;
  std::size_t products = 0;
  std::size_t literals = 0;
  std::size_t state_bits = 0;
  std::size_t outputs = 0;
  // 2 transistors per AND-plane literal + 2 per OR-plane product input
  // + 8 per feedback latch + 4 per output keeper.
  std::size_t transistor_estimate() const;
};

}  // namespace adc
