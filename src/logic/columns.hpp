#pragma once
// Word-parallel helpers over cube lists stored by variable, shared by the
// minimizer (logic/hazard_free.cpp) and product sharing
// (logic/minimize.cpp).  Internal to src/logic.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "logic/cube.hpp"

namespace adc::detail {

using Word = std::uint64_t;

inline bool test_bit(const Word* mask, std::size_t i) { return (mask[i / 64] >> (i % 64)) & 1; }
inline void set_bit(Word* mask, std::size_t i) { mask[i / 64] |= Word{1} << (i % 64); }

// Calls fn(i) for every set bit i of a `words`-word mask, in ascending order.
template <class Fn>
void for_each_bit(const Word* mask, std::size_t words, Fn fn) {
  for (std::size_t w = 0; w < words; ++w)
    for (Word b = mask[w]; b; b &= b - 1)
      fn(w * 64 + static_cast<std::size_t>(__builtin_ctzll(b)));
}

// The fixed variables of a cube in Cube's layout (can0 words, then can1).
inline void fixed_vars(const Word* c, std::size_t words, Word* out) {
  for (std::size_t w = 0; w < words; ++w) out[w] = c[w] ^ c[words + w];
}

// A list of cubes stored by variable: for each variable u and value x, the
// set of cubes (one bit each) fixed to x at u.  Two cubes are disjoint
// exactly when some variable is fixed to opposite values in them, and a
// cube c contains a (non-empty) cube exactly when that cube is fixed to c's
// value at every variable c fixes — so the cubes c is disjoint from, or
// contains, are a union or an intersection of a few rows, not a pass over
// the list.
struct Columns {
  std::size_t n = 0;       // cubes
  std::size_t words = 0;   // per set
  std::vector<Word> sets;  // (2 * var + value) * words

  Columns(const std::vector<const Cube*>& cubes, std::size_t vars, std::size_t cube_words)
      : n(cubes.size()), words((cubes.size() + 63) / 64), sets(2 * vars * words, 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const Word* c = cubes[i]->words();
      for (std::size_t w = 0; w < cube_words; ++w) {
        for (Word b = c[w] & ~c[cube_words + w]; b; b &= b - 1)
          set_bit(row(w * 64 + static_cast<std::size_t>(__builtin_ctzll(b)), false), i);
        for (Word b = c[cube_words + w] & ~c[w]; b; b &= b - 1)
          set_bit(row(w * 64 + static_cast<std::size_t>(__builtin_ctzll(b)), true), i);
      }
    }
  }
  Word* row(std::size_t var, bool one) { return sets.data() + (2 * var + one) * words; }
  const Word* row(std::size_t var, bool one) const {
    return sets.data() + (2 * var + one) * words;
  }
  // Word k of the set of all cubes.
  Word live(std::size_t k) const {
    return k + 1 < words || n % 64 == 0 ? ~Word{0} : (Word{1} << (n % 64)) - 1;
  }
  // The cubes disjoint from cube `c` at its fixed variable `var`.
  const Word* against(const Word* c, std::size_t cube_words, std::size_t var) const {
    return row(var, !test_bit(c + cube_words, var));
  }
  // `out` = the cubes disjoint from `c`, given c's fixed variables.
  void disjoint(const Word* c, const Word* fixed, std::size_t cube_words, Word* out) const {
    std::fill(out, out + words, Word{0});
    for_each_bit(fixed, cube_words, [&](std::size_t var) {
      const Word* r = against(c, cube_words, var);
      for (std::size_t k = 0; k < words; ++k) out[k] |= r[k];
    });
  }
  // `out` = the cubes `c` contains, given c's fixed variables.
  void contained(const Word* c, const Word* fixed, std::size_t cube_words, Word* out) const {
    for (std::size_t k = 0; k < words; ++k) out[k] = live(k);
    for_each_bit(fixed, cube_words, [&](std::size_t var) {
      const Word* r = row(var, test_bit(c + cube_words, var));
      for (std::size_t k = 0; k < words; ++k) out[k] &= r[k];
    });
  }
  // True when every cube is in `mask`.
  bool all(const Word* mask) const {
    for (std::size_t k = 0; k < words; ++k)
      if ((mask[k] & live(k)) != live(k)) return false;
    return true;
  }
};

}  // namespace adc::detail
