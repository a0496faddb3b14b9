#pragma once
// Benchmark CDFGs.
//
// diffeq() is the paper's case study: the differential-equation solver
// (HAL) benchmark, scheduled and bound exactly as in the paper's Figure 1 —
// two ALUs, two multipliers, LOOP/ENDLOOP bound to ALU2, with the RTL
// statements named in the text (B := 2dx + dx, A := Y + M1, U := U - M1,
// M1 := U * X1, M1 := A * B, M2 := U * dx, X := X + dx, Y := Y + M2,
// X1 := X, C := X < a).
//
// The others exercise the flow on additional shapes: straight-line code,
// IF blocks, and deeper loops.  random_program() generates valid scheduled
// CDFGs for property-based tests.

#include <cstdint>
#include <string>

#include "cdfg/cdfg.hpp"

namespace adc {

// The paper's DIFFEQ benchmark (Figure 1 schedule/binding).
Cdfg diffeq();

// The same benchmark in the textual DSL (exercises the parser; elaborates
// to a graph isomorphic to diffeq()).
std::string diffeq_source();

// Greatest common divisor by repeated subtraction: a LOOP containing two IF
// blocks, single ALU plus a comparator ALU.
Cdfg gcd();

// Four-tap FIR filter, fully unrolled: straight-line code on 2 MULs + 2 ALUs.
Cdfg fir4();

// A modular multiply-accumulate loop with an IF block (conditional reduce).
Cdfg mac_reduce();

// An elliptic-wave-filter-like dependency-rich straight-line kernel.
Cdfg ewf_lite();

// The full elliptic-wave-filter-class kernel (34 operations: 26 additions
// and 8 multiplications over 8 state registers), scheduled and bound by
// the HLS substrate onto the requested resources.  The largest bundled
// benchmark; exercises deep multiplexed channels and long controller rings.
Cdfg ewf(int alus = 3, int mults = 2);

struct RandomProgramParams {
  int alus = 2;
  int mults = 2;
  int stmts = 12;       // loop-body statements
  bool with_loop = true;
  int regs = 6;         // size of the register pool
  // One ALU statement in six is a pure move `d := l`; false turns those
  // into binary operations and leaves the rest of the program unchanged.
  bool moves = true;
};

// A pseudo-random but always-valid scheduled CDFG (deterministic in `seed`).
Cdfg random_program(const RandomProgramParams& params, std::uint64_t seed);

}  // namespace adc
