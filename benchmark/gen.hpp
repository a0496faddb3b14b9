#pragma once
// Seeded inputs for the benchmark and the references they are checked
// against.  Nothing here calls into the compiler under test: programs are
// written out as DSL text, and their final registers come from this file's
// own interpreter or from the hand-written expected-register file.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

using Registers = std::map<std::string, std::int64_t>;

// One loop-body statement `dest := lhs op rhs` (or `dest := lhs` for a
// pure move).
struct GenStmt {
  enum class Op { kAdd, kSub, kMul, kMove };
  std::string fu;
  std::string dest, lhs, rhs;
  Op op = Op::kAdd;
};

// A count-down loop program of the `random_program` shape:
//   loop cond on ALU1 { <body>; ALU1: n := n - 1; ALU1: cond := 0 < n; }
struct GenProgram {
  std::string name;
  std::vector<std::string> alus, muls;
  std::vector<GenStmt> body;
  Registers init;  // includes n (the iteration count) and cond = 1

  // The program in the frontend DSL.
  std::string source() const;
};

// Shape of generated programs, which always have 1-2 multipliers, 6-8
// registers and 3 iterations.  Program `index` has min_stmts + index %
// (max_stmts - min_stmts + 1) loop-body statements, the two count-down ones
// included.  The defaults are what the workloads compile; the full
// random_program mix adds a third ALU and pure moves, which the flow is
// known to get wrong.
struct GenShape {
  int min_stmts = 12, max_stmts = 32;
  int max_alus = 2;    // two ALUs, or two to three
  bool moves = false;  // pure moves `r := s`, one ALU statement in six
};

// Program `index` of the corpus drawn from `seed` (deterministic in both).
GenProgram generate_program(std::uint64_t seed, std::uint64_t index,
                            const GenShape& shape);

// Draws new initial values for the program's data registers from `seed`,
// such that no result of the loop overflows 64 bits; the statements, and
// so the compile work, stay as they are.
void draw_registers(GenProgram& p, std::uint64_t seed);

// Final registers of the program: the loop run to completion with
// wrapping 64-bit arithmetic.
Registers interpret(const GenProgram& p);

// The smallest known program the full flow gets wrong (a pure move right
// after a read of the same register): the reference ends with r0 = 3.
GenProgram move_defect_program();

// A SplitMix64 step: the benchmark's one source of pseudo-random numbers.
std::uint64_t mix64(std::uint64_t& state);

// A seeded permutation of 0..n-1.
std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t& state);

}  // namespace bench
