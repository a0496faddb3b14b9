#pragma once
// The references outputs are checked against, and the tools that keep them
// honest.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "bench.hpp"
#include "gen.hpp"

namespace bench {

// The hand-written final registers of the six builtins (data/
// builtins_expected.txt), by program name.  Throws when the file is
// missing or malformed.
const std::map<std::string, Registers>& builtin_expected();

// Checks the interpreter against run_sequential on 200 generated programs,
// the expected-register file against the sequential interpretation of the
// builtins, and DIFFEQ against diffeq_reference_registers.  Prints every
// disagreement and returns how many there were.
int selftest();

// The known-defect probe: the minimal move defect plus kDefectPrograms
// programs of the full random_program mix (pure moves, two or three ALUs),
// all fixed, compiled at the paper's full recipe.  Its failures are the
// flow's known defects: every untraced run reports the share that comes out
// right, and they never count as the run's own failures.  42 programs are
// two of each size from 12 to 32 statements, about 2.5 s on a 4-vCPU Xeon.
inline constexpr std::size_t kDefectPrograms = 42;
RunResult run_defect_probe();

// Runs the probe and prints the failure classes with their first
// reproducers.
void defects_report();

}  // namespace bench
