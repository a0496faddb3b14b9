#pragma once
// State assignment for the concretized machine.
//
// Codes embed the transition graph in the smallest hypercube that holds
// every state: a depth-first walk from the initial state gives each state
// the lowest unused code one bit away from its already-coded neighbours, so
// that state changes flip a single feedback bit (the race-free ideal).  The
// walk backtracks within a fixed node budget; when it fails, a greedy pass
// takes the codes with the fewest multi-bit changes, and the fraction of
// distance-1 transitions achieved is reported.  Unused codes are global
// don't-cares.  This substitutes for the exact critical-race-free
// assignment engines inside Minimalist/3D, which are out of scope; see
// DESIGN.md.

#include <cstdint>
#include <vector>

#include "logic/flow_table.hpp"

namespace adc {

struct Encoding {
  std::size_t bits = 0;
  std::vector<std::uint32_t> code;  // per concrete state
  int distance1 = 0;                // transitions whose codes differ in one bit
  int total = 0;                    // state-changing transitions
};

Encoding assign_codes(const ConcreteMachine& cm);

// Whether an undirected graph (`adj`: each vertex's sorted neighbours, no
// self-loops) embeds in the `bits`-cube with distinct codes and every edge
// at distance 1.  A complete search under a fixed node cap: kNo is a proof
// (assign_codes then skips its walk, which could not succeed), kUnknown
// means the cap ran out.
enum class Embeddable { kNo, kYes, kUnknown };
Embeddable hypercube_embeddable(const std::vector<std::vector<std::size_t>>& adj,
                                std::size_t bits);

}  // namespace adc
