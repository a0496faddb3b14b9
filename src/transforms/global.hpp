#pragma once
// Global transformations GT1-GT4 (paper §3).  GT5 lives in gt5.hpp because
// it also produces the channel plan.
//
// All transforms preserve the precedence order of the original CDFG (GT3
// under an explicitly stated relative-timing assumption).  Each returns a
// TransformResult describing the rewrite.

#include "cdfg/cdfg.hpp"
#include "cdfg/delay.hpp"
#include "transforms/transform.hpp"

namespace adc {

// GT1 "loop parallelism" (§3.1): allows successive loop iterations to
// overlap.  Four steps per loop block:
//   A. remove the synchronization arcs into ENDLOOP (all but the FU
//      scheduling arc from its schedule predecessor),
//   B. add backward arcs from the last to the first instances of every
//      register accessed in the body (skipping arcs already implied),
//   C. add an arc from the last write of the loop condition register to
//      ENDLOOP (skipping it when implied),
//   D. re-establish the single-transition wire discipline: arc from the
//      first use of each FU in the body to ENDLOOP (skipping when implied),
//      restricting overlap to two consecutive iterations.
// Timing assumption (checked dynamically by the simulators, stated by the
// paper): on the final exit, functional units may still be finishing the
// last iteration; all must complete before their results are consumed.
TransformResult gt1_loop_parallelism(Cdfg& g);

struct Gt2Options {
  // Only remove arcs that cost a wire (different controllers).  Intra-
  // controller constraints are free, and keeping them preserves the
  // schedule record.
  bool only_inter_controller = true;
};

// GT2 "removal of dominated constraints" (§3.2): deletes every arc that is
// contained in the transitive closure of the remaining constraints
// (offset-aware; the implicit controller wrap-around constraints count).
TransformResult gt2_remove_dominated(Cdfg& g, const Gt2Options& opts = {});

struct Gt3Options {
  // Randomized delay assignments tried by the timing verification, in
  // addition to the all-min and all-max corners.
  int samples = 24;
  // Required slack (time units) between the removed constraint's event and
  // the destination's firing, in every observed execution.
  std::int64_t margin = 1;
  bool only_inter_controller = true;
};

// GT3 "relative-timing optimization" (§3.3): removes a constraint arc when
// analysis shows it can never be the last to arrive at its destination.
// Two-stage proof, run on the graph with the candidate removed:
//  1. structural: the candidate's source provably precedes the source of a
//     remaining incoming arc (pure precedence, delay-independent);
//  2. timing verification: the data-independent timing harness
//     (timing_harness.hpp) simulates the relaxed system under the delay model
//     (the all-max and all-min corners, then `samples` seeded randomized
//     assignments) and checks that the candidate's event always arrives
//     `margin` before the destination fires.  The relaxed graph is compiled
//     into one TokenSimModel per candidate and every trial runs over it; a
//     TokenSimWatch on the source's completions and the destination's firings
//     stops a trial at the first late arrival, and the first failing trial
//     keeps the arc.  A trial that deadlocks or runs away keeps it too.  This
//     mirrors the paper's "detailed timing analysis must be performed": the
//     result is valid exactly under the declared delay model, which is the
//     nature of a relative-timing assumption.
TransformResult gt3_relative_timing(Cdfg& g, const DelayModel& delays,
                                    const Gt3Options& opts = {});

// GT4 "merging of assignment nodes" (§3.4): an assignment node R1 := R2
// does not use its functional unit, so it can execute in parallel with the
// preceding (preferred) or succeeding RTL operation bound to the same unit,
// provided the two are register-independent.  The nodes are merged into one
// CDFG node carrying both statements.
TransformResult gt4_merge_assignments(Cdfg& g);

}  // namespace adc
