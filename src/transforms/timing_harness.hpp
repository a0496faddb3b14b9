#pragma once
// The one timing harness of the global transforms.  GT3 asks it whether an
// arc can ever be the last to arrive; GT5's concurrency reduction asks it
// how much a reroute stretches the period.  Both compile the graph into a
// TokenSimModel and run it with these options, varying only the delays.

#include "sim/token_sim.hpp"

namespace adc {

// Data-independent: every LOOP runs a fixed 6 iterations and IF bodies are
// always taken.  No wire-discipline check: the harness measures time, not
// protocol.
inline TokenSimOptions timing_harness_options() {
  TokenSimOptions o;
  o.forced_loop_iterations = 6;
  o.check_wire_discipline = false;
  return o;
}

}  // namespace adc
