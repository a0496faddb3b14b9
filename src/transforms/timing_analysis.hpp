#pragma once
// Min/max arrival-time analysis on an unrolled-loop DAG: GT5's
// concurrency reduction reads the steady-state completion bound from it.
//
// Each CDFG node instance completes within [earliest, latest] of the
// analysis origin; completion of arc (a -> b) "arrives" at b when a's
// instance completes.  Arrival intervals are computed independently per
// node (correlations between shared sub-paths are ignored), so the bounds
// are conservative.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "cdfg/cdfg.hpp"
#include "cdfg/delay.hpp"

namespace adc {

struct ArrivalInterval {
  std::int64_t earliest = 0;
  std::int64_t latest = 0;
};

class UnrolledTiming {
 public:
  // Unrolls every loop `unroll` times (backward arcs connect consecutive
  // copies) and computes completion intervals for every node instance.
  UnrolledTiming(const Cdfg& g, const DelayModel& delays, int unroll = 4);

  // Completion interval of node n in unrolled copy k (0-based).
  // Returns std::nullopt if the instance does not exist.
  std::optional<ArrivalInterval> completion(NodeId n, int copy) const;

  int unroll() const { return unroll_; }

 private:
  const Cdfg& g_;
  DelayModel delays_;
  int unroll_;
  // completion_[copy][node index]
  std::vector<std::vector<std::optional<ArrivalInterval>>> completion_;

  DelayRange node_delay(const Node& n) const;
  void compute();
};

}  // namespace adc
