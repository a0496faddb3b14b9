#pragma once
// GT5 "communication channel elimination" (paper §3.5): reduces the number
// of global ready wires between controllers.
//
//  * GT5.1 channel multiplexing — two channels between the same controllers
//    that are never concurrently active share one wire; successive events
//    become alternating phases.
//  * GT5.2 concurrency reduction — a direct constraint a -> c is replaced
//    by the chain a -> b (existing) plus b -> c (new), eliminating the
//    direct channel when the new arc can be multiplexed onto an existing
//    channel.  Costs concurrency; applied only to non-critical constraints.
//  * GT5.3 channel symmetrization — channel sets from the same sending FU
//    with overlapping (but not identical) receiver sets are made symmetric
//    by *safe* (already implied) arc additions, turned into multi-way
//    channels, and multiplexed.
//
// The driver also forms the natural multi-way channels of a single source
// node (a broadcast of one completion event), governed by `same_source`:
//  * kFirstNodeTargets (default, matches the paper's DIFFEQ result): only
//    broadcast events whose receivers all wait at the head of their cycle,
//  * kAll: merge every same-source group (fewest wires, busier receivers),
//  * kNone: keep one wire per arc.

#include <cstdint>
#include <optional>

#include "cdfg/cdfg.hpp"
#include "cdfg/delay.hpp"
#include "channel/channel.hpp"
#include "transforms/transform.hpp"

namespace adc {

struct Gt5Options {
  enum class SameSource { kNone, kFirstNodeTargets, kAll };
  SameSource same_source = SameSource::kFirstNodeTargets;
  bool multiplex = true;
  bool symmetrize = true;
  bool concurrency_reduction = false;
  // Concurrency reduction runs the timing harness (timing_harness.hpp)
  // at the all-max delay corner before and after a reroute, and accepts it
  // only when both runs complete and the finish time grows by at most this
  // many time units (0 = only reroute constraints with full slack).
  std::int64_t max_period_increase = 0;
  DelayModel delays = DelayModel::typical();
};

struct Gt5Result {
  TransformResult stats;
  ChannelPlan plan;
};

// The full GT5 driver: derives the unoptimized plan and applies the enabled
// eliminations to a fixpoint.
Gt5Result gt5_channel_elimination(Cdfg& g, const Gt5Options& opts = {});

// --- individual operations (exposed for tests and manual scripts) --------

// Merges channel `b` into channel `a` if legal.  Indices into plan.channels().
bool try_multiplex(const Cdfg& g, ChannelPlan& plan, std::size_t a, std::size_t b);

// Merges all single-event channels sourced at `source` into one multi-way
// broadcast channel.  Returns the number of channels eliminated.
int form_multiway(const Cdfg& g, ChannelPlan& plan, NodeId source);

// Extends channel `small` (single event) with safe, already-implied arcs so
// that its receiver set matches channel `big`'s, then multiplexes the two.
// Rolls everything back and returns false when impossible.
bool try_symmetrize(Cdfg& g, ChannelPlan& plan, std::size_t big, std::size_t small,
                    TransformResult* stats = nullptr);

// The period concurrency reduction bounds: the finish time of one
// all-max-delay run of the timing harness.  A run that does not complete (a
// deadlock, or a forward cycle a reroute closed) has no period.
std::optional<std::int64_t> harness_period(const Cdfg& g, const DelayModel& delays);

// GT5.2 for one constraint arc: reroute a -> c through hub b.  The new arc
// b -> c must merge onto an existing channel, and the period after the
// reroute may exceed `before` (harness_period of g as it stands) by at most
// opts.max_period_increase.  Returns false if no legal hub exists.
bool try_concurrency_reduction(Cdfg& g, ChannelPlan& plan, ArcId direct, std::int64_t before,
                               const Gt5Options& opts, TransformResult* stats = nullptr);

}  // namespace adc
