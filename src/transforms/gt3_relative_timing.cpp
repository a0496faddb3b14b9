#include <algorithm>

#include "cdfg/analysis.hpp"
#include "transforms/global.hpp"
#include "transforms/timing_harness.hpp"

namespace adc {

namespace {

// True if node n sits under any IF block: its firings are conditional, so
// firing counts would not align across instances and the verification
// below would compare the wrong pairs.
bool under_if(const Cdfg& g, NodeId n) {
  BlockId b = g.node(n).block;
  while (b.valid()) {
    if (g.block(b).kind == NodeKind::kIf) return true;
    b = g.block(b).parent;
  }
  return false;
}

// Structural fast path: candidate u = (a -> b, ou) is never last if some
// remaining arc w = (c -> b, ow) satisfies a =>(offset <= ou - ow) c —
// then c's completion (and hence w's arrival) always follows a's.
bool structurally_covered(const Cdfg& g, const Arc& u) {
  for (ArcId wid : g.in_arcs(u.dst)) {
    const Arc& w = g.arc(wid);
    int budget = u.offset() - w.offset();
    if (budget < 0) continue;
    if (w.src == u.src || is_implied(g, u.src, w.src, budget)) return true;
  }
  return false;
}

// Watches one trial for the candidate's violation: a's k-th completion
// plus `margin` later than b's (k + offset)-th firing.  A violation is final
// once both events exist, so the trial stops at the first one.
class NeverLastWatch : public TokenSimWatch {
 public:
  NeverLastWatch(const Arc& u, std::int64_t margin)
      : src_(u.src), dst_(u.dst), offset_(u.offset()), margin_(margin) {}

  bool on_fire(NodeId n, std::int64_t t) override {
    if (n != dst_) return true;
    fires_.push_back(t);
    const std::ptrdiff_t k = static_cast<std::ptrdiff_t>(fires_.size()) - 1 - offset_;
    // k < 0: pre-enabled for the first iteration.
    return k < 0 || static_cast<std::size_t>(k) >= completions_.size() ||
           !late(completions_[static_cast<std::size_t>(k)], t);
  }
  bool on_complete(NodeId n, std::int64_t t) override {
    if (n != src_) return true;
    completions_.push_back(t);
    const std::size_t j = completions_.size() - 1 + static_cast<std::size_t>(offset_);
    return j >= fires_.size() || !late(t, fires_[j]);
  }

  // The verdict of a trial that ran to its end: a destination firing with no
  // source completion at all is not covered; later stragglers are.
  bool covered(const TokenSimResult& r) const {
    return !r.stopped && r.error.empty() && (fires_.empty() || !completions_.empty());
  }

 private:
  bool late(std::int64_t completion, std::int64_t fire) const {
    return completion + margin_ > fire;
  }

  NodeId src_, dst_;
  int offset_;
  std::int64_t margin_;
  std::vector<std::int64_t> fires_, completions_;
};

// Timing verification on the relaxed graph (u already tombstoned): in every
// trial, a's (j - offset)-th completion must precede b's j-th firing by at
// least `margin`.  The graph is compiled once for all trials.
bool timing_covered(const Cdfg& g, const Arc& u, const DelayModel& delays,
                    const Gt3Options& opts) {
  const TokenSimModel model(g, delays);
  auto check_trial = [&](const TokenSimOptions& simopts) {
    NeverLastWatch watch(u, opts.margin);
    return watch.covered(model.run({}, simopts, &watch));
  };

  const TokenSimOptions base = timing_harness_options();
  TokenSimOptions corner = base;
  corner.randomize_delays = false;
  corner.all_min_delays = false;
  if (!check_trial(corner)) return false;  // all-max
  corner.all_min_delays = true;
  if (!check_trial(corner)) return false;  // all-min
  for (int s = 1; s <= opts.samples; ++s) {
    TokenSimOptions trial = base;
    trial.seed = static_cast<std::uint64_t>(s) * 7919u + 13u;
    if (!check_trial(trial)) return false;
  }
  return true;
}

}  // namespace

TransformResult gt3_relative_timing(Cdfg& g, const DelayModel& delays,
                                    const Gt3Options& opts) {
  TransformResult res;
  res.name = "GT3 relative-timing optimization";

  bool changed = true;
  while (changed) {
    changed = false;
    for (ArcId aid : g.arc_ids()) {
      Arc& a = g.arc(aid);
      if (opts.only_inter_controller && g.node(a.src).fu == g.node(a.dst).fu) continue;
      if (g.in_arcs(a.dst).size() < 2) continue;  // nothing can cover it
      if (under_if(g, a.src) || under_if(g, a.dst)) continue;

      a.alive = false;  // hypothesize removal; prove on the relaxed system
      bool structural = structurally_covered(g, a);
      bool safe = structural || timing_covered(g, a, delays, opts);
      if (safe) {
        ++res.arcs_removed;
        res.note("removed " + g.node(a.src).label() + " -> " + g.node(a.dst).label() +
                 " (never the last arrival under the delay model)");
        res.decide("gt3", "rt_arc_removed")
            .removed()
            .field("src", g.node(a.src).label())
            .field("dst", g.node(a.dst).label())
            .field("proof", structural ? "structural" : "timing")
            .field("margin", static_cast<std::int64_t>(opts.margin));
        changed = true;
      } else {
        a.alive = true;
      }
    }
  }
  return res;
}

}  // namespace adc
