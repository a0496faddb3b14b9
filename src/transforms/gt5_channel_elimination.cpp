#include "transforms/gt5.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "cdfg/analysis.hpp"
#include "transforms/concurrency.hpp"
#include "transforms/timing_harness.hpp"

namespace adc {

namespace {

void renumber(ChannelPlan& plan) {
  for (std::size_t i = 0; i < plan.channels().size(); ++i)
    plan.channels()[i].id = ChannelId(i);
}

void erase_channel(ChannelPlan& plan, std::size_t idx) {
  plan.channels().erase(plan.channels().begin() + static_cast<std::ptrdiff_t>(idx));
  renumber(plan);
}

std::vector<FuId> receivers_of_arcs(const Cdfg& g, const std::vector<ChannelEvent>& events) {
  std::set<FuId::underlying> set;
  for (const auto& e : events)
    for (ArcId aid : e.arcs)
      if (g.node(g.arc(aid).dst).fu.valid()) set.insert(g.node(g.arc(aid).dst).fu.value());
  std::vector<FuId> out;
  for (auto v : set) out.push_back(FuId(v));
  return out;
}

// First node of each (FU, block) repetition group — the head of the
// receiving controller's cycle.
bool is_first_of_cycle(const Cdfg& g, NodeId n) {
  FuId fu = g.node(n).fu;
  if (!fu.valid()) return false;
  for (NodeId m : g.fu_order(fu)) {
    if (g.node(m).block == g.node(n).block) return m == n;
  }
  return false;
}

}  // namespace

std::optional<std::int64_t> harness_period(const Cdfg& g, const DelayModel& delays) {
  TokenSimOptions o = timing_harness_options();
  o.randomize_delays = false;
  const TokenSimResult r = TokenSimModel(g, delays).run({}, o);
  if (!r.completed) return std::nullopt;
  return r.finish_time;
}

bool try_multiplex(const Cdfg& g, ChannelPlan& plan, std::size_t a, std::size_t b) {
  if (a == b || a >= plan.channels().size() || b >= plan.channels().size()) return false;
  Channel& ca = plan.channels()[a];
  Channel& cb = plan.channels()[b];
  if (!can_multiplex(g, ca, cb)) return false;
  ca.events = merged_events(g, ca, cb);
  erase_channel(plan, b);
  return true;
}

int form_multiway(const Cdfg& g, ChannelPlan& plan, NodeId source) {
  std::vector<std::size_t> group;
  for (std::size_t i = 0; i < plan.channels().size(); ++i) {
    const Channel& c = plan.channels()[i];
    if (c.involves_environment() || c.events.size() != 1) continue;
    if (c.events.front().source == source) group.push_back(i);
  }
  if (group.size() < 2) return 0;

  ChannelEvent merged{source, {}};
  for (std::size_t i : group) {
    const auto& arcs = plan.channels()[i].events.front().arcs;
    merged.arcs.insert(merged.arcs.end(), arcs.begin(), arcs.end());
  }
  Channel candidate = plan.channels()[group.front()];
  candidate.events = {merged};
  candidate.receivers = receivers_of_arcs(g, candidate.events);
  if (!channel_order_consistent(g, candidate)) return 0;

  plan.channels()[group.front()] = std::move(candidate);
  // Erase back-to-front so indices stay valid.
  for (auto it = group.rbegin(); it != group.rend() && *it != group.front(); ++it)
    erase_channel(plan, *it);
  renumber(plan);
  return static_cast<int>(group.size()) - 1;
}

bool try_symmetrize(Cdfg& g, ChannelPlan& plan, std::size_t big, std::size_t small,
                    TransformResult* stats) {
  if (big == small || big >= plan.channels().size() || small >= plan.channels().size())
    return false;
  Channel& cb = plan.channels()[big];
  Channel& cs = plan.channels()[small];
  if (cb.involves_environment() || cs.involves_environment()) return false;
  if (cb.src_fu != cs.src_fu || cs.events.size() != 1) return false;

  // The small channel's receivers must be a strict subset of the big one's.
  std::set<FuId::underlying> rb, rs;
  for (FuId f : cb.receivers) rb.insert(f.value());
  for (FuId f : cs.receivers) rs.insert(f.value());
  if (rs.size() >= rb.size() || !std::includes(rb.begin(), rb.end(), rs.begin(), rs.end()))
    return false;

  NodeId source = cs.events.front().source;
  std::vector<ArcId> added;
  Channel original = cs;

  for (auto fv : rb) {
    if (rs.count(fv)) continue;
    FuId fu{fv};
    // Safe addition: only arcs already implied by the existing constraints
    // may be introduced.  Try each node of the missing FU, nearest offset
    // first.
    bool covered = false;
    for (int offset : {0, 1}) {
      for (NodeId d : g.fu_order(fu)) {
        if (!g.node(d).alive || d == source) continue;
        if (g.find_arc(source, d, offset == 1)) continue;  // already constrained
        if (!is_implied(g, source, d, offset)) continue;
        ArcId aid = g.add_arc(source, d, ArcRole::kControl, offset == 1);
        g.arc(aid).tag = "GT5.3";
        added.push_back(aid);
        cs.events.front().arcs.push_back(aid);
        covered = true;
        break;
      }
      if (covered) break;
    }
    if (!covered) {
      for (ArcId aid : added) g.remove_arc(aid);
      plan.channels()[small] = std::move(original);
      return false;
    }
  }

  cs.receivers = receivers_of_arcs(g, cs.events);
  if (!try_multiplex(g, plan, big, small)) {
    for (ArcId aid : added) g.remove_arc(aid);
    plan.channels()[small] = std::move(original);
    return false;
  }
  if (stats) {
    stats->arcs_added += static_cast<int>(added.size());
    stats->note("GT5.3 symmetrized " + g.node(source).label() + " (+" +
                std::to_string(added.size()) + " safe arcs)");
    // The channel merge itself is counted by the driver; the record carries
    // the delta so the provenance ledger reconciles per decision.
    stats->decide("gt5", "channels_symmetrized")
        .added(static_cast<int>(added.size()))
        .merged_channels()
        .field("source", g.node(source).label())
        .field("safe_arcs", static_cast<std::int64_t>(added.size()));
  }
  return true;
}

bool try_concurrency_reduction(Cdfg& g, ChannelPlan& plan, ArcId direct, std::int64_t before,
                               const Gt5Options& opts, TransformResult* stats) {
  // A copy: add_arc below may reallocate the arc storage.
  const Arc d = g.arc(direct);
  if (!d.alive) return false;
  NodeId a = d.src, c = d.dst;
  if (g.node(a).fu == g.node(c).fu) return false;

  // The direct channel must carry only this arc, otherwise removing the
  // arc does not eliminate a wire.
  std::size_t direct_idx = plan.channels().size();
  for (std::size_t i = 0; i < plan.channels().size(); ++i) {
    const Channel& ch = plan.channels()[i];
    if (ch.events.size() == 1 && ch.events.front().arcs.size() == 1 &&
        ch.events.front().arcs.front() == direct)
      direct_idx = i;
  }
  if (direct_idx == plan.channels().size()) return false;

  for (ArcId mid : g.out_arcs(a)) {
    if (mid == direct) continue;
    const Arc& ab = g.arc(mid);
    NodeId b = ab.dst;
    if (g.node(b).fu == g.node(a).fu || g.node(b).fu == g.node(c).fu) continue;
    int new_offset = d.offset() - ab.offset();
    if (new_offset < 0) continue;
    if (g.find_arc(b, c, new_offset == 1)) continue;

    ArcId bc = g.add_arc(b, c, ArcRole::kControl, new_offset == 1);
    g.arc(bc).tag = "GT5.2";
    g.arc(direct).alive = false;

    const std::optional<std::int64_t> after = harness_period(g, opts.delays);
    bool ok = after && *after - before <= opts.max_period_increase;
    if (ok) {
      // The new arc becomes a candidate channel; it must merge onto an
      // existing channel from b's FU or the reroute gains nothing.
      Channel cand;
      cand.src_fu = g.node(b).fu;
      cand.receivers = {g.node(c).fu};
      cand.events = {ChannelEvent{b, {bc}}};
      std::sort(cand.receivers.begin(), cand.receivers.end());
      std::size_t host = plan.channels().size();
      for (std::size_t i = 0; i < plan.channels().size(); ++i) {
        if (i == direct_idx) continue;
        if (can_multiplex(g, plan.channels()[i], cand)) {
          host = i;
          break;
        }
      }
      if (host < plan.channels().size()) {
        Channel& hc = plan.channels()[host];
        hc.events = merged_events(g, hc, cand);
        bool controller_channel = !plan.channels()[direct_idx].involves_environment();
        erase_channel(plan, direct_idx);
        if (stats) {
          ++stats->arcs_added;
          ++stats->arcs_removed;
          if (controller_channel) ++stats->channels_merged;
          stats->note("GT5.2 rerouted " + g.node(a).label() + " -> " +
                      g.node(c).label() + " via " + g.node(b).label());
          stats->decide("gt5", "constraint_rerouted")
              .removed()
              .added()
              .merged_channels(controller_channel ? 1 : 0)
              .field("src", g.node(a).label())
              .field("dst", g.node(c).label())
              .field("hub", g.node(b).label());
        }
        return true;
      }
    }
    // Roll back.
    g.remove_arc(bc);
    g.arc(direct).alive = true;
  }
  return false;
}

Gt5Result gt5_channel_elimination(Cdfg& g, const Gt5Options& opts) {
  Gt5Result res;
  res.stats.name = "GT5 channel elimination";
  res.plan = ChannelPlan::derive(g);
  std::size_t initial = res.plan.count_controller_channels();

  // Same-source broadcast (multi-way) formation.
  if (opts.same_source != Gt5Options::SameSource::kNone) {
    for (NodeId n : g.node_ids()) {
      if (opts.same_source == Gt5Options::SameSource::kFirstNodeTargets) {
        bool all_first = true;
        int fanout = 0;
        for (ArcId aid : g.out_arcs(n)) {
          const Arc& a = g.arc(aid);
          if (g.node(a.src).fu == g.node(a.dst).fu) continue;
          if (!g.node(a.src).fu.valid() || !g.node(a.dst).fu.valid())
            continue;  // environment handshakes never join a broadcast
          ++fanout;
          if (!is_first_of_cycle(g, a.dst)) all_first = false;
        }
        if (fanout < 2 || !all_first) continue;
      }
      int eliminated = form_multiway(g, res.plan, n);
      if (eliminated > 0) {
        res.stats.channels_merged += eliminated;
        res.stats.note("multi-way broadcast at " + g.node(n).label());
        res.stats.decide("gt5", "broadcast_formed")
            .merged_channels(eliminated)
            .field("source", g.node(n).label())
            .field("eliminated", static_cast<std::int64_t>(eliminated));
      }
    }
  }

  // Multiplexing and symmetrization to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    if (opts.multiplex) {
      // Controller channels only: environment handshakes are singular (the
      // simulator's completion accounting expects one transition each), and
      // keeping them out makes channels_merged reconcile exactly with the
      // Figure-12 controller-channel count.
      for (std::size_t i = 0; i < res.plan.channels().size() && !changed; ++i)
        for (std::size_t j = i + 1; j < res.plan.channels().size() && !changed; ++j)
          if (!res.plan.channels()[i].involves_environment() &&
              !res.plan.channels()[j].involves_environment() &&
              try_multiplex(g, res.plan, i, j)) {
            ++res.stats.channels_merged;
            res.stats.note("GT5.1 multiplexed two channels");
            res.stats.decide("gt5", "channels_multiplexed")
                .merged_channels()
                .field("host", describe(res.plan.channels()[i], g));
            changed = true;
          }
    }
    if (!changed && opts.symmetrize) {
      for (std::size_t i = 0; i < res.plan.channels().size() && !changed; ++i)
        for (std::size_t j = 0; j < res.plan.channels().size() && !changed; ++j)
          if (i != j && try_symmetrize(g, res.plan, i, j, &res.stats)) {
            ++res.stats.channels_merged;
            changed = true;
          }
    }
    if (!changed && opts.concurrency_reduction) {
      // A refused trial leaves the live arcs as they were, so one period
      // serves every candidate of this pass.
      if (const auto before = harness_period(g, opts.delays)) {
        for (ArcId aid : g.arc_ids()) {
          if (try_concurrency_reduction(g, res.plan, aid, *before, opts, &res.stats)) {
            changed = true;
            break;
          }
        }
      }
    }
  }

  res.plan.rename_wires(g);
  res.stats.note("controller channels: " + std::to_string(initial) + " -> " +
                 std::to_string(res.plan.count_controller_channels()));
  return res;
}

}  // namespace adc
