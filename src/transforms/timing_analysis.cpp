#include "transforms/timing_analysis.hpp"

#include <algorithm>

#include "cdfg/analysis.hpp"

namespace adc {

namespace {

// True if the node repeats with the loops (is inside a loop block, or is a
// LOOP/ENDLOOP boundary node of one).
bool repeats(const Cdfg& g, NodeId n) {
  const Node& node = g.node(n);
  if (node.kind == NodeKind::kLoop || node.kind == NodeKind::kEndLoop) return true;
  BlockId b = node.block;
  while (b.valid()) {
    if (g.block(b).kind == NodeKind::kLoop) return true;
    b = g.block(b).parent;
  }
  return false;
}

}  // namespace

UnrolledTiming::UnrolledTiming(const Cdfg& g, const DelayModel& delays, int unroll)
    : g_(g), delays_(delays), unroll_(std::max(2, unroll)) {
  compute();
}

DelayRange UnrolledTiming::node_delay(const Node& n) const {
  switch (n.kind) {
    case NodeKind::kOperation:
      return delays_.op_delay(g_.fu(n.fu).cls);
    case NodeKind::kAssign:
      return delays_.move;
    default:
      return delays_.control;
  }
}

void UnrolledTiming::compute() {
  completion_.assign(static_cast<std::size_t>(unroll_),
                     std::vector<std::optional<ArrivalInterval>>(g_.node_capacity()));

  auto topo = forward_topo_order(g_);
  if (!topo) return;  // invalid schedule; leave everything unknown

  // Constraint edges: (src instance, delay applies at dst).  Collected as
  // (src node, offset) per destination.
  struct In {
    NodeId src;
    int offset;
  };
  std::vector<std::vector<In>> ins(g_.node_capacity());
  for (ArcId aid : g_.arc_ids()) {
    const Arc& a = g_.arc(aid);
    ins[a.dst.index()].push_back(In{a.src, a.offset()});
  }
  // Implicit controller sequencing: per-(FU, block) wrap and per-node
  // self-succession, both offset 1.
  for (FuId fu : g_.fu_ids()) {
    std::map<BlockId::underlying, std::pair<NodeId, NodeId>> group;
    for (NodeId n : g_.fu_order(fu)) {
      auto [it, ins2] = group.try_emplace(g_.node(n).block.value(), std::make_pair(n, n));
      if (!ins2) it->second.second = n;
    }
    for (const auto& [block, fl] : group) {
      (void)block;
      if (fl.first != fl.second) ins[fl.first.index()].push_back(In{fl.second, 1});
    }
  }
  for (BlockId b : g_.block_ids()) {
    const Block& blk = g_.block(b);
    if (blk.kind == NodeKind::kLoop && blk.end.valid())
      ins[blk.root.index()].push_back(In{blk.end, 1});
  }
  for (NodeId n : g_.node_ids())
    if (repeats(g_, n)) ins[n.index()].push_back(In{n, 1});

  for (int copy = 0; copy < unroll_; ++copy) {
    for (NodeId n : *topo) {
      if (copy > 0 && !repeats(g_, n)) continue;  // single-shot nodes: copy 0 only
      DelayRange d = node_delay(g_.node(n));
      ArrivalInterval out{d.min, d.max};  // fire at 0 if unconstrained
      for (const In& in : ins[n.index()]) {
        int src_copy = repeats(g_, in.src) ? copy - in.offset : 0;
        if (src_copy < 0) continue;  // pre-enabled for the first iteration
        if (!repeats(g_, in.src) && copy > 0 && in.offset == 0 &&
            g_.node(in.src).kind != NodeKind::kStart) {
          // A non-repeating source constrains only the first copy directly;
          // e.g. START -> LOOP.  (Conservatively ignored for later copies.)
          continue;
        }
        auto src = completion_[static_cast<std::size_t>(src_copy)][in.src.index()];
        if (!src) continue;
        out.earliest = std::max(out.earliest, src->earliest + d.min);
        out.latest = std::max(out.latest, src->latest + d.max);
      }
      completion_[static_cast<std::size_t>(copy)][n.index()] = out;
    }
  }
}

std::optional<ArrivalInterval> UnrolledTiming::completion(NodeId n, int copy) const {
  if (copy < 0 || copy >= unroll_) return std::nullopt;
  return completion_[static_cast<std::size_t>(copy)][n.index()];
}

}  // namespace adc
