#include "sim/token_sim.hpp"

#include <algorithm>
#include <optional>
#include <queue>
#include <random>
#include <set>
#include <stdexcept>

#include "cdfg/analysis.hpp"

namespace adc {

void execute_statement(const RtlStatement& s, std::map<std::string, std::int64_t>& regs) {
  auto value = [&regs](const Operand& o) {
    return o.eval(o.is_reg() ? regs[o.reg] : 0);
  };
  const std::int64_t l = value(s.lhs);
  const std::int64_t r = s.rhs ? value(*s.rhs) : 0;
  regs[s.dest] = alu_compute(s.op, l, r);
}

namespace {

// An edge in the simulation graph: either a real constraint arc or one of
// the implicit controller wrap-around constraints.
struct SimEdge {
  NodeId src;
  NodeId dst;
  int tokens = 0;
  bool inter_controller = false;  // subject to the single-wire discipline
  bool loop_body = false;         // out of a LOOP root, into its body
  bool loop_exit = false;         // out of a LOOP root, elsewhere
  // Into a LOOP root from outside the loop: consumed only when the loop
  // (re-)activates, not on every iteration — the controller samples its
  // environment request only in the start state.
  bool loop_entry = false;
};

struct Event {
  std::int64_t time;
  std::int64_t seq;
  NodeId node;
  bool operator>(const Event& o) const {
    return time != o.time ? time > o.time : seq > o.seq;
  }
};

class TokenSim {
 public:
  TokenSim(const Cdfg& g, const std::map<std::string, std::int64_t>& init,
           const TokenSimOptions& opts)
      : g_(g), opts_(opts), rng_(opts.seed) {
    result_.registers = init;
    build_edges();
  }

  TokenSimResult run() {
    // START has no incoming edges; everything begins there.
    for (NodeId n : g_.node_ids()) try_fire(n, 0);

    // Keep draining after END fires: with GT1 loop parallelism the final
    // iteration's stragglers may still be in flight when the loop exits
    // (the paper's stated timing assumption), and their register updates
    // must land before the result snapshot.
    while (!events_.empty()) {
      Event ev = events_.top();
      events_.pop();
      if (result_.firings > opts_.max_firings) {
        result_.error = "runaway simulation (firing budget exhausted)";
        return result_;
      }
      complete(ev.node, ev.time);
      if (!result_.error.empty()) return result_;
    }
    if (!result_.completed && result_.error.empty())
      result_.error = deadlock_report();
    return result_;
  }

 private:
  // The block rooted at n, if n is a LOOP/IF root.
  std::optional<BlockId> rooted_block(NodeId n) const {
    for (BlockId b : g_.block_ids())
      if (g_.block(b).root == n) return b;
    return std::nullopt;
  }

  void build_edges() {
    for (ArcId aid : g_.arc_ids()) {
      const Arc& a = g_.arc(aid);
      SimEdge e;
      e.src = a.src;
      e.dst = a.dst;
      e.tokens = a.backward ? 1 : 0;  // backward arcs pre-enabled (GT1)
      const Node& sn = g_.node(a.src);
      const Node& dn = g_.node(a.dst);
      e.inter_controller = sn.fu != dn.fu;
      if (sn.kind == NodeKind::kLoop) {
        auto b = rooted_block(a.src);
        bool into_body = b && in_block(g_, a.dst, *b);
        e.loop_body = into_body;
        e.loop_exit = !into_body;
      }
      if (dn.kind == NodeKind::kLoop) {
        auto b = rooted_block(a.dst);
        bool from_inside = b && (in_block(g_, a.src, *b) || g_.block(*b).end == a.src);
        e.loop_entry = !from_inside;
      }
      add_edge(e);
    }
    // Implicit wrap-around constraints: within each (FU, block) group the
    // controller cycles last -> first, and each loop's root refires after
    // its end node.  Pre-loaded with one token for the first repetition.
    for (FuId fu : g_.fu_ids()) {
      std::map<BlockId::underlying, std::pair<NodeId, NodeId>> group;
      for (NodeId n : g_.fu_order(fu)) {
        auto [it, ins] = group.try_emplace(g_.node(n).block.value(), std::make_pair(n, n));
        if (!ins) it->second.second = n;
      }
      for (const auto& [block, fl] : group) {
        (void)block;
        if (fl.first == fl.second) continue;
        add_edge(SimEdge{fl.second, fl.first, 1, false, false, false});
      }
    }
    for (BlockId b : g_.block_ids()) {
      const Block& blk = g_.block(b);
      if (blk.kind != NodeKind::kLoop || !blk.end.valid()) continue;
      add_edge(SimEdge{blk.end, blk.root, 1, false, false, false});
    }
  }

  void add_edge(SimEdge e) {
    std::size_t idx = edges_.size();
    edges_.push_back(e);
    out_edges_.resize(g_.node_capacity());
    in_edges_.resize(g_.node_capacity());
    out_edges_[e.src.index()].push_back(idx);
    in_edges_[e.dst.index()].push_back(idx);
  }

  std::int64_t draw_delay(const Node& n) {
    DelayRange r;
    switch (n.kind) {
      case NodeKind::kOperation:
        r = opts_.delays.op_delay(g_.fu(n.fu).cls);
        break;
      case NodeKind::kAssign:
        r = opts_.delays.move;
        break;
      default:
        r = opts_.delays.control;
        break;
    }
    if (!opts_.randomize_delays || r.min == r.max)
      return opts_.all_min_delays ? r.min : r.max;
    std::uniform_int_distribution<std::int64_t> dist(r.min, r.max);
    return dist(rng_);
  }

  // The innermost loop block enclosing a node (or its own block for LOOP /
  // ENDLOOP boundary nodes of a loop).
  std::optional<BlockId::underlying> loop_of(NodeId n) const {
    const Node& node = g_.node(n);
    if (node.kind == NodeKind::kLoop || node.kind == NodeKind::kEndLoop) {
      for (BlockId b : g_.block_ids())
        if (g_.block(b).root == n || g_.block(b).end == n) return b.value();
    }
    BlockId b = node.block;
    while (b.valid()) {
      if (g_.block(b).kind == NodeKind::kLoop) return b.value();
      b = g_.block(b).parent;
    }
    return std::nullopt;
  }

  void try_fire(NodeId n, std::int64_t now) {
    if (busy_.count(n.value())) return;
    if (!g_.node(n).alive) return;
    // A node with no incoming constraints (START) fires exactly once.
    if (in_edges_[n.index()].empty() && fired_source_.count(n.value())) return;
    // An already-active loop iterates on its internal constraints only; the
    // environment/entry tokens are consumed once per activation.
    bool active_loop = g_.node(n).kind == NodeKind::kLoop &&
                       loop_active_.count(n.value()) != 0;
    auto needed = [&](const SimEdge& e) { return !(active_loop && e.loop_entry); };
    for (std::size_t e : in_edges_[n.index()])
      if (needed(edges_[e]) && edges_[e].tokens == 0) return;
    for (std::size_t e : in_edges_[n.index()])
      if (needed(edges_[e])) --edges_[e].tokens;
    if (g_.node(n).kind == NodeKind::kLoop) loop_active_.insert(n.value());
    if (in_edges_[n.index()].empty()) fired_source_.insert(n.value());
    busy_.insert(n.value());
    ++result_.firings;

    // Sample inputs now (operands are latched into the datapath when the
    // operation starts); writes land at completion.
    const Node& node = g_.node(n);
    Pending p;
    p.firing_index = fire_count_[n.value()]++;
    p.active = blocks_active(n);
    if (node.kind == NodeKind::kOperation || node.kind == NodeKind::kAssign) {
      for (const auto& s : node.stmts) {
        std::map<std::string, std::int64_t> scratch = result_.registers;
        execute_statement(s, scratch);
        p.writes.emplace_back(s.dest, scratch[s.dest]);
      }
    } else if (node.kind == NodeKind::kLoop || node.kind == NodeKind::kIf) {
      p.cond = result_.registers[node.cond_reg];
    }
    pending_[n.value()] = std::move(p);

    if (opts_.record_times) result_.fire_times[n.value()].push_back(now);

    // Iteration-overlap metric: the spread of firing indices among
    // concurrently busy nodes of the same loop.
    if (auto ctx = loop_of(n)) {
      int lo = pending_[n.value()].firing_index, hi = lo;
      for (auto bn : busy_) {
        NodeId other{bn};
        if (loop_of(other) != ctx) continue;
        auto it = pending_.find(bn);
        if (it == pending_.end()) continue;
        lo = std::min(lo, it->second.firing_index);
        hi = std::max(hi, it->second.firing_index);
      }
      result_.max_overlap = std::max(result_.max_overlap, hi - lo + 1);
    }

    events_.push(Event{now + draw_delay(node), seq_++, n});
  }

  // True when every enclosing IF block is currently active.
  bool blocks_active(NodeId n) const {
    BlockId b = g_.node(n).block;
    while (b.valid()) {
      const Block& blk = g_.block(b);
      if (blk.kind == NodeKind::kIf && !if_active_.count(b.value())) return false;
      b = blk.parent;
    }
    return true;
  }

  void produce(std::size_t eidx, std::int64_t now) {
    SimEdge& e = edges_[eidx];
    ++e.tokens;
    if (opts_.check_wire_discipline && e.inter_controller && e.tokens > 1) {
      result_.error = "wire discipline violated: two transitions queued on " +
                      g_.node(e.src).label() + " -> " + g_.node(e.dst).label();
      return;
    }
    try_fire(e.dst, now);
  }

  void complete(NodeId n, std::int64_t now) {
    busy_.erase(n.value());
    const Node& node = g_.node(n);
    Pending p = pending_[n.value()];
    if (opts_.record_times) result_.completion_times[n.value()].push_back(now);

    bool loop_continue = false;
    switch (node.kind) {
      case NodeKind::kOperation:
      case NodeKind::kAssign:
        if (p.active)
          for (const auto& [reg, value] : p.writes) result_.registers[reg] = value;
        break;
      case NodeKind::kLoop: {
        if (opts_.forced_loop_iterations >= 0)
          loop_continue = p.firing_index < opts_.forced_loop_iterations;
        else
          loop_continue = p.active && p.cond != 0;
        if (!loop_continue) loop_active_.erase(n.value());
        if (loop_continue) ++result_.loop_iterations;
        break;
      }
      case NodeKind::kIf: {
        auto b = rooted_block(n);
        bool taken = opts_.forced_loop_iterations >= 0 ? p.active : (p.active && p.cond != 0);
        if (taken)
          if_active_.insert(b->value());
        else
          if_active_.erase(b->value());
        break;
      }
      case NodeKind::kEnd:
        result_.completed = true;
        result_.finish_time = now;
        break;
      default:
        break;
    }

    for (std::size_t eidx : out_edges_[n.index()]) {
      const SimEdge& e = edges_[eidx];
      if (node.kind == NodeKind::kLoop) {
        // Body arcs fire on continue, exit arcs on termination.  The
        // implicit wrap edges (not body, not exit) re-enable the root and
        // are produced on continue only; on exit the controller leaves the
        // loop for good.
        bool is_wrap = !e.loop_body && !e.loop_exit;
        if (loop_continue && e.loop_exit) continue;
        if (!loop_continue && (e.loop_body || is_wrap)) continue;
      }
      produce(eidx, now);
      if (!result_.error.empty()) return;
    }
    // The node itself may be immediately re-enabled (next iteration).
    try_fire(n, now);
  }

  std::string deadlock_report() const {
    // List nodes that hold some but not all of their input tokens — those
    // are the ones genuinely stuck (fully starved nodes are quiescent).
    std::string msg = "deadlock: END never fired; waiting nodes:";
    for (NodeId n : g_.node_ids()) {
      int have = 0, need = 0;
      for (std::size_t e : in_edges_[n.index()]) {
        ++need;
        if (edges_[e].tokens > 0) ++have;
      }
      if (need > 0 && have > 0 && have < need)
        msg += " [" + g_.node(n).label() + " " + std::to_string(have) + "/" +
               std::to_string(need) + "]";
    }
    return msg;
  }

  const Cdfg& g_;
  TokenSimOptions opts_;
  std::mt19937_64 rng_;
  TokenSimResult result_;
  std::vector<SimEdge> edges_;
  std::vector<std::vector<std::size_t>> in_edges_, out_edges_;
  struct Pending {
    std::vector<std::pair<std::string, std::int64_t>> writes;
    std::int64_t cond = 0;
    int firing_index = 0;
    bool active = true;
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::set<NodeId::underlying> busy_;
  std::map<NodeId::underlying, Pending> pending_;
  std::map<NodeId::underlying, int> fire_count_;
  std::set<BlockId::underlying> if_active_;
  std::set<NodeId::underlying> fired_source_;
  std::set<NodeId::underlying> loop_active_;
  std::int64_t seq_ = 0;
};

// Sequential golden model: nodes in creation-id order are the original
// program order (the builder emits them that way).
struct Sequential {
  const Cdfg& g;
  std::map<std::string, std::int64_t>& regs;
  std::int64_t steps = 0;
  std::int64_t max_steps;

  void run_scope(BlockId scope) {
    std::vector<NodeId> members;
    for (NodeId n : g.node_ids())
      if (g.node(n).block == scope) members.push_back(n);
    std::sort(members.begin(), members.end());
    run_members(members);
  }

  void run_members(const std::vector<NodeId>& members) {
    for (NodeId n : members) {
      const Node& node = g.node(n);
      switch (node.kind) {
        case NodeKind::kOperation:
        case NodeKind::kAssign:
          for (const auto& s : node.stmts) {
            if (++steps > max_steps) throw std::runtime_error("sequential model ran away");
            execute_statement(s, regs);
          }
          break;
        case NodeKind::kLoop: {
          BlockId b = owning_block(n);
          while (regs[node.cond_reg] != 0) {
            if (++steps > max_steps) throw std::runtime_error("sequential model ran away");
            run_scope(b);
          }
          break;
        }
        case NodeKind::kIf: {
          BlockId b = owning_block(n);
          if (regs[node.cond_reg] != 0) run_scope(b);
          break;
        }
        default:
          break;  // START/END/ENDLOOP/ENDIF: no effect
      }
    }
  }

  BlockId owning_block(NodeId root) const {
    for (BlockId b : g.block_ids())
      if (g.block(b).root == root) return b;
    throw std::logic_error("no block rooted at node");
  }
};

}  // namespace

TokenSimResult run_token_sim(const Cdfg& g,
                             const std::map<std::string, std::int64_t>& initial_registers,
                             const TokenSimOptions& opts) {
  return TokenSim(g, initial_registers, opts).run();
}

std::map<std::string, std::int64_t> run_sequential(
    const Cdfg& g, const std::map<std::string, std::int64_t>& initial_registers,
    std::int64_t max_steps) {
  std::map<std::string, std::int64_t> regs = initial_registers;
  Sequential seq{g, regs, 0, max_steps};
  seq.run_scope(BlockId::invalid());
  return regs;
}

}  // namespace adc
