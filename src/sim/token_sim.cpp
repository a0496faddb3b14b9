#include "sim/token_sim.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <queue>
#include <random>
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

struct TokenSimModel::Compiled {
  Compiled(const Cdfg& g, const DelayModel& delays);

  struct Edge {
    std::uint32_t src = 0, dst = 0;  // node indices
    int tokens = 0;                  // pre-loaded tokens
    bool inter_controller = false;   // subject to the single-wire discipline
    bool loop_body = false;          // out of a LOOP root, into its body
    bool loop_exit = false;          // out of a LOOP root, elsewhere
    // Into a LOOP root from outside the loop: consumed only when the loop
    // (re-)activates, not on every iteration — the controller samples its
    // environment request only in the start state.
    bool loop_entry = false;
  };
  // One RTL statement with its register slots (-1: a constant operand).
  struct Stmt {
    RtlStatement rtl;
    int lhs_slot = -1, rhs_slot = -1, dest_slot = -1;
  };
  struct NodeInfo {
    NodeKind kind = NodeKind::kOperation;
    bool alive = false;
    DelayRange delay;
    int cond_slot = -1;              // LOOP/IF: the condition register
    int loop = -1;                   // innermost enclosing loop block, -1: none
    int rooted_block = -1;           // the block a LOOP/IF node roots
    std::uint32_t if_begin = 0, if_end = 0;      // enclosing IF blocks
    std::uint32_t stmt_begin = 0, stmt_end = 0;  // statements
    std::uint32_t in_begin = 0, in_end = 0;      // incoming edge indices
    std::uint32_t out_begin = 0, out_end = 0;    // outgoing edge indices
  };

  std::vector<Edge> edges;
  std::vector<NodeInfo> nodes;            // by node index, dead ones included
  std::vector<std::uint32_t> live_nodes;  // node_ids() order
  std::vector<std::uint32_t> in_edges, out_edges, if_chain;
  std::vector<Stmt> stmts;
  std::vector<std::string> registers;     // slot -> name, sorted
  std::size_t block_count = 0;

  // The register's slot, or -1 when the graph never names it.
  int slot(const std::string& reg) const;
  // The node's label as Node::label() spells it, for diagnostics.
  std::string label(std::uint32_t node) const;
};

namespace {

using Model = TokenSimModel::Compiled;

// The innermost loop block enclosing a node (or its own block for LOOP /
// ENDLOOP boundary nodes of a loop); -1 outside every loop.
int loop_of(const Cdfg& g, NodeId n) {
  const Node& node = g.node(n);
  if (node.kind == NodeKind::kLoop || node.kind == NodeKind::kEndLoop) {
    for (BlockId b : g.block_ids())
      if (g.block(b).root == n || g.block(b).end == n) return static_cast<int>(b.value());
  }
  BlockId b = node.block;
  while (b.valid()) {
    if (g.block(b).kind == NodeKind::kLoop) return static_cast<int>(b.value());
    b = g.block(b).parent;
  }
  return -1;
}

// The block rooted at n, if n is a LOOP/IF root.
std::optional<BlockId> rooted_block(const Cdfg& g, NodeId n) {
  for (BlockId b : g.block_ids())
    if (g.block(b).root == n) return b;
  return std::nullopt;
}

std::vector<Model::Edge> build_edges(const Cdfg& g) {
  std::vector<Model::Edge> edges;
  for (ArcId aid : g.arc_ids()) {
    const Arc& a = g.arc(aid);
    Model::Edge e;
    e.src = a.src.value();
    e.dst = a.dst.value();
    e.tokens = a.backward ? 1 : 0;  // backward arcs pre-enabled (GT1)
    const Node& sn = g.node(a.src);
    const Node& dn = g.node(a.dst);
    e.inter_controller = sn.fu != dn.fu;
    if (sn.kind == NodeKind::kLoop) {
      auto b = rooted_block(g, a.src);
      bool into_body = b && in_block(g, a.dst, *b);
      e.loop_body = into_body;
      e.loop_exit = !into_body;
    }
    if (dn.kind == NodeKind::kLoop) {
      auto b = rooted_block(g, a.dst);
      bool from_inside = b && (in_block(g, a.src, *b) || g.block(*b).end == a.src);
      e.loop_entry = !from_inside;
    }
    edges.push_back(e);
  }
  // Implicit wrap-around constraints: within each (FU, block) group the
  // controller cycles last -> first, and each loop's root refires after
  // its end node.  Pre-loaded with one token for the first repetition.
  auto wrap = [&edges](NodeId from, NodeId to) {
    Model::Edge e;
    e.src = from.value();
    e.dst = to.value();
    e.tokens = 1;
    edges.push_back(e);
  };
  for (FuId fu : g.fu_ids()) {
    std::map<BlockId::underlying, std::pair<NodeId, NodeId>> group;
    for (NodeId n : g.fu_order(fu)) {
      auto [it, ins] = group.try_emplace(g.node(n).block.value(), std::make_pair(n, n));
      if (!ins) it->second.second = n;
    }
    for (const auto& [block, fl] : group) {
      (void)block;
      if (fl.first != fl.second) wrap(fl.second, fl.first);
    }
  }
  for (BlockId b : g.block_ids()) {
    const Block& blk = g.block(b);
    if (blk.kind == NodeKind::kLoop && blk.end.valid()) wrap(blk.end, blk.root);
  }
  return edges;
}

struct Event {
  std::int64_t time;
  std::int64_t seq;
  std::uint32_t node;
  bool operator>(const Event& o) const {
    return time != o.time ? time > o.time : seq > o.seq;
  }
};

// A node's run state.  A busy node cannot fire again before it completes,
// so each holds one pending firing: its IF activity, condition value and
// (in TokenRun::writes_) statement results; its index is `firings - 1`.
struct NodeState {
  bool busy = false;
  bool loop_active = false;
  bool active = true;
  int firings = 0;
  std::int64_t cond = 0;
};

class TokenRun {
 public:
  TokenRun(const Model& m, const std::map<std::string, std::int64_t>& init,
           const TokenSimOptions& opts, TokenSimWatch* watch)
      : m_(m), opts_(opts), watch_(watch), harness_(opts.forced_loop_iterations >= 0),
        rng_(opts.seed) {
    tokens_.reserve(m.edges.size());
    for (const auto& e : m.edges) tokens_.push_back(e.tokens);
    state_.resize(m.nodes.size());
    if_active_.assign(m.block_count, 0);
    writes_.assign(m.stmts.size(), 0);
    regs_.assign(m.registers.size(), 0);
    present_.assign(m.registers.size(), 0);
    for (const auto& [name, value] : init) {
      if (const int s = m.slot(name); s >= 0) {
        regs_[static_cast<std::size_t>(s)] = value;
        present_[static_cast<std::size_t>(s)] = 1;
      }
    }
    result_.registers = init;
  }

  TokenSimResult run() {
    // START has no incoming edges; everything begins there.
    for (std::uint32_t n : m_.live_nodes) {
      try_fire(n, 0);
      if (halted()) return finish();
    }

    // Keep draining after END fires: with GT1 loop parallelism the final
    // iteration's stragglers may still be in flight when the loop exits
    // (the paper's stated timing assumption), and their register updates
    // must land before the result snapshot.
    while (!events_.empty()) {
      Event ev = events_.top();
      events_.pop();
      if (result_.firings > opts_.max_firings) {
        result_.error = "runaway simulation (firing budget exhausted)";
        return finish();
      }
      complete(ev.node, ev.time);
      if (halted()) return finish();
    }
    if (!result_.completed) result_.error = deadlock_report();
    return finish();
  }

 private:
  bool halted() const { return result_.stopped || !result_.error.empty(); }

  TokenSimResult finish() {
    for (std::size_t s = 0; s < regs_.size(); ++s)
      if (present_[s]) result_.registers[m_.registers[s]] = regs_[s];
    return std::move(result_);
  }

  std::int64_t draw_delay(const DelayRange& r) {
    if (!opts_.randomize_delays || r.min == r.max)
      return opts_.all_min_delays ? r.min : r.max;
    std::uniform_int_distribution<std::int64_t> dist(r.min, r.max);
    return dist(rng_);
  }

  std::int64_t operand(const Operand& o, int slot) const {
    return o.eval(slot >= 0 ? regs_[static_cast<std::size_t>(slot)] : 0);
  }

  void try_fire(std::uint32_t n, std::int64_t now) {
    const Model::NodeInfo& node = m_.nodes[n];
    NodeState& st = state_[n];
    if (st.busy || !node.alive) return;
    // A node with no incoming constraints (START) fires exactly once.
    const bool source = node.in_begin == node.in_end;
    if (source && st.firings > 0) return;
    // An already-active loop iterates on its internal constraints only; the
    // environment/entry tokens are consumed once per activation.
    const bool is_loop = node.kind == NodeKind::kLoop;
    const bool active_loop = is_loop && st.loop_active;
    auto needed = [&](std::uint32_t e) { return !(active_loop && m_.edges[e].loop_entry); };
    for (std::uint32_t i = node.in_begin; i < node.in_end; ++i) {
      const std::uint32_t e = m_.in_edges[i];
      if (needed(e) && tokens_[e] == 0) return;
    }
    for (std::uint32_t i = node.in_begin; i < node.in_end; ++i) {
      const std::uint32_t e = m_.in_edges[i];
      if (needed(e)) --tokens_[e];
    }
    if (is_loop) st.loop_active = true;
    st.busy = true;
    busy_list_.push_back(n);
    ++result_.firings;

    ++st.firings;
    st.active = blocks_active(node);
    // The timing harness is data-independent and leaves the datapath alone.
    if (!harness_) sample_inputs(node, st);

    if (watch_ && !watch_->on_fire(NodeId{n}, now)) {
      result_.stopped = true;
      return;
    }

    // Iteration-overlap metric: the spread of firing indices among
    // concurrently busy nodes of the same loop.
    if (node.loop >= 0) {
      int lo = st.firings, hi = lo;
      for (std::uint32_t other : busy_list_) {
        if (m_.nodes[other].loop != node.loop) continue;
        lo = std::min(lo, state_[other].firings);
        hi = std::max(hi, state_[other].firings);
      }
      result_.max_overlap = std::max(result_.max_overlap, hi - lo + 1);
    }

    events_.push(Event{now + draw_delay(node.delay), seq_++, n});
  }

  // Operands are latched into the datapath when the operation starts;
  // writes land at completion.  LOOP/IF nodes sample their condition.
  void sample_inputs(const Model::NodeInfo& node, NodeState& st) {
    if (node.kind == NodeKind::kOperation || node.kind == NodeKind::kAssign) {
      for (std::uint32_t i = node.stmt_begin; i < node.stmt_end; ++i) {
        const Model::Stmt& s = m_.stmts[i];
        const std::int64_t l = operand(s.rtl.lhs, s.lhs_slot);
        const std::int64_t r = s.rtl.rhs ? operand(*s.rtl.rhs, s.rhs_slot) : 0;
        writes_[i] = alu_compute(s.rtl.op, l, r);
      }
    } else if (node.kind == NodeKind::kLoop || node.kind == NodeKind::kIf) {
      const auto c = static_cast<std::size_t>(node.cond_slot);
      st.cond = regs_[c];
      present_[c] = 1;
    }
  }

  // True when every enclosing IF block is currently active.
  bool blocks_active(const Model::NodeInfo& node) const {
    for (std::uint32_t i = node.if_begin; i < node.if_end; ++i)
      if (!if_active_[m_.if_chain[i]]) return false;
    return true;
  }

  void produce(std::uint32_t e, std::int64_t now) {
    ++tokens_[e];
    const Model::Edge& edge = m_.edges[e];
    if (opts_.check_wire_discipline && edge.inter_controller && tokens_[e] > 1) {
      result_.error = "wire discipline violated: two transitions queued on " +
                      m_.label(edge.src) + " -> " + m_.label(edge.dst);
      return;
    }
    try_fire(edge.dst, now);
  }

  void complete(std::uint32_t n, std::int64_t now) {
    NodeState& st = state_[n];
    st.busy = false;
    busy_list_.erase(std::find(busy_list_.begin(), busy_list_.end(), n));
    const Model::NodeInfo& node = m_.nodes[n];
    if (watch_ && !watch_->on_complete(NodeId{n}, now)) {
      result_.stopped = true;
      return;
    }

    bool loop_continue = false;
    switch (node.kind) {
      case NodeKind::kOperation:
      case NodeKind::kAssign:
        if (st.active && !harness_)
          for (std::uint32_t i = node.stmt_begin; i < node.stmt_end; ++i) {
            const auto d = static_cast<std::size_t>(m_.stmts[i].dest_slot);
            regs_[d] = writes_[i];
            present_[d] = 1;
          }
        break;
      case NodeKind::kLoop: {
        if (harness_)
          loop_continue = st.firings - 1 < opts_.forced_loop_iterations;
        else
          loop_continue = st.active && st.cond != 0;
        if (!loop_continue) st.loop_active = false;
        if (loop_continue) ++result_.loop_iterations;
        break;
      }
      case NodeKind::kIf: {
        const bool taken = harness_ ? st.active : (st.active && st.cond != 0);
        if_active_[static_cast<std::size_t>(node.rooted_block)] = taken;
        break;
      }
      case NodeKind::kEnd:
        result_.completed = true;
        result_.finish_time = now;
        break;
      default:
        break;
    }

    for (std::uint32_t i = node.out_begin; i < node.out_end; ++i) {
      const std::uint32_t e = m_.out_edges[i];
      if (node.kind == NodeKind::kLoop) {
        // Body arcs fire on continue, exit arcs on termination.  The
        // implicit wrap edges (not body, not exit) re-enable the root and
        // are produced on continue only; on exit the controller leaves the
        // loop for good.
        const Model::Edge& edge = m_.edges[e];
        bool is_wrap = !edge.loop_body && !edge.loop_exit;
        if (loop_continue && edge.loop_exit) continue;
        if (!loop_continue && (edge.loop_body || is_wrap)) continue;
      }
      produce(e, now);
      if (halted()) return;
    }
    // The node itself may be immediately re-enabled (next iteration).
    try_fire(n, now);
  }

  std::string deadlock_report() const {
    // List nodes that hold some but not all of their input tokens — those
    // are the ones genuinely stuck (fully starved nodes are quiescent).
    std::string msg = "deadlock: END never fired; waiting nodes:";
    for (std::uint32_t n : m_.live_nodes) {
      const Model::NodeInfo& node = m_.nodes[n];
      int have = 0, need = 0;
      for (std::uint32_t i = node.in_begin; i < node.in_end; ++i) {
        ++need;
        if (tokens_[m_.in_edges[i]] > 0) ++have;
      }
      if (need > 0 && have > 0 && have < need)
        msg += " [" + m_.label(n) + " " + std::to_string(have) + "/" +
               std::to_string(need) + "]";
    }
    return msg;
  }

  const Model& m_;
  const TokenSimOptions& opts_;
  TokenSimWatch* watch_;
  const bool harness_;
  std::mt19937_64 rng_;
  TokenSimResult result_;
  std::vector<int> tokens_;  // per edge
  std::vector<NodeState> state_;
  std::vector<std::uint32_t> busy_list_;
  std::vector<std::int64_t> writes_;  // per statement
  std::vector<char> if_active_;       // per block
  // Per register slot; `present_` marks the registers the result reports.
  std::vector<std::int64_t> regs_;
  std::vector<char> present_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
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

TokenSimModel::Compiled::Compiled(const Cdfg& g, const DelayModel& delays)
    : edges(build_edges(g)), block_count(g.block_ids().size()) {
  for (NodeId id : g.node_ids()) live_nodes.push_back(id.value());

  // Register slots in name order.  A LOOP/IF condition gets a slot even when
  // unnamed: the run reads it like any register.
  for (std::uint32_t n : live_nodes) {
    const Node& node = g.node(NodeId{n});
    if (node.kind == NodeKind::kLoop || node.kind == NodeKind::kIf)
      registers.push_back(node.cond_reg);
    for (const RtlStatement& st : node.stmts) {
      registers.push_back(st.dest);
      if (st.lhs.is_reg()) registers.push_back(st.lhs.reg);
      if (st.rhs && st.rhs->is_reg()) registers.push_back(st.rhs->reg);
    }
  }
  std::sort(registers.begin(), registers.end());
  registers.erase(std::unique(registers.begin(), registers.end()), registers.end());

  const std::size_t count = g.node_capacity();
  nodes.resize(count);
  for (std::uint32_t n : live_nodes) {
    const NodeId id{n};
    const Node& node = g.node(id);
    NodeInfo& info = nodes[n];
    info.kind = node.kind;
    info.alive = true;
    switch (node.kind) {
      case NodeKind::kOperation:
        info.delay = delays.op_delay(g.fu(node.fu).cls);
        break;
      case NodeKind::kAssign:
        info.delay = delays.move;
        break;
      default:
        info.delay = delays.control;
        break;
    }
    if (node.kind == NodeKind::kLoop || node.kind == NodeKind::kIf) {
      info.cond_slot = slot(node.cond_reg);
      if (auto b = rooted_block(g, id)) info.rooted_block = static_cast<int>(b->value());
    }
    info.loop = loop_of(g, id);
    info.if_begin = static_cast<std::uint32_t>(if_chain.size());
    for (BlockId b = node.block; b.valid(); b = g.block(b).parent)
      if (g.block(b).kind == NodeKind::kIf) if_chain.push_back(b.value());
    info.if_end = static_cast<std::uint32_t>(if_chain.size());
    info.stmt_begin = static_cast<std::uint32_t>(stmts.size());
    if (node.kind == NodeKind::kOperation || node.kind == NodeKind::kAssign) {
      for (const RtlStatement& s : node.stmts) {
        Stmt c{s};
        if (s.lhs.is_reg()) c.lhs_slot = slot(s.lhs.reg);
        if (s.rhs && s.rhs->is_reg()) c.rhs_slot = slot(s.rhs->reg);
        c.dest_slot = slot(s.dest);
        stmts.push_back(std::move(c));
      }
    }
    info.stmt_end = static_cast<std::uint32_t>(stmts.size());
  }

  // In/out edge indices per node, in edge order.
  auto index = [&](auto endpoint, std::uint32_t NodeInfo::*begin, std::uint32_t NodeInfo::*end,
                   std::vector<std::uint32_t>& out) {
    std::vector<std::uint32_t> degree(count + 1, 0);
    for (const Edge& e : edges) ++degree[endpoint(e) + 1];
    for (std::size_t n = 0; n < count; ++n) degree[n + 1] += degree[n];
    for (std::size_t n = 0; n < count; ++n) {
      nodes[n].*begin = degree[n];
      nodes[n].*end = degree[n];
    }
    out.resize(edges.size());
    for (std::uint32_t e = 0; e < edges.size(); ++e)
      out[(nodes[endpoint(edges[e])].*end)++] = e;
  };
  index([](const Edge& e) { return e.src; }, &NodeInfo::out_begin, &NodeInfo::out_end,
        out_edges);
  index([](const Edge& e) { return e.dst; }, &NodeInfo::in_begin, &NodeInfo::in_end, in_edges);
}

int TokenSimModel::Compiled::slot(const std::string& reg) const {
  auto it = std::lower_bound(registers.begin(), registers.end(), reg);
  return it != registers.end() && *it == reg ? static_cast<int>(it - registers.begin()) : -1;
}

std::string TokenSimModel::Compiled::label(std::uint32_t n) const {
  const NodeInfo& info = nodes[n];
  if (info.kind != NodeKind::kOperation && info.kind != NodeKind::kAssign)
    return to_string(info.kind);
  std::string out;
  for (std::uint32_t i = info.stmt_begin; i < info.stmt_end; ++i) {
    if (!out.empty()) out += "; ";
    out += stmts[i].rtl.to_string();
  }
  return out;
}

TokenSimModel::TokenSimModel(const Cdfg& g, const DelayModel& delays)
    : compiled_(std::make_unique<const Compiled>(g, delays)) {}

TokenSimModel::~TokenSimModel() = default;

TokenSimResult TokenSimModel::run(const std::map<std::string, std::int64_t>& initial_registers,
                                  const TokenSimOptions& opts, TokenSimWatch* watch) const {
  return TokenRun(*compiled_, initial_registers, opts, watch).run();
}

TokenSimResult run_token_sim(const Cdfg& g,
                             const std::map<std::string, std::int64_t>& initial_registers,
                             const TokenSimOptions& opts) {
  return TokenSimModel(g).run(initial_registers, opts);
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
