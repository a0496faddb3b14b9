#include "extract/extract.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "cdfg/analysis.hpp"
#include "channel/naming.hpp"
#include "extract/builder.hpp"
#include "xbm/validate.hpp"

namespace adc {

namespace detail {

namespace {

std::string sanitize(const std::string& s) {
  std::string out;
  for (char c : s)
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  return out;
}

}  // namespace

ControllerBuilder::ControllerBuilder(const Cdfg& g, const ChannelPlan& plan, FuId fu)
    : g_(g), plan_(plan), fu_(fu), m_(g.fu(fu).name) {
  // Map every carried arc to its (channel, event index).
  for (std::size_t ci = 0; ci < plan.channels().size(); ++ci) {
    const Channel& c = plan.channels()[ci];
    for (std::size_t ei = 0; ei < c.events.size(); ++ei)
      for (ArcId a : c.events[ei].arcs)
        arc_event_[a.value()] = WireEvent{ci, static_cast<int>(ei)};
  }
  // Multi-op datapaths need operation-select wires.
  std::set<RtlOp> ops;
  for (NodeId n : g.fu_order(fu))
    for (const auto& s : g.node(n).stmts)
      if (!s.is_move()) ops.insert(s.op);
  multi_op_ = ops.size() > 1;

  bool env_in = false, env_out = false;
  for (const Channel& c : plan.channels()) {
    if (!c.involves_environment()) continue;
    if (c.src_fu == fu) env_out = true;
    for (FuId r : c.receivers)
      if (r == fu) env_in = true;
  }
  env_rtz_ = env_in && env_out;
}

SignalId ControllerBuilder::intern(const std::string& name, SignalKind kind, SignalRole role,
                                   const SignalBinding& binding) {
  if (auto existing = m_.find_signal(name)) return *existing;
  SignalId id = m_.add_signal(name, kind, role, false);
  bindings_[id.value()] = binding;
  return id;
}

SignalId ControllerBuilder::global_wire(std::size_t channel_idx) {
  auto cached = channel_signal_.find(channel_idx);
  if (cached != channel_signal_.end()) return cached->second;

  const Channel& c = plan_.channels()[channel_idx];
  bool outgoing = c.src_fu == fu_;
  SignalBinding b;
  b.role = c.involves_environment() ? SignalRole::kEnvironment : SignalRole::kGlobalReady;
  b.channel = ChannelId(channel_idx);
  // Distinct channels between the same endpoints need distinct wires.
  std::string name = short_wire_name(g_, c);
  std::string unique = name;
  for (int n = 1; m_.find_signal(unique); ++n) unique = name + "_" + std::to_string(n);
  SignalId id = intern(unique, outgoing ? SignalKind::kOutput : SignalKind::kInput,
                       b.role, b);
  channel_signal_[channel_idx] = id;
  return id;
}

XbmEdge ControllerBuilder::wait_edge(std::size_t channel_idx) {
  bool env = plan_.channels()[channel_idx].involves_environment();
  SignalId s = global_wire(channel_idx);
  return env && env_rtz_ ? rise(s) : toggle(s);
}

void ControllerBuilder::emit_env_drain(NodeId origin) {
  std::vector<XbmEdge> req_falls, done_falls;
  for (const auto& [ch, sig] : channel_signal_) {
    if (!plan_.channels()[ch].involves_environment()) continue;
    if (m_.signal(sig).kind == SignalKind::kInput)
      req_falls.push_back(fall(sig));
    else
      done_falls.push_back(fall(sig));
  }
  if (!env_rtz_ || req_falls.empty() || done_falls.empty()) return;
  emit(req_falls, done_falls, origin, "environment return-to-zero");
}

SignalId ControllerBuilder::cond_signal(const std::string& reg) {
  SignalBinding b;
  b.role = SignalRole::kConditional;
  b.reg = reg;
  return intern("c_" + sanitize(reg), SignalKind::kInput, SignalRole::kConditional, b);
}

void ControllerBuilder::emit(std::vector<XbmEdge> in, std::vector<XbmEdge> out, NodeId origin,
                             std::string note, std::vector<CondTerm> conds) {
  if (in.empty()) {
    if (last_.empty()) {
      // At the very start of a loop body: the outputs ride on whatever
      // transition enters the body (attached by the assembly code).
      for (const auto& e : out) pending_entry_outputs_.push_back(e);
      return;
    }
    for (TransitionId t : last_)
      for (const auto& e : out) m_.transition(t).outputs.push_back(e);
    return;
  }
  StateId next = m_.add_state();
  TransitionId t = m_.add_transition(cur_, next, std::move(in), std::move(out),
                                     std::move(conds));
  m_.transition(t).origin = origin;
  m_.transition(t).note = std::move(note);
  cur_ = next;
  last_ = {t};
}

ControllerBuilder::BranchEnds ControllerBuilder::branch(const std::string& cond_reg,
                                                        NodeId origin,
                                                        std::vector<XbmEdge> test_waits) {
  SignalId c = cond_signal(cond_reg);
  BranchEnds ends;
  if (!test_waits.empty()) {
    // The test rides on its own wait transition, duplicated per branch.
    StateId next = m_.add_state();
    TransitionId tt = m_.add_transition(cur_, next, test_waits, {}, {CondTerm{c, true}});
    TransitionId tf = m_.add_transition(cur_, next, test_waits, {}, {CondTerm{c, false}});
    m_.transition(tt).origin = m_.transition(tf).origin = origin;
    m_.transition(tt).note = "test taken";
    m_.transition(tf).note = "test not taken";
    cur_ = next;
    ends.taken = {tt};
    ends.skipped = {tf};
    last_ = {tt};
    return ends;
  }
  // No wire to ride on: split the previous transition(s) into a
  // conditional pair.
  if (last_.empty()) throw std::logic_error("extract: conditional with no trigger");
  for (TransitionId t : last_) {
    // Copy the fields first: add_transition may reallocate the storage.
    XbmTransition snapshot = m_.transition(t);
    TransitionId copy = m_.add_transition(snapshot.from(), snapshot.to(), snapshot.inputs,
                                          snapshot.outputs, snapshot.conds);
    m_.transition(copy).origin = snapshot.origin;
    m_.transition(copy).note = snapshot.note + " (test not taken)";
    m_.transition(t).conds.push_back(CondTerm{c, true});
    m_.transition(copy).conds.push_back(CondTerm{c, false});
    ends.taken.push_back(t);
    ends.skipped.push_back(copy);
  }
  last_ = ends.taken;
  return ends;
}

std::vector<ControllerBuilder::WireEvent> ControllerBuilder::forward_waits(NodeId n) const {
  std::set<WireEvent> events;
  for (ArcId aid : g_.in_arcs(n)) {
    const Arc& a = g_.arc(aid);
    if (a.backward) continue;
    auto it = arc_event_.find(aid.value());
    if (it != arc_event_.end()) events.insert(it->second);
  }
  return {events.begin(), events.end()};
}

std::vector<ControllerBuilder::WireEvent> ControllerBuilder::backward_waits(NodeId n) const {
  std::set<WireEvent> events;
  for (ArcId aid : g_.in_arcs(n)) {
    const Arc& a = g_.arc(aid);
    if (!a.backward) continue;
    auto it = arc_event_.find(aid.value());
    if (it != arc_event_.end()) events.insert(it->second);
  }
  return {events.begin(), events.end()};
}

std::vector<XbmEdge> ControllerBuilder::done_edges(NodeId n, DoneFilter filter) {
  // The node's completion is one event per channel, regardless of how many
  // constraint arcs the channel carries for it.  Controller-controller
  // wires use transition signalling (a toggle); environment handshakes are
  // 4-phase return-to-zero, so the completion is a rising edge and the
  // drain logic resets it.
  std::set<std::size_t> channels;
  BlockId rooted;
  for (BlockId b : g_.block_ids())
    if (g_.block(b).root == n) rooted = b;
  for (ArcId aid : g_.out_arcs(n)) {
    auto it = arc_event_.find(aid.value());
    if (it == arc_event_.end()) continue;
    if (filter != DoneFilter::kAll && rooted.valid()) {
      bool into = in_block(g_, g_.arc(aid).dst, rooted);
      if (filter == DoneFilter::kIntoBlock && !into) continue;
      if (filter == DoneFilter::kOutOfBlock && into) continue;
    }
    channels.insert(it->second.channel);
  }
  std::vector<XbmEdge> out;
  for (std::size_t c : channels) {
    bool env = plan_.channels()[c].involves_environment();
    out.push_back(env && env_rtz_ ? rise(global_wire(c)) : toggle(global_wire(c)));
  }
  return out;
}

ExtractedController ControllerBuilder::build(const ExtractOptions& opts) {
  const auto& order = g_.fu_order(fu_);
  if (order.empty()) {
    ExtractedController ec;
    ec.fu = fu_;
    ec.machine = std::move(m_);
    return ec;
  }

  // Locate a LOOP/ENDLOOP pair owned by this controller (at most one loop
  // per FU is supported by the extraction).
  std::optional<NodeId> loop_root, loop_end;
  for (NodeId n : order) {
    if (g_.node(n).kind == NodeKind::kLoop) {
      if (loop_root) throw std::invalid_argument("extract: multiple loops on one FU");
      loop_root = n;
    }
    if (g_.node(n).kind == NodeKind::kEndLoop) loop_end = n;
  }

  if (loop_root) {
    // --- loop-owning controller (the paper's ALU2) ----------------------
    const Node& loop = g_.node(*loop_root);
    StateId s_idle = m_.add_state("idle");
    m_.set_initial(s_idle);
    SignalId c = cond_signal(loop.cond_reg);

    // The environment request wire (START -> LOOP).
    auto env_waits = forward_waits(*loop_root);

    std::vector<XbmEdge> broadcast = done_edges(*loop_root, DoneFilter::kIntoBlock);
    std::vector<XbmEdge> exit_dones = done_edges(*loop_root, DoneFilter::kOutOfBlock);

    // Body chain.
    StateId s_body = m_.add_state("body");
    cur_ = s_body;
    last_.clear();
    std::vector<TransitionId> entry_fold;  // transitions that enter the body
    bool saw_root = false;
    for (NodeId n : order) {
      if (n == *loop_root) {
        saw_root = true;
        continue;
      }
      if (!saw_root) throw std::invalid_argument("extract: node scheduled before LOOP");
      if (n == *loop_end) break;
      node_fragment(n);
      if (entry_fold.empty() && !last_.empty()) entry_fold = last_;
    }

    // Tail: backward-arc waits (pre-enabled on the first iteration — at the
    // ring tail the previous iteration has always emitted them).
    for (const auto& w : tail_waits_)
      emit({wait_edge(w.channel)}, {}, *loop_root, "backward-arc wait");
    tail_waits_.clear();

    // ENDLOOP synchronization waits, then the loop test.
    std::vector<XbmEdge> test_waits;
    if (loop_end) {
      auto waits = forward_waits(*loop_end);
      for (std::size_t i = 0; i + 1 < waits.size(); ++i)
        emit({wait_edge(waits[i].channel)}, {}, *loop_end, "ENDLOOP wait");
      if (!waits.empty()) test_waits = {wait_edge(waits.back().channel)};
    }
    BranchEnds test = branch(loop.cond_reg, *loop_root, test_waits);
    for (TransitionId t : test.taken) {
      m_.set_to(t, s_body);
      XbmTransition& tr = m_.transition(t);
      for (const auto& e : broadcast) tr.outputs.push_back(e);
      for (const auto& e : pending_entry_outputs_) tr.outputs.push_back(e);
      tr.note += " [loop again]";
    }
    // The exit paths land in a drain state where the environment handshake
    // returns to zero before the controller idles again.
    StateId s_exit = m_.add_state("drain");
    for (TransitionId t : test.skipped) {
      m_.set_to(t, s_exit);
      XbmTransition& tr = m_.transition(t);
      for (const auto& e : exit_dones) tr.outputs.push_back(e);
      tr.note += " [loop exit]";
    }

    // Idle entry: wait the environment request, test the condition.
    std::vector<XbmEdge> env_in;
    for (const auto& w : env_waits) env_in.push_back(wait_edge(w.channel));
    if (env_in.empty())
      throw std::invalid_argument("extract: LOOP controller without environment request");
    std::vector<XbmEdge> enter_out = broadcast;
    for (const auto& e : pending_entry_outputs_) enter_out.push_back(e);
    TransitionId enter = m_.add_transition(s_idle, s_body, env_in, enter_out,
                                           {CondTerm{c, true}});
    m_.transition(enter).origin = *loop_root;
    m_.transition(enter).note = "enter loop";
    TransitionId skip = m_.add_transition(s_idle, s_exit, env_in, exit_dones,
                                          {CondTerm{c, false}});
    m_.transition(skip).origin = *loop_root;
    m_.transition(skip).note = "zero-iteration exit";
    pending_entry_outputs_.clear();
    (void)entry_fold;

    // Drain: request falls, dones withdraw, back to idle.
    cur_ = s_exit;
    last_.clear();
    emit_env_drain(*loop_root);
    for (TransitionId t : last_) m_.set_to(t, s_idle);
  } else {
    // --- plain ring controller ------------------------------------------
    StateId s0 = m_.add_state("start");
    m_.set_initial(s0);
    cur_ = s0;
    last_.clear();
    for (NodeId n : order) node_fragment(n);
    for (const auto& w : tail_waits_)
      emit({wait_edge(w.channel)}, {}, order.front(), "backward-arc wait");
    tail_waits_.clear();
    emit_env_drain(order.front());
    // Close the ring.
    if (last_.empty())
      throw std::invalid_argument("extract: controller with no transitions on " + m_.name());
    if (!pending_entry_outputs_.empty())
      throw std::logic_error("extract: first node of " + m_.name() + " has no request wire");
    for (TransitionId t : last_) m_.set_to(t, s0);
  }

  if (!open_ifs_.empty()) throw std::logic_error("extract: unclosed IF block");

  if (opts.back_annotate) back_annotate_early_requests(m_, bindings_);
  m_.sweep_dead_states();

  ExtractedController ec;
  ec.fu = fu_;
  ec.machine = std::move(m_);
  ec.bindings = std::move(bindings_);
  return ec;
}

}  // namespace detail

ExtractedController extract_controller(const Cdfg& g, const ChannelPlan& plan, FuId fu,
                                       const ExtractOptions& opts) {
  detail::ControllerBuilder builder(g, plan, fu);
  return builder.build(opts);
}

std::vector<ExtractedController> extract_controllers(const Cdfg& g, const ChannelPlan& plan,
                                                     const ExtractOptions& opts) {
  std::vector<ExtractedController> out;
  for (FuId fu : g.fu_ids()) out.push_back(extract_controller(g, plan, fu, opts));
  return out;
}

}  // namespace adc
