// Burst-mode fragments for individual CDFG nodes (paper Figure 11): the
// unoptimized sequential micro-operation expansion.

#include <cctype>
#include <stdexcept>

#include "extract/builder.hpp"

namespace adc::detail {

namespace {

std::string sanitize(const std::string& s) {
  std::string out;
  for (char c : s)
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  return out;
}

const char* op_name(RtlOp op) {
  switch (op) {
    case RtlOp::kAdd: return "add";
    case RtlOp::kSub: return "sub";
    case RtlOp::kMul: return "mul";
    case RtlOp::kDiv: return "div";
    case RtlOp::kLt: return "lt";
    case RtlOp::kGt: return "gt";
    case RtlOp::kEq: return "eq";
    case RtlOp::kNe: return "ne";
    case RtlOp::kShl: return "shl";
    case RtlOp::kShr: return "shr";
    case RtlOp::kMove: return "mov";
  }
  return "op";
}

}  // namespace

void ControllerBuilder::emit_waits(const std::vector<WireEvent>& waits,
                                   std::vector<XbmEdge> first_out, NodeId origin,
                                   const std::string& note) {
  if (waits.empty()) {
    emit({}, std::move(first_out), origin, note + " (no request)");
    return;
  }
  for (std::size_t i = 0; i + 1 < waits.size(); ++i)
    emit({wait_edge(waits[i].channel)}, {}, origin, note + " wait");
  emit({wait_edge(waits.back().channel)}, std::move(first_out), origin,
       note + " wait+start");
}

void ControllerBuilder::op_fragment(NodeId n) {
  const Node& node = g_.node(n);
  const RtlStatement* op = nullptr;
  std::vector<const RtlStatement*> moves;
  for (const auto& s : node.stmts) {
    if (s.is_move())
      moves.push_back(&s);
    else if (op)
      throw std::invalid_argument("extract: node with two operations: " + node.label());
    else
      op = &s;
  }
  if (!op) {
    assign_fragment(n);
    return;
  }

  const std::string frag = node.label();

  auto sel_signal = [&](int side, const Operand& operand) {
    SignalBinding b;
    b.role = SignalRole::kMuxSelect;
    b.operand = operand;
    b.mux_side = side;
    std::string name = (side == 0 ? "selL_" : "selR_") + sanitize(operand.to_string());
    return intern(name, SignalKind::kOutput, b.role, b);
  };
  auto mux_ack = [&](int side) {
    SignalBinding b;
    b.role = SignalRole::kMuxAck;
    b.mux_side = side;
    return intern(side == 0 ? "ackL" : "ackR", SignalKind::kInput, b.role, b);
  };
  auto rsel = [&](const RtlStatement& s) {
    SignalBinding b;
    b.role = SignalRole::kRegMuxSelect;
    b.reg = s.dest;
    b.operand = s.is_move() ? s.lhs : Operand{};  // moves route a register directly
    b.op = s.op;
    return intern("rsel_" + sanitize(s.dest), SignalKind::kOutput, b.role, b);
  };
  auto rack = [&](const std::string& reg) {
    SignalBinding b;
    b.role = SignalRole::kRegMuxAck;
    b.reg = reg;
    return intern("rack_" + sanitize(reg), SignalKind::kInput, b.role, b);
  };
  auto lat = [&](const std::string& reg) {
    SignalBinding b;
    b.role = SignalRole::kLatch;
    b.reg = reg;
    return intern("lat_" + sanitize(reg), SignalKind::kOutput, b.role, b);
  };
  auto latack = [&](const std::string& reg) {
    SignalBinding b;
    b.role = SignalRole::kLatchAck;
    b.reg = reg;
    return intern("latack_" + sanitize(reg), SignalKind::kInput, b.role, b);
  };

  SignalId selL = sel_signal(0, op->lhs);
  SignalId ackL = mux_ack(0);
  std::optional<SignalId> selR, ackR;
  if (op->rhs) {
    selR = sel_signal(1, *op->rhs);
    ackR = mux_ack(1);
  }
  std::optional<SignalId> opsel, opack;
  if (multi_op_) {
    SignalBinding b;
    b.role = SignalRole::kOpSelect;
    b.op = op->op;
    opsel = intern(std::string("op_") + op_name(op->op), SignalKind::kOutput, b.role, b);
    SignalBinding ba;
    ba.role = SignalRole::kOpAck;
    opack = intern("opack", SignalKind::kInput, ba.role, ba);
  }
  SignalBinding bg;
  bg.role = SignalRole::kFuGo;
  bg.op = op->op;
  SignalId go = intern("go", SignalKind::kOutput, bg.role, bg);
  SignalBinding bd;
  bd.role = SignalRole::kFuDone;
  SignalId fudone = intern("fudone", SignalKind::kInput, bd.role, bd);

  // (i) wait for requests and set the left input mux.
  emit_waits(forward_waits(n), {rise(selL)}, n, frag);
  for (const auto& w : backward_waits(n)) tail_waits_.push_back(w);

  // (i') right input mux.
  SignalId last_ack = ackL;
  if (selR) {
    emit({rise(ackL)}, {rise(*selR)}, n, "set right mux");
    last_ack = *ackR;
  }
  // (ii) select and perform the operation.
  if (opsel) {
    emit({rise(last_ack)}, {rise(*opsel)}, n, "select operation");
    emit({rise(*opack)}, {rise(go)}, n, "do operation");
  } else {
    emit({rise(last_ack)}, {rise(go)}, n, "do operation");
  }
  // (iii) set the destination register mux(es).
  std::vector<XbmEdge> rsels{rise(rsel(*op))};
  std::vector<XbmEdge> racks{rise(rack(op->dest))};
  std::vector<XbmEdge> lats{rise(lat(op->dest))};
  std::vector<XbmEdge> latacks{rise(latack(op->dest))};
  for (const auto* mv : moves) {
    rsels.push_back(rise(rsel(*mv)));
    racks.push_back(rise(rack(mv->dest)));
    lats.push_back(rise(lat(mv->dest)));
    latacks.push_back(rise(latack(mv->dest)));
  }
  emit({rise(fudone)}, rsels, n, "set register mux");
  // (iv) write the register(s).
  emit(racks, lats, n, "write register");
  // (v) reset all local signals in parallel.
  std::vector<XbmEdge> resets{fall(selL)};
  if (selR) resets.push_back(fall(*selR));
  if (opsel) resets.push_back(fall(*opsel));
  resets.push_back(fall(go));
  for (const auto& e : rsels) resets.push_back(fall(e.signal));
  for (const auto& e : lats) resets.push_back(fall(e.signal));
  emit(latacks, resets, n, "reset local signals");
  // (vi) wait the falling acks, send the done signals.
  std::vector<XbmEdge> ack_falls{fall(ackL)};
  if (ackR) ack_falls.push_back(fall(*ackR));
  if (opack) ack_falls.push_back(fall(*opack));
  ack_falls.push_back(fall(fudone));
  for (const auto& e : racks) ack_falls.push_back(fall(e.signal));
  for (const auto& e : latacks) ack_falls.push_back(fall(e.signal));
  emit(ack_falls, done_edges(n), n, "send done signals");
}

void ControllerBuilder::assign_fragment(NodeId n) {
  const Node& node = g_.node(n);
  std::vector<XbmEdge> rsels, racks, lats, latacks, resets, ack_falls;
  for (const auto& s : node.stmts) {
    if (!s.is_move())
      throw std::invalid_argument("extract: non-move in assignment node " + node.label());
    SignalBinding b;
    b.role = SignalRole::kRegMuxSelect;
    b.reg = s.dest;
    b.operand = s.lhs;
    SignalId rs = intern("rsel_" + sanitize(s.dest), SignalKind::kOutput, b.role, b);
    SignalBinding br;
    br.role = SignalRole::kRegMuxAck;
    br.reg = s.dest;
    SignalId ra = intern("rack_" + sanitize(s.dest), SignalKind::kInput, br.role, br);
    SignalBinding bl;
    bl.role = SignalRole::kLatch;
    bl.reg = s.dest;
    SignalId lt = intern("lat_" + sanitize(s.dest), SignalKind::kOutput, bl.role, bl);
    SignalBinding bla;
    bla.role = SignalRole::kLatchAck;
    bla.reg = s.dest;
    SignalId la = intern("latack_" + sanitize(s.dest), SignalKind::kInput, bla.role, bla);
    rsels.push_back(rise(rs));
    racks.push_back(rise(ra));
    lats.push_back(rise(lt));
    latacks.push_back(rise(la));
    resets.push_back(fall(rs));
    resets.push_back(fall(lt));
    ack_falls.push_back(fall(ra));
    ack_falls.push_back(fall(la));
  }
  emit_waits(forward_waits(n), rsels, n, node.label());
  for (const auto& w : backward_waits(n)) tail_waits_.push_back(w);
  emit(racks, lats, n, "write register");
  emit(latacks, resets, n, "reset local signals");
  emit(ack_falls, done_edges(n), n, "send done signals");
}

void ControllerBuilder::node_fragment(NodeId n) {
  const Node& node = g_.node(n);
  switch (node.kind) {
    case NodeKind::kOperation:
      op_fragment(n);
      break;
    case NodeKind::kAssign:
      assign_fragment(n);
      break;
    case NodeKind::kIf: {
      // Waits of the IF root trigger the conditional test; the taken branch
      // proceeds into the body, the skip branch jumps to the join point.
      std::vector<XbmEdge> test_waits;
      auto waits = forward_waits(n);
      for (std::size_t i = 0; i + 1 < waits.size(); ++i)
        emit({wait_edge(waits[i].channel)}, {}, n, "IF wait");
      if (!waits.empty()) test_waits = {wait_edge(waits.back().channel)};
      BranchEnds ends = branch(node.cond_reg, n, test_waits);
      open_ifs_.push_back(OpenIf{ends.skipped});
      break;
    }
    case NodeKind::kEndIf: {
      if (open_ifs_.empty()) throw std::logic_error("extract: ENDIF without IF");
      OpenIf open = open_ifs_.back();
      open_ifs_.pop_back();
      // Join: the skip transitions land on the current state; both paths
      // emit the ENDIF done signals.
      auto dones = done_edges(n);
      for (TransitionId t : last_)
        for (const auto& e : dones) m_.transition(t).outputs.push_back(e);
      for (TransitionId t : open.skipped) {
        m_.set_to(t, cur_);
        for (const auto& e : dones) m_.transition(t).outputs.push_back(e);
        last_.push_back(t);
      }
      break;
    }
    case NodeKind::kLoop:
    case NodeKind::kEndLoop:
      throw std::logic_error("extract: loop nodes are handled by the assembly");
    default:
      throw std::logic_error("extract: unexpected node kind in fragment");
  }
}

}  // namespace adc::detail
