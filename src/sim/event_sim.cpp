#include "sim/event_sim.hpp"

#include <algorithm>
#include <optional>
#include <queue>
#include <random>
#include <set>

#include "sim/datapath.hpp"
#include "trace/vcd.hpp"

namespace adc {

namespace {

struct Wire {
  bool level = false;
  long count = 0;  // transitions seen
};

enum class EvKind { kChannelToggle, kLocalSet, kFuCompute, kRegWrite };

struct Ev {
  std::int64_t time;
  std::int64_t seq;
  EvKind kind;
  int ctrl = -1;
  SignalId sig;
  bool level = false;
  std::size_t channel = 0;
  std::string reg;
  bool operator>(const Ev& o) const { return time != o.time ? time > o.time : seq > o.seq; }
};

struct Ctrl {
  const ExtractedController* ec = nullptr;
  StateId state;
  std::map<SignalId::underlying, Wire> local;
  std::map<std::size_t, long> consumed_channel;
  std::map<SignalId::underlying, long> consumed_local;
  // alias expansion: kept signal -> all signals it drives (incl. itself)
  std::map<SignalId::underlying, std::vector<SignalId>> fanout;
  // datapath side
  std::optional<Operand> selL, selR;
  std::optional<RtlOp> opsel;
  std::int64_t fu_result = 0;
  std::map<std::string, Operand> route;  // register -> routed source
  std::map<std::string, bool> route_is_fu;
  // waveform capture (unused when no VcdWriter is attached)
  VcdWriter::VarId state_var = 0;
  std::map<SignalId::underlying, VcdWriter::VarId> vcd_vars;
};

class EventSim {
 public:
  EventSim(const Cdfg& g, const ChannelPlan& plan,
           const std::vector<const ControllerInstance*>& instances,
           const std::map<std::string, std::int64_t>& init, const EventSimOptions& opts)
      : g_(g), plan_(plan), opts_(opts), rng_(opts.seed) {
    regs_.values = init;
    channels_.resize(plan.channels().size());
    for (const ControllerInstance* ip : instances) {
      const ControllerInstance& inst = *ip;
      Ctrl c;
      c.ec = &inst.controller;
      c.state = inst.controller.machine.initial();
      for (SignalId s : inst.controller.machine.signal_ids())
        c.fanout[s.value()] = {s};
      for (const auto& [kept, dropped] : inst.shared_signals) {
        auto k = inst.controller.machine.find_signal(kept);
        auto d = inst.controller.machine.find_signal(dropped);
        if (k && d) c.fanout[k->value()].push_back(*d);
      }
      ctrls_.push_back(std::move(c));
    }
    // Which environment request wires are 4-phase?  Exactly those whose
    // receiving controller consumes the falling phase (the drain); the
    // others are 2-phase and must never see a withdrawal transition.
    rtz_request_.assign(plan.channels().size(), false);
    for (const auto& c : ctrls_) {
      for (TransitionId tid : c.ec->machine.transition_ids()) {
        for (const auto& e : c.ec->machine.transition(tid).inputs) {
          const SignalBinding* b = binding(c, e.signal);
          if (b && b->role == SignalRole::kEnvironment && b->channel &&
              e.polarity == EdgePolarity::kFalling)
            rtz_request_[b->channel->index()] = true;
        }
      }
    }
    if (opts_.vcd) {
      for (std::size_t ch = 0; ch < plan.channels().size(); ++ch) {
        const Channel& c = plan.channels()[ch];
        std::string name = c.wire.empty() ? "ch" + std::to_string(ch) : c.wire;
        ch_vars_.push_back(opts_.vcd->add_wire("channels", name, false));
      }
      for (Ctrl& c : ctrls_) {
        const std::string& scope = c.ec->machine.name();
        c.state_var =
            opts_.vcd->add_string(scope, "state", c.ec->machine.state(c.state).name);
        for (SignalId s : c.ec->machine.signal_ids())
          c.vcd_vars[s.value()] =
              opts_.vcd->add_wire(scope, c.ec->machine.signal(s).name, false);
      }
    }
    if (opts_.event_log) {
      build_log_tables();
      opts_.event_log->records.reserve(2048);
    }
  }

  EventSimResult run() {
    // The environment raises every request it sources.
    for (std::size_t ch = 0; ch < plan_.channels().size(); ++ch) {
      const Channel& c = plan_.channels()[ch];
      if (!c.src_fu.valid()) schedule(Ev{1, seq_++, EvKind::kChannelToggle, -1,
                                         SignalId{}, false, ch, {}});
      if (c.receivers.empty()) env_sinks_.insert(ch);
    }
    for (std::size_t i = 0; i < ctrls_.size(); ++i) try_advance(static_cast<int>(i), 0);

    while (!events_.empty()) {
      Ev ev = events_.top();
      events_.pop();
      if (++res_.events > opts_.max_events || ev.time > opts_.max_time) {
        res_.error = "event budget exhausted (livelock?)";
        break;
      }
      if (opts_.cancel && (res_.events & 0xff) == 0 && opts_.cancel->cancelled()) {
        res_.cancelled = true;
        res_.error = opts_.cancel->reason();
        if (res_.error.empty()) res_.error = "cancelled";
        break;
      }
      if (opts_.event_log && static_cast<std::size_t>(ev.seq) < opts_.event_log->size()) {
        opts_.event_log->records[static_cast<std::size_t>(ev.seq)].applied = true;
        applying_ = ev.seq;
        if (ev.time >= final_applied_time_) {
          final_applied_time_ = ev.time;
          res_.final_event = ev.seq;
        }
      }
      apply(ev);
      if (!res_.error.empty()) break;
    }

    bool all_done = true;
    for (std::size_t ch : env_sinks_)
      if (channels_[ch].count < 1) all_done = false;
    if (res_.error.empty()) {
      if (all_done) {
        res_.completed = true;
      } else {
        res_.deadlocked = true;
        res_.error = deadlock_report();
      }
    }
    res_.registers = regs_.values;
    return res_;
  }

 private:
  std::int64_t draw(DelayRange r) {
    if (!opts_.randomize_delays || r.min == r.max) return r.max;
    std::uniform_int_distribution<std::int64_t> d(r.min, r.max);
    return d(rng_);
  }

  void schedule(Ev ev) {
    res_.finish_time = std::max(res_.finish_time, ev.time);
    if (opts_.event_log) record(ev);
    events_.push(std::move(ev));
  }

  // One-time name interning for the causal log: every label record() can
  // emit — channel wires, controller signals, FU names — becomes a table
  // lookup, so the hot path appends a trivially-copyable record without
  // touching the allocator.  Register names (few, infrequent writes) are
  // interned lazily in record().
  void build_log_tables() {
    SimEventLog& log = *opts_.event_log;
    chan_label_.reserve(plan_.channels().size());
    for (std::size_t ch = 0; ch < plan_.channels().size(); ++ch) {
      const Channel& c = plan_.channels()[ch];
      chan_label_.push_back(log.intern_label(
          c.wire.empty() ? "ch" + std::to_string(ch) : c.wire));
    }
    ctrl_name_.reserve(ctrls_.size());
    sig_label_.resize(ctrls_.size());
    sig_phase_.resize(ctrls_.size());
    fu_label_.reserve(ctrls_.size());
    for (std::size_t i = 0; i < ctrls_.size(); ++i) {
      const Ctrl& c = ctrls_[i];
      ctrl_name_.push_back(log.intern_controller(c.ec->machine.name()));
      for (SignalId s : c.ec->machine.signal_ids()) {
        auto idx = static_cast<std::size_t>(s.value());
        if (idx >= sig_label_[i].size()) {
          sig_label_[i].resize(idx + 1, -1);
          sig_phase_[i].resize(idx + 1, SimPhase::kMicroOp);
        }
        sig_label_[i][idx] = log.intern_label(c.ec->machine.signal(s).name);
        const SignalBinding* b = binding(c, s);
        sig_phase_[i][idx] = b && b->role == SignalRole::kFuDone
                                 ? SimPhase::kDone
                                 : SimPhase::kMicroOp;
      }
      fu_label_.push_back(log.intern_label(g_.fu(c.ec->fu).name));
    }
  }

  // Appends the scheduled event to the causal log, classified for
  // critical-path attribution.  The parent is the event being applied
  // right now — the last-arriving precondition of this one.
  void record(const Ev& ev) {
    SimEventRecord r;
    r.parent = applying_;
    r.time = ev.time;
    switch (ev.kind) {
      case EvKind::kChannelToggle:
        r.phase = SimPhase::kRequestWait;
        r.label = chan_label_[ev.channel];
        break;
      case EvKind::kLocalSet: {
        auto ci = static_cast<std::size_t>(ev.ctrl);
        auto si = static_cast<std::size_t>(ev.sig.value());
        r.controller = ctrl_name_[ci];
        r.label = sig_label_[ci][si];
        r.phase = sig_phase_[ci][si];
        break;
      }
      case EvKind::kFuCompute: {
        auto ci = static_cast<std::size_t>(ev.ctrl);
        r.controller = ctrl_name_[ci];
        r.label = fu_label_[ci];
        r.phase = SimPhase::kOp;
        break;
      }
      case EvKind::kRegWrite: {
        auto ci = static_cast<std::size_t>(ev.ctrl);
        r.controller = ctrl_name_[ci];
        r.label = opts_.event_log->intern_label(ev.reg);
        r.phase = SimPhase::kRegWrite;
        break;
      }
    }
    auto& recs = opts_.event_log->records;
    if (static_cast<std::size_t>(ev.seq) > recs.size())
      recs.resize(static_cast<std::size_t>(ev.seq));  // defensive: keep ids dense
    recs.push_back(r);
  }

  Wire& local_wire(Ctrl& c, SignalId s) { return c.local[s.value()]; }

  const SignalBinding* binding(const Ctrl& c, SignalId s) const {
    auto it = c.ec->bindings.find(s.value());
    return it == c.ec->bindings.end() ? nullptr : &it->second;
  }

  // Finds this controller's wire with the given role (and mux side / reg).
  std::optional<SignalId> find_role(const Ctrl& c, SignalRole role, int side = -1,
                                    const std::string& reg = {}) const {
    for (const auto& [sid, b] : c.ec->bindings) {
      if (b.role != role) continue;
      if (side >= 0 && b.mux_side != side) continue;
      if (!reg.empty() && b.reg != reg) continue;
      return SignalId{sid};
    }
    return std::nullopt;
  }

  void apply(const Ev& ev) {
    switch (ev.kind) {
      case EvKind::kChannelToggle: {
        Wire& w = channels_[ev.channel];
        w.level = !w.level;
        ++w.count;
        if (opts_.vcd) opts_.vcd->change(ch_vars_[ev.channel], ev.time, w.level);
        // Environment behaviour: once every done it expects is up, the
        // environment withdraws its requests (return-to-zero).
        if (env_sinks_.count(ev.channel) && w.level && !env_withdrawn_) {
          bool all_up = true;
          for (std::size_t ch : env_sinks_)
            if (!channels_[ch].level) all_up = false;
          if (all_up) {
            env_withdrawn_ = true;
            for (std::size_t ch = 0; ch < plan_.channels().size(); ++ch)
              if (!plan_.channels()[ch].src_fu.valid() && rtz_request_[ch])
                schedule(Ev{ev.time + draw(opts_.delays.wire), seq_++,
                            EvKind::kChannelToggle, -1, SignalId{}, false, ch, {}});
          }
        }
        for (std::size_t i = 0; i < ctrls_.size(); ++i) try_advance(static_cast<int>(i), ev.time);
        break;
      }
      case EvKind::kLocalSet: {
        Ctrl& c = ctrls_[static_cast<std::size_t>(ev.ctrl)];
        Wire& w = local_wire(c, ev.sig);
        if (w.level != ev.level) {
          w.level = ev.level;
          ++w.count;
          if (opts_.vcd) opts_.vcd->change(c.vcd_vars[ev.sig.value()], ev.time, ev.level);
        }
        const XbmSignal& s = c.ec->machine.signal(ev.sig);
        if (s.kind == SignalKind::kOutput)
          datapath_react(ev.ctrl, ev.sig, ev.level, ev.time);
        else
          try_advance(ev.ctrl, ev.time);
        break;
      }
      case EvKind::kFuCompute: {
        Ctrl& c = ctrls_[static_cast<std::size_t>(ev.ctrl)];
        std::int64_t l = c.selL ? regs_.eval(*c.selL) : 0;
        std::int64_t r = c.selR ? regs_.eval(*c.selR) : 0;
        RtlOp op = c.opsel ? *c.opsel : ev.level ? RtlOp::kMove : RtlOp::kMove;
        // Single-op datapaths carry the operation on the go binding.
        if (!c.opsel) {
          if (auto go = find_role(c, SignalRole::kFuGo))
            if (const auto* b = binding(c, *go)) op = b->op;
        }
        c.fu_result = alu_compute(op, l, r);
        ++res_.operations;
        if (auto done = find_role(c, SignalRole::kFuDone))
          schedule(Ev{ev.time, seq_++, EvKind::kLocalSet, ev.ctrl, *done, true, 0, {}});
        break;
      }
      case EvKind::kRegWrite: {
        Ctrl& c = ctrls_[static_cast<std::size_t>(ev.ctrl)];
        std::int64_t value = c.route_is_fu[ev.reg] ? c.fu_result : regs_.eval(c.route[ev.reg]);
        regs_.values[ev.reg] = value;
        // Condition wires follow registers combinationally.
        for (std::size_t i = 0; i < ctrls_.size(); ++i) try_advance(static_cast<int>(i), ev.time);
        break;
      }
    }
  }

  void datapath_react(int ci, SignalId sig, bool level, std::int64_t now) {
    Ctrl& c = ctrls_[static_cast<std::size_t>(ci)];
    const SignalBinding* b = binding(c, sig);
    if (!b) return;
    auto ack_after = [&](std::optional<SignalId> ack, DelayRange d) {
      if (!ack) return;
      schedule(Ev{now + draw(d), seq_++, EvKind::kLocalSet, ci, *ack, level, 0, {}});
    };
    switch (b->role) {
      case SignalRole::kMuxSelect:
        if (level) (b->mux_side == 0 ? c.selL : c.selR) = b->operand;
        ack_after(find_role(c, SignalRole::kMuxAck, b->mux_side), opts_.delays.micro_op);
        break;
      case SignalRole::kOpSelect:
        if (level) c.opsel = b->op;
        ack_after(find_role(c, SignalRole::kOpAck), opts_.delays.micro_op);
        break;
      case SignalRole::kFuGo:
        if (level) {
          DelayRange d = opts_.delays.op_delay(g_.fu(c.ec->fu).cls);
          schedule(Ev{now + draw(d), seq_++, EvKind::kFuCompute, ci, SignalId{}, true, 0, {}});
        } else if (auto done = find_role(c, SignalRole::kFuDone)) {
          schedule(Ev{now + draw(opts_.delays.done_reset), seq_++, EvKind::kLocalSet, ci,
                      *done, false, 0, {}});
        }
        break;
      case SignalRole::kRegMuxSelect:
        if (level) {
          c.route[b->reg] = b->operand;
          // An empty register operand denotes the FU result port.
          c.route_is_fu[b->reg] = b->operand.is_reg() && b->operand.reg.empty();
        }
        ack_after(find_role(c, SignalRole::kRegMuxAck, -1, b->reg), opts_.delays.micro_op);
        break;
      case SignalRole::kLatch:
        if (level) {
          std::int64_t write_at = now + draw(opts_.delays.latch_write);
          schedule(Ev{write_at, seq_++, EvKind::kRegWrite, ci, SignalId{}, false, 0,
                      b->reg});
          // The acknowledge certifies the write: it must not precede it.
          if (auto ack = find_role(c, SignalRole::kLatchAck, -1, b->reg))
            schedule(Ev{write_at + draw(opts_.delays.micro_op), seq_++,
                        EvKind::kLocalSet, ci, *ack, true, 0, {}});
        } else {
          ack_after(find_role(c, SignalRole::kLatchAck, -1, b->reg),
                    opts_.delays.micro_op);
        }
        break;
      default:
        break;
    }
  }

  bool edge_satisfied(const Ctrl& c, const XbmEdge& e) {
    const SignalBinding* b = binding(c, e.signal);
    if (b && b->role == SignalRole::kEnvironment && b->channel &&
        e.polarity != EdgePolarity::kToggle) {
      // The 4-phase environment handshake uses level semantics; a toggle
      // edge on an environment wire (one-sided handshake fallback) is
      // transition-counted below like any ready wire.
      const Wire& w = channels_[b->channel->index()];
      return e.polarity == EdgePolarity::kRising ? w.level : (!w.level && w.count > 0);
    }
    if (b && (b->role == SignalRole::kGlobalReady || b->role == SignalRole::kEnvironment) &&
        b->channel) {
      std::size_t ch = b->channel->index();
      long consumed = 0;
      if (auto it = c.consumed_channel.find(ch); it != c.consumed_channel.end())
        consumed = it->second;
      return channels_[ch].count > consumed;
    }
    if (b && b->role == SignalRole::kConditional) return true;  // sampled via conds
    auto it = c.local.find(e.signal.value());
    bool level = it != c.local.end() && it->second.level;
    long count = it == c.local.end() ? 0 : it->second.count;
    switch (e.polarity) {
      case EdgePolarity::kRising: return level;
      case EdgePolarity::kFalling: return !level && count > 0;
      case EdgePolarity::kToggle: {
        long consumed = 0;
        if (auto cit = c.consumed_local.find(e.signal.value()); cit != c.consumed_local.end())
          consumed = cit->second;
        return count > consumed;
      }
    }
    return false;
  }

  bool cond_satisfied(const Ctrl& c, const CondTerm& t) {
    const SignalBinding* b = binding(c, t.signal);
    if (!b) return false;
    auto it = regs_.values.find(b->reg);
    bool level = it != regs_.values.end() && it->second != 0;
    return level == t.value;
  }

  void try_advance(int ci, std::int64_t now) {
    Ctrl& c = ctrls_[static_cast<std::size_t>(ci)];
    bool progressed = true;
    while (progressed) {
      progressed = false;
      std::optional<TransitionId> enabled;
      for (TransitionId tid : c.ec->machine.out_transitions(c.state)) {
        const XbmTransition& t = c.ec->machine.transition(tid);
        bool ok = true;
        for (const auto& e : t.inputs) {
          if (e.directed_dont_care) continue;
          if (!edge_satisfied(c, e)) ok = false;
        }
        for (const auto& ct : t.conds)
          if (!cond_satisfied(c, ct)) ok = false;
        if (!ok) continue;
        if (enabled) {
          res_.error = "nondeterministic choice in " + c.ec->machine.name() + " state " +
                       c.ec->machine.state(c.state).name;
          return;
        }
        enabled = tid;
      }
      if (!enabled) return;

      const XbmTransition& t = c.ec->machine.transition(*enabled);
      // Consume the transition-counted inputs.
      for (const auto& e : t.inputs) {
        if (e.directed_dont_care) continue;
        const SignalBinding* b = binding(c, e.signal);
        if (b && (b->role == SignalRole::kGlobalReady ||
                  b->role == SignalRole::kEnvironment) &&
            b->channel) {
          ++c.consumed_channel[b->channel->index()];
        } else if (e.polarity == EdgePolarity::kToggle) {
          c.consumed_local[e.signal.value()] =
              c.local.count(e.signal.value()) ? c.local[e.signal.value()].count : 0;
        }
      }
      c.state = t.to();
      if (opts_.vcd)
        opts_.vcd->change_string(c.state_var, now, c.ec->machine.state(c.state).name);
      // Emit the output burst (alias fanout included).
      std::int64_t emit = now + draw(opts_.delays.micro_op);
      for (const auto& e : t.outputs) {
        for (SignalId drv : c.fanout[e.signal.value()]) {
          const SignalBinding* b = binding(c, drv);
          if (b && (b->role == SignalRole::kGlobalReady ||
                    b->role == SignalRole::kEnvironment) &&
              b->channel) {
            schedule(Ev{emit + draw(opts_.delays.wire), seq_++, EvKind::kChannelToggle,
                        -1, SignalId{}, false, b->channel->index(), {}});
          } else {
            bool level = e.polarity == EdgePolarity::kRising
                             ? true
                             : e.polarity == EdgePolarity::kFalling
                                   ? false
                                   : !c.local[drv.value()].level;
            schedule(Ev{emit, seq_++, EvKind::kLocalSet, ci, drv, level, 0, {}});
          }
        }
      }
      progressed = true;
    }
  }

  std::string deadlock_report() const {
    std::string msg = "system deadlock:";
    for (const auto& c : ctrls_)
      msg += " [" + c.ec->machine.name() + "@" + c.ec->machine.state(c.state).name + "]";
    return msg;
  }

  const Cdfg& g_;
  const ChannelPlan& plan_;
  EventSimOptions opts_;
  std::mt19937_64 rng_;
  EventSimResult res_;
  RegisterFile regs_;
  std::vector<Wire> channels_;
  std::vector<VcdWriter::VarId> ch_vars_;
  std::vector<Ctrl> ctrls_;
  std::set<std::size_t> env_sinks_;
  std::vector<bool> rtz_request_;
  bool env_withdrawn_ = false;
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> events_;
  std::int64_t seq_ = 0;
  // Critical-path log state: the event currently being applied (-1 during
  // initialization) and the time of the latest applied event.
  std::int64_t applying_ = -1;
  std::int64_t final_applied_time_ = -1;
  // Interned-name tables for record() (built only when a log is attached):
  // channel index -> label id, controller index -> name id / FU label id,
  // and per controller signal value -> label id / phase.
  std::vector<std::int32_t> chan_label_;
  std::vector<std::int32_t> ctrl_name_;
  std::vector<std::int32_t> fu_label_;
  std::vector<std::vector<std::int32_t>> sig_label_;
  std::vector<std::vector<SimPhase>> sig_phase_;
};

}  // namespace

EventSimResult run_event_sim(const Cdfg& g, const ChannelPlan& plan,
                             const std::vector<const ControllerInstance*>& controllers,
                             const std::map<std::string, std::int64_t>& initial_registers,
                             const EventSimOptions& opts) {
  return EventSim(g, plan, controllers, initial_registers, opts).run();
}

EventSimResult run_event_sim(const Cdfg& g, const ChannelPlan& plan,
                             const std::vector<ControllerInstance>& controllers,
                             const std::map<std::string, std::int64_t>& initial_registers,
                             const EventSimOptions& opts) {
  std::vector<const ControllerInstance*> ptrs;
  ptrs.reserve(controllers.size());
  for (const ControllerInstance& c : controllers) ptrs.push_back(&c);
  return run_event_sim(g, plan, ptrs, initial_registers, opts);
}

}  // namespace adc
