#pragma once
// CDFG-level token simulator.
//
// Executes a (possibly transformed) CDFG under its asynchronous firing
// semantics: "an operation node may fire if all its predecessors have
// fired" (paper §2.1), generalized to repeated loop executions via per-arc
// token queues:
//
//  * every constraint arc carries a FIFO token count,
//  * a node fires when every live incoming arc holds a token (consuming
//    one from each) and the node is not already busy,
//  * backward arcs and the implicit controller wrap-around constraints are
//    pre-loaded with one token ("pre-enabled for the first iteration"),
//  * LOOP nodes sample their condition register when they fire: on true
//    they emit tokens into the loop body, on false onto their exit arcs,
//  * IF bodies execute transparently when the condition is false: nodes
//    fire (so schedule tokens keep flowing between controllers, exactly as
//    the extracted controllers behave) but skip their RTL effect,
//  * each firing occupies the node for a randomly drawn delay within the
//    delay model's interval.
//
// The simulator doubles as the correctness oracle for the transformations:
// final register state must be invariant under any precedence-preserving
// transform, for any delay assignment.  It also checks the single-wire
// signaling discipline: an inter-controller arc must never accumulate two
// unconsumed tokens (that would be two transitions queued on one ready
// wire, the hazard GT1 step D exists to prevent).
//
// A simulation is two parts.  TokenSimModel is compiled once from a Cdfg
// and a delay model: the flat edge list (real arcs plus the implicit
// wrap-around constraints), and per node its kind, delay range, enclosing
// IF chain, loop id, rooted block, statements over register slots and
// in/out edge indices.  TokenSimModel::run is one run over it, with
// all per-node state in vectors; a model serves any number of runs, so a
// caller that simulates one graph under many delay draws (GT3's timing
// verification) compiles it once.  A run may carry a TokenSimWatch that
// sees every firing and completion as it happens and can stop the run;
// that is how per-event times are observed.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cdfg/cdfg.hpp"
#include "cdfg/delay.hpp"

namespace adc {

struct TokenSimOptions {
  std::uint64_t seed = 1;          // randomizes per-firing delays
  std::int64_t max_firings = 200000;
  bool check_wire_discipline = true;
  bool randomize_delays = true;    // false: everything takes its max delay
  bool all_min_delays = false;     // with randomize_delays=false: min corner
  // Timing-harness mode (data-independent): every LOOP runs exactly this
  // many iterations regardless of its condition register, IF bodies are
  // always taken, and no statement is evaluated, so the result's registers
  // are the initial ones.  Negative: normal data-driven execution.
  int forced_loop_iterations = -1;
};

struct TokenSimResult {
  bool completed = false;          // END fired
  bool stopped = false;            // a TokenSimWatch ended the run early
  std::string error;               // deadlock / wire violation / runaway
  std::map<std::string, std::int64_t> registers;
  std::int64_t finish_time = 0;
  std::int64_t firings = 0;
  std::int64_t loop_iterations = 0;  // total LOOP-node true-firings
  // Maximum number of iterations that were ever in flight at once (>1 only
  // after GT1 loop parallelism): the widest spread of iteration indices
  // among concurrently executing loop-body nodes.
  int max_overlap = 1;
};

// Observes a run event by event.  Each callback gets the node and the
// simulated time; returning false stops the run at once, leaving
// TokenSimResult::stopped set and no error.
class TokenSimWatch {
 public:
  virtual ~TokenSimWatch() = default;
  virtual bool on_fire(NodeId /*node*/, std::int64_t /*time*/) { return true; }
  virtual bool on_complete(NodeId /*node*/, std::int64_t /*time*/) { return true; }
};

// The compiled form of a Cdfg under one delay model.  It copies what a run
// needs, so the graph may change after compilation.
class TokenSimModel {
 public:
  explicit TokenSimModel(const Cdfg& g, const DelayModel& delays = DelayModel::typical());
  ~TokenSimModel();

  // One run from the given registers; `watch`, when set, sees every event.
  TokenSimResult run(const std::map<std::string, std::int64_t>& initial_registers,
                     const TokenSimOptions& opts = {}, TokenSimWatch* watch = nullptr) const;

  struct Compiled;  // defined in token_sim.cpp

 private:
  std::unique_ptr<const Compiled> compiled_;
};

// Compiles g under the typical delay model and runs it once; the same as
// TokenSimModel(g).run(initial_registers, opts).
TokenSimResult run_token_sim(const Cdfg& g,
                             const std::map<std::string, std::int64_t>& initial_registers,
                             const TokenSimOptions& opts = {});

// Reference sequential execution of the same RTL program (program-order
// interpretation of the CDFG), used as the golden model.
std::map<std::string, std::int64_t> run_sequential(
    const Cdfg& g, const std::map<std::string, std::int64_t>& initial_registers,
    std::int64_t max_steps = 1000000);

// Evaluates one RTL statement against a register file.
void execute_statement(const RtlStatement& s, std::map<std::string, std::int64_t>& regs);

}  // namespace adc
