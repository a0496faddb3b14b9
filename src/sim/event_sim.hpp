#pragma once
// Event-driven simulation of the complete synthesized system: the extracted
// (and locally-transformed) XBM controllers, the global ready wires, and a
// behavioural datapath (registers, muxes, functional units).
//
// This is the end-to-end verification the paper's flow implies: the
// distributed controllers must actually execute the RTL program.  The
// environment raises the start request, the controllers handshake through
// their global wires and drive the datapath, and the final register file is
// compared against the golden model by the caller.
//
// Wire semantics:
//  * global ready wires (channels) use transition signalling: a controller
//    waits for the next unconsumed transition (counted per controller),
//  * local controller-datapath wires are 4-phase levels: rising/falling
//    edges wait for the level; this models early arrivals naturally and
//    tolerates the acknowledge wires LT4 stopped observing,
//  * conditional inputs follow their condition register combinationally.
//
// LT5-shared wires are expanded through the alias table: one controller
// output drives every datapath action of the signals merged into it.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cdfg/delay.hpp"
#include "channel/channel.hpp"
#include "extract/extract.hpp"
#include "runtime/cancel.hpp"
#include "sim/critical_path.hpp"

namespace adc {

class VcdWriter;

struct ControllerInstance {
  ExtractedController controller;
  // LT5 aliases: (kept signal name, merged-away signal name).
  std::vector<std::pair<std::string, std::string>> shared_signals;
};

struct EventSimOptions {
  DelayModel delays = DelayModel::typical();
  std::uint64_t seed = 1;
  bool randomize_delays = true;
  std::int64_t max_time = 50000000;
  std::int64_t max_events = 2000000;
  // Optional waveform capture: channel wires under scope "channels", each
  // controller's local wires and state under its own scope.  Not owned.
  VcdWriter* vcd = nullptr;
  // Optional causal event log for critical-path attribution (not owned):
  // every scheduled event is appended with its scheduling parent, names
  // interned into the log's string tables; feed the log and
  // EventSimResult::final_event to analyze_critical_path().
  SimEventLog* event_log = nullptr;
  // Cooperative cancellation: the main loop polls this token (every 256
  // events) so a deadline watchdog can stop a runaway simulation.  Not
  // owned; null = never cancelled.
  const CancelToken* cancel = nullptr;
};

struct EventSimResult {
  bool completed = false;
  bool deadlocked = false;  // quiescent without every expected completion
  bool cancelled = false;   // stopped by EventSimOptions::cancel
  std::string error;
  std::map<std::string, std::int64_t> registers;
  std::int64_t finish_time = 0;
  std::int64_t events = 0;
  std::int64_t operations = 0;  // FU activations observed
  // Id (into EventSimOptions::event_log) of the last applied event at the
  // latest simulation time; -1 when no log was attached.
  std::int64_t final_event = -1;
};

// Simulates the system until the environment has received every completion
// it expects (one transition on each controller->ENV channel) and the
// system is quiescent.
EventSimResult run_event_sim(const Cdfg& g, const ChannelPlan& plan,
                             const std::vector<ControllerInstance>& controllers,
                             const std::map<std::string, std::int64_t>& initial_registers,
                             const EventSimOptions& opts = {});
// The same, reading each controller through a pointer: the flow executor's
// controllers are shared cache entries, not one owned vector.
EventSimResult run_event_sim(const Cdfg& g, const ChannelPlan& plan,
                             const std::vector<const ControllerInstance*>& controllers,
                             const std::map<std::string, std::int64_t>& initial_registers,
                             const EventSimOptions& opts = {});

}  // namespace adc
