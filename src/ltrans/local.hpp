#pragma once
// Local transformations LT1-LT5 (paper §5): rewrites of an extracted
// controller's XBM specification that optimize the controller-datapath
// protocol for speed and area.  The global interaction ("ready" wires) is
// fixed by this point; these transforms only touch when local signals and
// dones are emitted and which wires exist.
//
//  * LT1 move-up       — emit global done signals earlier (typically in
//                        parallel with latching the result);
//  * LT2 move-down     — push non-critical reset phases into later bursts;
//  * LT3 mux-preselection — set the next operation's muxes at the end of
//                        the current one (and keep a mux selected across
//                        consecutive uses of the same source);
//  * LT4 remove acks   — drop local acknowledge wires whose handshakes are
//                        covered by user-supplied timing assumptions, then
//                        merge the trivial transitions left behind;
//  * LT5 signal sharing — fork two output wires that carry identical
//                        waveforms into one.
//
// Every transform preserves XBM validity (checked after each stage) and the
// datapath causality rules: an output never moves past an input edge it
// causes, operations still start only after their requests, results are
// only signalled after the FU completes.

#include <string>
#include <utility>
#include <vector>

#include "extract/extract.hpp"
#include "transforms/transform.hpp"
#include "xbm/xbm.hpp"

namespace adc {

struct LocalTransformOptions {
  bool lt1_move_up_dones = true;
  bool lt2_move_down_resets = true;
  bool lt3_mux_preselection = true;
  bool lt4_remove_acks = true;
  bool lt5_signal_sharing = true;
};

struct LocalTransformResult {
  TransformResult stats;
  std::vector<std::pair<std::string, std::string>> shared_signals;  // LT5 pairs
};

// The scripted LT pipeline: LT1, LT2, LT4 (+ cleanup), LT3, LT5.
LocalTransformResult run_local_transforms(ExtractedController& c,
                                          const LocalTransformOptions& opts = {});

// --- individual transforms (numbers returned = edits applied) -------------
int lt1_move_up(Xbm& m, const SignalBindings& b);
int lt2_move_down(Xbm& m, const SignalBindings& b);
int lt3_mux_preselection(Xbm& m, const SignalBindings& b);
int lt4_remove_acks(Xbm& m, const SignalBindings& b);
int lt5_signal_sharing(Xbm& m, const SignalBindings& b,
                       std::vector<std::pair<std::string, std::string>>& shared);

// Normalization used by LT4 and the pipeline tail: folds transitions whose
// input burst became empty into their predecessors and merges transitions
// with empty output bursts into their successors.  With bindings supplied,
// a transition that cannot fold and follows the withdrawal of the FU go
// request is re-triggered by the done indicator's reset event.
int fold_trivial_transitions(Xbm& m, const SignalBindings* bindings = nullptr);

// Signals that still appear in some burst or conditional.
std::size_t live_signal_count(const Xbm& m, SignalKind kind);

}  // namespace adc
