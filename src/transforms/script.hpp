#pragma once
// Transform scripting — the paper closes with "algorithmic heuristics and
// scripts based on the set of transformations … are forthcoming"; this
// module supplies them.  A script is the one form a recipe takes: a
// semicolon-separated sequence of transformation steps applied in order
// (steps may repeat), in the spirit of SIS scripts:
//
//   gt1; gt2; gt3(margin=2); gt4; gt2; gt5(broadcast=all); lt(no_sharing)
//
// Steps and options:
//   gt1                         loop parallelism
//   gt2 | gt2(all)              dominated-constraint removal (all: also
//                               intra-controller arcs)
//   gt3(margin=N, samples=N)    relative-timing removal (margin at most
//                               1000000000, samples at most 100000)
//   gt4                         assignment merging
//   gt5(broadcast=first|all|none, no_mux, no_sym, concred)
//                               channel elimination
//   lt(no_move_up, no_move_down, no_presel, no_acks, no_sharing)
//                               configures the local pipeline applied to
//                               every extracted controller
//
// parse() throws std::invalid_argument with a position on malformed input.

#include <string>
#include <vector>

#include "cdfg/delay.hpp"
#include "ltrans/local.hpp"
#include "transforms/pipeline.hpp"

namespace adc {

// The paper's full recipe: GT1-GT4, a GT2 cleanup pass (GT4's node merges
// can turn surviving arcs into dominated ones), GT5, then the local
// transforms.  The default of every tool and of FlowRequest.
inline constexpr const char* kPaperRecipe = "gt1; gt2; gt3; gt4; gt2; gt5; lt";

class TransformScript {
 public:
  static TransformScript parse(const std::string& source);

  // Applies the global steps in script order; returns the per-stage log
  // and the final channel plan (derived fresh if the script has no gt5).
  GlobalPipelineResult run(Cdfg& g, const DelayModel& delays = DelayModel::typical()) const;

  // --- per-step execution (the parallel runtime's stage-cache unit) -------
  // Number of parsed steps (including the `lt` step, which is a global
  // no-op — run_step returns immediately for it).
  std::size_t step_count() const { return steps_.size(); }
  // Normalized rendering of step `i` alone — a stable string suitable as a
  // content-address component.
  std::string step_string(std::size_t i) const;
  // Applies step `i` to `g`, appending its log to `res.stages` (and setting
  // `res.plan` for gt5).  Returns true when the step produced a plan.
  bool run_step(Cdfg& g, std::size_t i, const DelayModel& delays,
                GlobalPipelineResult& res) const;

  // The LT configuration collected from the script's `lt(...)` step
  // (defaults when absent).
  const LocalTransformOptions& local_options() const { return local_; }
  bool has_local_step() const { return has_lt_; }

  // Normalized rendering (for logs and round-trip tests).
  std::string to_string() const;

 private:
  struct Step {
    std::string name;
    std::vector<std::pair<std::string, std::string>> args;
  };
  std::vector<Step> steps_;
  LocalTransformOptions local_;
  bool has_lt_ = false;
};

}  // namespace adc
