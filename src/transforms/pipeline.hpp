#pragma once
// The result of a global-transformation run (paper §2.3 step 1): the
// per-stage log and the final channel plan.  A recipe is a TransformScript
// (transforms/script.hpp); TransformScript::run applies a whole recipe and
// run_step one step of it.

#include "channel/channel.hpp"
#include "transforms/transform.hpp"

namespace adc {

struct GlobalPipelineResult {
  std::vector<TransformResult> stages;
  ChannelPlan plan;  // the final channel assignment (unoptimized if no gt5)

  int total_arcs_removed() const;
  int total_arcs_added() const;
};

}  // namespace adc
