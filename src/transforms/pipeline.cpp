#include "transforms/pipeline.hpp"

namespace adc {

int GlobalPipelineResult::total_arcs_removed() const {
  int n = 0;
  for (const auto& s : stages) n += s.arcs_removed;
  return n;
}

int GlobalPipelineResult::total_arcs_added() const {
  int n = 0;
  for (const auto& s : stages) n += s.arcs_added;
  return n;
}

}  // namespace adc
