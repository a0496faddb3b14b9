#include "area/area_model.hpp"

namespace adc {

std::size_t ControllerArea::transistor_estimate() const {
  return 2 * literals + 2 * products + 8 * state_bits + 4 * outputs;
}

}  // namespace adc
