#pragma once
// Datapath model for the gate-level (controller) simulation: registers with
// input muxes, functional units with operand muxes, and the 4-phase local
// handshake responders.  Muxes are combinational — a port follows its
// selected source until the FU computes or the register latches, which is
// what makes LT3's mux preselection safe to model faithfully.

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "cdfg/cdfg.hpp"
#include "cdfg/delay.hpp"
#include "cdfg/rtl.hpp"

namespace adc {

struct FuDatapath {
  // Current combinational selections.
  std::optional<Operand> left, right;
  std::optional<RtlOp> op;       // from op-select (multi-op units)
  std::int64_t result = 0;
  bool result_valid = false;
};

struct RegisterFile {
  std::map<std::string, std::int64_t> values;

  std::int64_t eval(const Operand& o) const {
    if (o.is_const()) return o.literal;
    auto it = values.find(o.reg);
    return o.eval(it == values.end() ? 0 : it->second);
  }
};

}  // namespace adc
