#pragma once
// The seed state-assignment search, kept as a differential reference for
// test_encoding (see encoding_reference.cpp).

#include "logic/encoding.hpp"

namespace adc {

Encoding reference_assign_codes(const ConcreteMachine& cm);

}  // namespace adc
