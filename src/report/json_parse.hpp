#pragma once
// Minimal recursive-descent JSON parser (DOM).  The inverse of
// report/json.hpp's writer, used where the toolchain must validate its own
// machine-readable artifacts: the trace/provenance schema tests and the
// adc_obs_check CI validator.  Not a general-purpose parser — no streaming,
// no \uXXXX surrogate pairs beyond the BMP, numbers land in a double.

#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace adc {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  // Member order preserved (duplicate keys kept; find returns the first).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  // First member with the given key, or nullptr (also when not an object).
  const JsonValue* find(const std::string& key) const;
  // find() that throws std::runtime_error when the member is missing.
  const JsonValue& at(const std::string& key) const;
};

// The value as an integer of type T, or nothing unless it is a number that
// is finite, integral and representable in T.  Converting an out-of-range
// double to an integer is undefined behaviour, so every integer taken from
// untrusted JSON goes through here.
template <class T>
std::optional<T> json_integer(const JsonValue& v) {
  // NaN fails the trunc test, infinities the range [min, 2^digits), whose
  // bounds are exact doubles.
  if (!v.is_number() || std::trunc(v.number) != v.number ||
      v.number < static_cast<double>(std::numeric_limits<T>::min()) ||
      v.number >= std::ldexp(1.0, std::numeric_limits<T>::digits))
    return std::nullopt;
  return static_cast<T>(v.number);
}

// Parses one JSON document; trailing non-whitespace is an error.  Throws
// std::runtime_error with a byte offset on malformed input.
JsonValue parse_json(const std::string& text);

// Re-serializes a parsed value through the streaming writer (member order
// preserved).  This is how the serving layer relays sub-documents — a
// stored FlowPoint, an embedded metrics object — without re-parsing them
// into their native structs.  Numbers render as integers when the double
// holds one exactly, so round-tripped documents keep integer fields
// integral.
void write_json_value(class JsonWriter& w, const JsonValue& v);
std::string to_json(const JsonValue& v, bool pretty = false);

}  // namespace adc
