#pragma once
// Minimal recursive-descent JSON parser (DOM).  The inverse of
// report/json.hpp's writer, used where the toolchain reads or validates its
// own machine-readable artifacts: BENCH reports, disk-cached FlowPoints,
// dse profiles, access logs, traces and daemon replies, all through the
// checked JsonReader below.  Not a general-purpose parser — no streaming,
// no \uXXXX surrogate pairs beyond the BMP, numbers land in a double.

#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
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

// Reads the members of one JSON object by type and records each defect as
// one line in a caller-owned problem list, so a validator reports every
// problem of a document and a parser throws them all together
// (throw_if_problems).  A required member that is absent, or any member
// of another kind, reads "<where> missing <type> '<key>'"; an integer
// that is no value of T (see json_integer) "<where>: '<key>' is not an
// integer in range"; a caller's own check, through problem(),
// "<where>: <what>".  An empty `where` drops the prefix.  A value that is
// not an object is one problem, and every read from it is then silent.  A
// failed read returns T{} (nullptr for object/array), so reading goes on
// and the problems accumulate.
class JsonReader {
 public:
  JsonReader(const JsonValue& obj, std::string where,
             std::vector<std::string>& problems);

  // The member `key` of the given kind, or nullptr: absent (a problem only
  // if `required`) or of another kind (always a problem).
  const JsonValue* member(const char* key, JsonValue::Kind kind,
                          bool required = true) const;
  const JsonValue* object(const char* key, bool required = true) const {
    return member(key, JsonValue::Kind::kObject, required);
  }
  const JsonValue* array(const char* key, bool required = true) const {
    return member(key, JsonValue::Kind::kArray, required);
  }

  // T is std::string, bool, double or an integer type.
  template <class T>
  T required(const char* key) const {
    return read<T>(key, true).value_or(T{});
  }
  template <class T>
  std::optional<T> optional(const char* key) const {
    return read<T>(key, false);
  }

  void problem(const std::string& what) const;

 private:
  template <class T>
  std::optional<T> read(const char* key, bool required) const {
    if constexpr (std::is_same_v<T, std::string>) {
      const JsonValue* v = member(key, JsonValue::Kind::kString, required);
      return v ? std::optional<T>(v->string) : std::nullopt;
    } else if constexpr (std::is_same_v<T, bool>) {
      const JsonValue* v = member(key, JsonValue::Kind::kBool, required);
      return v ? std::optional<T>(v->boolean) : std::nullopt;
    } else if constexpr (std::is_same_v<T, double>) {
      const JsonValue* v = member(key, JsonValue::Kind::kNumber, required);
      return v ? std::optional<T>(v->number) : std::nullopt;
    } else {
      static_assert(std::is_integral_v<T>, "JsonReader reads strings, bools and numbers");
      const JsonValue* v = member(key, JsonValue::Kind::kNumber, required);
      if (!v) return std::nullopt;
      std::optional<T> n = json_integer<T>(*v);
      if (!n) problem(std::string("'") + key + "' is not an integer in range");
      return n;
    }
  }

  const JsonValue* obj_;  // null when the value was not an object
  std::string where_;
  std::vector<std::string>* problems_;
};

// Throws std::runtime_error("<what>: <p1>; <p2>; ...") unless `problems`
// is empty.
void throw_if_problems(const std::string& what,
                       const std::vector<std::string>& problems);

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
