#include "report/json_parse.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#include "report/json.hpp"

namespace adc {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (!v) throw std::runtime_error("json: missing member '" + key + "'");
  return *v;
}

namespace {

const char* kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "boolean";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "value";
}

}  // namespace

JsonReader::JsonReader(const JsonValue& obj, std::string where,
                       std::vector<std::string>& problems)
    : obj_(obj.is_object() ? &obj : nullptr),
      where_(std::move(where)),
      problems_(&problems) {
  if (!obj_) problem("not an object");
}

const JsonValue* JsonReader::member(const char* key, JsonValue::Kind kind,
                                    bool required) const {
  if (!obj_) return nullptr;
  const JsonValue* v = obj_->find(key);
  if (v && v->kind == kind) return v;
  if (v || required)
    problems_->push_back((where_.empty() ? "" : where_ + " ") + "missing " +
                         kind_name(kind) + " '" + key + "'");
  return nullptr;
}

void JsonReader::problem(const std::string& what) const {
  problems_->push_back(where_.empty() ? what : where_ + ": " + what);
}

void throw_if_problems(const std::string& what,
                       const std::vector<std::string>& problems) {
  if (problems.empty()) return;
  std::string text = what + ": ";
  for (std::size_t i = 0; i < problems.size(); ++i)
    text += (i ? "; " : "") + problems[i];
  throw std::runtime_error(text);
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  // Recursion guard: deeply nested documents must error, not smash the
  // stack.  200 levels is far beyond any report this toolchain emits.
  static constexpr int kMaxDepth = 200;

  JsonValue parse_value() {
    skip_ws();
    if (depth_ >= kMaxDepth) fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      }
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    ++depth_;
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return v;
    }
  }

  JsonValue parse_array() {
    ++depth_;
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate halves pass through raw).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_])))
      fail("bad number");
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(s_.c_str() + start, nullptr);
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) { return Parser(text).parse_document(); }

void write_json_value(JsonWriter& w, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      w.null();
      break;
    case JsonValue::Kind::kBool:
      w.value(v.boolean);
      break;
    case JsonValue::Kind::kNumber:
      // NaN/Inf have no JSON rendering: normalize to null rather than
      // emit an unparseable token (attribution ratios can divide by ~0).
      if (!std::isfinite(v.number))
        w.null();
      // Integral doubles (the common case: every counter/metric the
      // toolchain emits) round-trip as integers, not "12.000000".
      else if (std::floor(v.number) == v.number && std::abs(v.number) < 9.0e15)
        w.value(static_cast<std::int64_t>(v.number));
      else
        w.value(v.number);
      break;
    case JsonValue::Kind::kString:
      w.value(v.string);
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& e : v.array) write_json_value(w, e);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.object) {
        w.key(k);
        write_json_value(w, e);
      }
      w.end_object();
      break;
  }
}

std::string to_json(const JsonValue& v, bool pretty) {
  JsonWriter w(pretty);
  write_json_value(w, v);
  return w.str();
}

}  // namespace adc
