#include "cdfg/rtl.hpp"

#include <cctype>
#include <stdexcept>

namespace adc {

bool is_comparison(RtlOp op) {
  return op == RtlOp::kLt || op == RtlOp::kGt || op == RtlOp::kEq || op == RtlOp::kNe;
}

const char* to_string(RtlOp op) {
  switch (op) {
    case RtlOp::kAdd: return "+";
    case RtlOp::kSub: return "-";
    case RtlOp::kMul: return "*";
    case RtlOp::kDiv: return "/";
    case RtlOp::kLt: return "<";
    case RtlOp::kGt: return ">";
    case RtlOp::kEq: return "==";
    case RtlOp::kNe: return "!=";
    case RtlOp::kShl: return "<<";
    case RtlOp::kShr: return ">>";
    case RtlOp::kMove: return ":=";
  }
  return "?";
}

Operand Operand::make_reg(std::string name, std::int64_t scale) {
  Operand o;
  o.kind = Kind::kReg;
  o.reg = std::move(name);
  o.scale = scale;
  return o;
}

Operand Operand::make_const(std::int64_t value) {
  Operand o;
  o.kind = Kind::kConst;
  o.literal = value;
  return o;
}

namespace {

// Two's-complement wrap: the arithmetic runs in uint64_t, where overflow
// is defined, and converts back (modular since C++20).
std::int64_t wrap_add(std::int64_t l, std::int64_t r) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(l) + static_cast<std::uint64_t>(r));
}
std::int64_t wrap_sub(std::int64_t l, std::int64_t r) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(l) - static_cast<std::uint64_t>(r));
}
std::int64_t wrap_mul(std::int64_t l, std::int64_t r) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(l) * static_cast<std::uint64_t>(r));
}

}  // namespace

std::int64_t alu_compute(RtlOp op, std::int64_t l, std::int64_t r) {
  switch (op) {
    case RtlOp::kAdd: return wrap_add(l, r);
    case RtlOp::kSub: return wrap_sub(l, r);
    case RtlOp::kMul: return wrap_mul(l, r);
    case RtlOp::kDiv:
      if (r == 0) return 0;
      if (r == -1) return wrap_sub(0, l);  // INT64_MIN / -1 wraps to INT64_MIN
      return l / r;
    case RtlOp::kLt: return l < r ? 1 : 0;
    case RtlOp::kGt: return l > r ? 1 : 0;
    case RtlOp::kEq: return l == r ? 1 : 0;
    case RtlOp::kNe: return l != r ? 1 : 0;
    case RtlOp::kShl: return static_cast<std::int64_t>(static_cast<std::uint64_t>(l) << (r & 63));
    case RtlOp::kShr: return l >> (r & 63);
    case RtlOp::kMove: return l;
  }
  return 0;
}

std::int64_t Operand::eval(std::int64_t reg_value) const {
  return is_const() ? literal : wrap_mul(scale, reg_value);
}

std::string Operand::to_string() const {
  if (is_const()) return std::to_string(literal);
  if (scale == 1) return reg;
  return std::to_string(scale) + reg;
}

RtlStatement RtlStatement::binary(std::string dest, Operand lhs, RtlOp op, Operand rhs) {
  RtlStatement s;
  s.dest = std::move(dest);
  s.op = op;
  s.lhs = std::move(lhs);
  s.rhs = std::move(rhs);
  return s;
}

RtlStatement RtlStatement::move(std::string dest, Operand src) {
  RtlStatement s;
  s.dest = std::move(dest);
  s.op = RtlOp::kMove;
  s.lhs = std::move(src);
  return s;
}

std::vector<std::string> RtlStatement::reads() const {
  std::vector<std::string> out;
  auto add = [&out](const Operand& o) {
    if (!o.is_reg()) return;
    for (const auto& r : out)
      if (r == o.reg) return;
    out.push_back(o.reg);
  };
  add(lhs);
  if (rhs) add(*rhs);
  return out;
}

bool RtlStatement::reads_its_dest() const {
  for (const auto& r : reads())
    if (r == dest) return true;
  return false;
}

std::string RtlStatement::to_string() const {
  std::string out = dest + " := " + lhs.to_string();
  if (rhs) {
    out += ' ';
    out += adc::to_string(op);
    out += ' ';
    out += rhs->to_string();
  }
  return out;
}

namespace {

struct Lexer {
  const std::string& text;
  std::size_t pos = 0;

  explicit Lexer(const std::string& t) : text(t) {}

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }

  bool eof() {
    skip_ws();
    return pos >= text.size();
  }

  char peek() {
    skip_ws();
    return pos < text.size() ? text[pos] : '\0';
  }

  bool consume(const char* s) {
    skip_ws();
    std::size_t n = 0;
    while (s[n] != '\0') ++n;
    if (text.compare(pos, n, s) == 0) {
      pos += n;
      return true;
    }
    return false;
  }

  // Identifier: letters/digits/underscore, starting with a letter or '_'.
  std::string ident() {
    skip_ws();
    std::size_t start = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) || text[pos] == '_'))
      ++pos;
    return text.substr(start, pos - start);
  }

  std::int64_t integer() {
    skip_ws();
    std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    while (pos < text.size() && std::isdigit(static_cast<unsigned char>(text[pos]))) ++pos;
    return std::stoll(text.substr(start, pos - start));
  }
};

Operand parse_operand(Lexer& lex) {
  lex.skip_ws();
  if (lex.pos >= lex.text.size())
    throw std::invalid_argument("rtl: missing operand in '" + lex.text + "'");
  char c = lex.text[lex.pos];
  if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
    std::int64_t value = lex.integer();
    // A register name directly following a number denotes a scaled register,
    // as in the paper's "2dx".
    if (lex.pos < lex.text.size() &&
        (std::isalpha(static_cast<unsigned char>(lex.text[lex.pos])) || lex.text[lex.pos] == '_')) {
      return Operand::make_reg(lex.ident(), value);
    }
    return Operand::make_const(value);
  }
  std::string name = lex.ident();
  if (name.empty())
    throw std::invalid_argument("rtl: malformed operand in '" + lex.text + "'");
  return Operand::make_reg(std::move(name));
}

}  // namespace

RtlStatement parse_rtl(const std::string& text) {
  Lexer lex(text);
  std::string dest = lex.ident();
  if (dest.empty()) throw std::invalid_argument("rtl: missing destination in '" + text + "'");
  if (!lex.consume(":=")) throw std::invalid_argument("rtl: missing ':=' in '" + text + "'");
  Operand lhs = parse_operand(lex);
  if (lex.eof()) return RtlStatement::move(std::move(dest), std::move(lhs));

  RtlOp op;
  if (lex.consume("==")) op = RtlOp::kEq;
  else if (lex.consume("!=")) op = RtlOp::kNe;
  else if (lex.consume("<<")) op = RtlOp::kShl;
  else if (lex.consume(">>")) op = RtlOp::kShr;
  else if (lex.consume("+")) op = RtlOp::kAdd;
  else if (lex.consume("-")) op = RtlOp::kSub;
  else if (lex.consume("*")) op = RtlOp::kMul;
  else if (lex.consume("/")) op = RtlOp::kDiv;
  else if (lex.consume("<")) op = RtlOp::kLt;
  else if (lex.consume(">")) op = RtlOp::kGt;
  else throw std::invalid_argument("rtl: unknown operator in '" + text + "'");

  Operand rhs = parse_operand(lex);
  if (!lex.eof()) throw std::invalid_argument("rtl: trailing input in '" + text + "'");
  return RtlStatement::binary(std::move(dest), std::move(lhs), op, std::move(rhs));
}

}  // namespace adc
