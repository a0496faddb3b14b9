#pragma once
// Register-transfer-level (RTL) statements as they appear in CDFG nodes.
//
// The paper's CDFG nodes carry statements of the form
//     R1 := R2 op R3        (operation node, executed by a functional unit)
//     R1 := R2              (assignment node, bypasses the functional unit)
// Operands are registers, optionally with a small constant scale factor so
// that statements like  B := 2dx + dx  (a shift-add computing 3*dx) can be
// expressed without a multiplier.  Literal integer constants are also
// supported for synthetic benchmarks.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace adc {

// Binary/unary operation kinds executable by functional units.
enum class RtlOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kLt,    // less-than comparison, writes a 0/1 condition register
  kGt,
  kEq,
  kNe,
  kShl,   // left shift
  kShr,
  kMove,  // pure register assignment R1 := R2 (no functional unit needed)
};

// True for operations that produce a 0/1 condition value (loop/if tests).
bool is_comparison(RtlOp op);

// Short printable mnemonic: "+", "-", "*", "<", ...
const char* to_string(RtlOp op);

// op(l, r): the one ALU semantics every simulator shares.  Add, sub, mul
// and shl wrap in two's complement; x / 0 is 0 and INT64_MIN / -1 is
// INT64_MIN; comparisons give 0/1; kMove passes `l` through.
std::int64_t alu_compute(RtlOp op, std::int64_t l, std::int64_t r);

// An operand: either `scale * register` or an integer literal.
struct Operand {
  enum class Kind { kReg, kConst } kind = Kind::kReg;
  std::string reg;        // register name when kind == kReg
  std::int64_t literal = 0;  // value when kind == kConst
  std::int64_t scale = 1;    // multiplier applied to the register value

  static Operand make_reg(std::string name, std::int64_t scale = 1);
  static Operand make_const(std::int64_t value);

  bool is_reg() const { return kind == Kind::kReg; }
  bool is_const() const { return kind == Kind::kConst; }

  // Evaluate given the register value (ignored for constants); the scale
  // multiplies with two's-complement wrap, as alu_compute does.
  std::int64_t eval(std::int64_t reg_value) const;

  std::string to_string() const;

  friend bool operator==(const Operand&, const Operand&) = default;
};

// A single RTL statement `dest := lhs op rhs` or `dest := lhs`.
struct RtlStatement {
  std::string dest;
  RtlOp op = RtlOp::kMove;
  Operand lhs;
  std::optional<Operand> rhs;  // absent for kMove / unary forms

  static RtlStatement binary(std::string dest, Operand lhs, RtlOp op, Operand rhs);
  static RtlStatement move(std::string dest, Operand src);

  bool is_move() const { return op == RtlOp::kMove; }

  // Registers read by this statement (deduplicated, in operand order).
  std::vector<std::string> reads() const;
  // The register written.
  const std::string& writes() const { return dest; }
  // True if the statement both reads and writes the same register.
  bool reads_its_dest() const;

  // Render as the paper writes statements, e.g. "A := Y + M1".
  std::string to_string() const;

  friend bool operator==(const RtlStatement&, const RtlStatement&) = default;
};

// Parse a statement from the textual form used by the paper and the DSL,
// e.g. "A := Y + M1", "B := 2dx + dx", "X1 := X", "C := X < a".
// Identifiers are register names; an identifier with a leading integer
// (e.g. "2dx") denotes a scaled register; a bare integer is a literal.
// Throws std::invalid_argument on malformed input.
RtlStatement parse_rtl(const std::string& text);

}  // namespace adc
