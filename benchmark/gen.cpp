#include "gen.hpp"

#include <sstream>
#include <utility>

namespace bench {

std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t& state) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[mix64(state) % i]);
  return order;
}

namespace {

int uniform(std::uint64_t& state, int lo, int hi) {
  return lo + static_cast<int>(mix64(state) % static_cast<std::uint64_t>(hi - lo + 1));
}

const char* op_text(GenStmt::Op op) {
  switch (op) {
    case GenStmt::Op::kAdd: return "+";
    case GenStmt::Op::kSub: return "-";
    case GenStmt::Op::kMul: return "*";
    case GenStmt::Op::kMove: return "";
  }
  return "";
}

}  // namespace

std::string GenProgram::source() const {
  std::ostringstream out;
  out << "program " << name << " {\n";
  for (const auto& a : alus) out << "  fu " << a << " : alu;\n";
  for (const auto& m : muls) out << "  fu " << m << " : mul;\n";
  out << "  loop cond on " << alus.front() << " {\n";
  for (const auto& s : body) {
    out << "    " << s.fu << ": " << s.dest << " := " << s.lhs;
    if (s.op != GenStmt::Op::kMove) out << ' ' << op_text(s.op) << ' ' << s.rhs;
    out << ";\n";
  }
  out << "    " << alus.front() << ": n := n - 1;\n";
  out << "    " << alus.front() << ": cond := 0 < n;\n";
  out << "  }\n}\n";
  return out.str();
}

GenProgram generate_program(std::uint64_t seed, std::uint64_t index,
                            const GenShape& shape) {
  std::uint64_t st = seed * 0x100000001b3ull ^ (index + 1) * 0x9e3779b97f4a7c15ull;
  mix64(st);
  GenProgram p;
  p.name = "gen_" + std::to_string(seed) + "_" + std::to_string(index);
  int alus = uniform(st, 2, shape.max_alus);
  int muls = uniform(st, 1, 2);
  int regs = uniform(st, 6, 8);
  // Sizes cycle with the index rather than being drawn, so any window of
  // consecutive programs covers the size range evenly whatever the seed.
  int stmts = shape.min_stmts +
              static_cast<int>(index % static_cast<std::uint64_t>(
                                           shape.max_stmts - shape.min_stmts + 1));
  for (int i = 0; i < alus; ++i) p.alus.push_back("ALU" + std::to_string(i + 1));
  for (int i = 0; i < muls; ++i) p.muls.push_back("MUL" + std::to_string(i + 1));
  auto reg = [&] { return "r" + std::to_string(uniform(st, 0, regs - 1)); };
  // The random_program mix: one statement in three on a multiplier, the
  // rest on an ALU as + or -, with an occasional pure move.
  for (int i = 0; i < stmts - 2; ++i) {
    GenStmt s;
    bool mul = uniform(st, 0, 2) == 0;
    s.fu = mul ? p.muls[static_cast<std::size_t>(uniform(st, 0, muls - 1))]
               : p.alus[static_cast<std::size_t>(uniform(st, 0, alus - 1))];
    s.dest = reg();
    s.lhs = reg();
    s.rhs = reg();
    s.op = mul ? GenStmt::Op::kMul
               : (uniform(st, 0, 1) == 0 ? GenStmt::Op::kAdd : GenStmt::Op::kSub);
    // The draw is made even without moves, so both shapes of one index
    // share every other choice.
    if (!mul && uniform(st, 0, 5) == 0 && shape.moves) {
      s.op = GenStmt::Op::kMove;
      s.rhs.clear();
    }
    p.body.push_back(std::move(s));
  }
  for (int i = 0; i < regs; ++i) p.init["r" + std::to_string(i)] = 0;
  p.init["n"] = 3;
  p.init["cond"] = 1;
  draw_registers(p, seed);
  return p;
}

namespace {

// The loop run to completion with wrapping 64-bit arithmetic; `overflowed`
// tells whether any result wrapped.
Registers evaluate(const GenProgram& p, bool& overflowed) {
  overflowed = false;
  Registers r = p.init;
  while (r["cond"] != 0) {
    for (const auto& s : p.body) {
      std::int64_t l = r[s.lhs], v = l;
      std::int64_t rhs = s.rhs.empty() ? 0 : r[s.rhs];
      switch (s.op) {
        case GenStmt::Op::kAdd: overflowed |= __builtin_add_overflow(l, rhs, &v); break;
        case GenStmt::Op::kSub: overflowed |= __builtin_sub_overflow(l, rhs, &v); break;
        case GenStmt::Op::kMul: overflowed |= __builtin_mul_overflow(l, rhs, &v); break;
        case GenStmt::Op::kMove: break;
      }
      r[s.dest] = v;
    }
    r["n"] -= 1;  // counts down from 3
    r["cond"] = 0 < r["n"] ? 1 : 0;
  }
  return r;
}

}  // namespace

void draw_registers(GenProgram& p, std::uint64_t seed) {
  std::uint64_t st = seed * 0x9e3779b97f4a7c15ull;
  for (char c : p.name) st = st * 131 + static_cast<unsigned char>(c);
  mix64(st);
  // Narrower ranges until no result leaves 64 bits, so that nothing rests
  // on how a simulator treats signed overflow; all zeros always fit.
  for (int range : {9, 9, 9, 9, 3, 3, 3, 3, 1, 1, 1, 1, 0}) {
    for (auto& [reg, value] : p.init)
      if (reg != "n" && reg != "cond") value = uniform(st, -range, range);
    bool overflowed = false;
    evaluate(p, overflowed);
    if (!overflowed) return;
  }
}

Registers interpret(const GenProgram& p) {
  bool overflowed = false;
  return evaluate(p, overflowed);
}

GenProgram move_defect_program() {
  GenProgram p;
  p.name = "move_defect";
  p.alus = {"ALU1"};
  p.body = {{"ALU1", "r0", "r2", "r0", GenStmt::Op::kSub},
            {"ALU1", "r0", "r2", "", GenStmt::Op::kMove}};
  p.init = {{"r0", 1}, {"r2", 3}, {"n", 1}, {"cond", 1}};
  return p;
}

}  // namespace bench
