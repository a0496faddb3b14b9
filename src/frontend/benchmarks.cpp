#include "frontend/benchmarks.hpp"

#include <random>

#include "frontend/builder.hpp"
#include "frontend/parser.hpp"

namespace adc {

Cdfg diffeq() {
  ProgramBuilder b("diffeq");
  FuId alu1 = b.fu("ALU1", "alu");
  FuId mul1 = b.fu("MUL1", "mul");
  FuId mul2 = b.fu("MUL2", "mul");
  FuId alu2 = b.fu("ALU2", "alu");

  // Loop condition C is initialized by the environment (C = X < a at entry)
  // and recomputed each iteration by ALU2.  Statement program order is the
  // sequential RTL program; per-FU schedules are its subsequences, matching
  // the paper's Figure 1 columns.
  b.begin_loop(alu2, "C");
  b.stmt(alu1, "B := 2dx + dx");  // B = 3*dx via shift-add, no multiplier
  b.stmt(mul1, "M1 := U * X1");
  b.stmt(mul2, "M2 := U * dx");
  b.stmt(alu2, "X := X + dx");
  b.stmt(alu1, "A := Y + M1");
  b.stmt(mul1, "M1 := A * B");
  b.stmt(alu2, "Y := Y + M2");
  b.stmt(alu2, "X1 := X");
  b.stmt(alu1, "U := U - M1");
  b.stmt(alu2, "C := X < a");
  b.end_loop();
  return b.finish();
}

std::string diffeq_source() {
  return R"(program diffeq {
  fu ALU1 : alu;
  fu MUL1 : mul;
  fu MUL2 : mul;
  fu ALU2 : alu;
  loop C on ALU2 {
    ALU1: B := 2dx + dx;    # B = 3*dx (shift-add)
    MUL1: M1 := U * X1;
    MUL2: M2 := U * dx;
    ALU2: X := X + dx;
    ALU1: A := Y + M1;
    MUL1: M1 := A * B;
    ALU2: Y := Y + M2;
    ALU2: X1 := X;
    ALU1: U := U - M1;
    ALU2: C := X < a;
  }
})";
}

Cdfg gcd() {
  return parse_program(R"(program gcd {
  fu ALU1 : alu;
  fu CMP1 : alu;
  loop C on CMP1 {
    CMP1: D := A > B;
    if D on ALU1 {
      ALU1: A := A - B;
    }
    CMP1: E := B > A;
    if E on ALU1 {
      ALU1: B := B - A;
    }
    CMP1: C := A != B;
  }
})");
}

Cdfg fir4() {
  return parse_program(R"(program fir4 {
  fu MUL1 : mul;
  fu MUL2 : mul;
  fu ALU1 : alu;
  fu ALU2 : alu;
  MUL1: P0 := X0 * K0;
  MUL2: P1 := X1 * K1;
  MUL1: P2 := X2 * K2;
  MUL2: P3 := X3 * K3;
  ALU1: S0 := P0 + P1;
  ALU2: S1 := P2 + P3;
  ALU1: Y := S0 + S1;
  ALU2: X3 := X2;
  ALU2: X2 := X1;
  ALU1: X1 := X0;
})");
}

Cdfg mac_reduce() {
  return parse_program(R"(program mac_reduce {
  fu MUL1 : mul;
  fu ALU1 : alu;
  fu ALU2 : alu;
  loop C on ALU2 {
    MUL1: P := X * K;
    ALU1: S := S + P;
    ALU1: D := S > T;
    if D on ALU1 {
      ALU1: S := S - T;
    }
    ALU2: X := X + dx;
    ALU2: C := X < N;
  }
})");
}

Cdfg ewf_lite() {
  return parse_program(R"(program ewf_lite {
  fu ALU1 : alu;
  fu ALU2 : alu;
  fu MUL1 : mul;
  fu MUL2 : mul;
  ALU1: T1 := IN + S1;
  ALU2: T2 := S2 + S3;
  MUL1: P1 := T1 * K1;
  MUL2: P2 := T2 * K2;
  ALU1: T3 := T1 + P2;
  ALU2: T4 := T2 + P1;
  MUL1: P3 := T3 * K3;
  MUL2: P4 := T4 * K1;
  ALU1: T5 := P3 + P4;
  ALU2: T6 := T5 + T3;
  ALU1: S1 := T5 + T1;
  ALU2: S2 := T6 + T4;
  ALU1: S3 := S1 + S2;
  ALU2: OUT := T6 + S3;
})");
}

Cdfg random_program(const RandomProgramParams& params, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); };

  ProgramBuilder b("random_" + std::to_string(seed));
  std::vector<FuId> alus, muls;
  for (int i = 0; i < params.alus; ++i)
    alus.push_back(b.fu("ALU" + std::to_string(i + 1), "alu"));
  for (int i = 0; i < params.mults; ++i)
    muls.push_back(b.fu("MUL" + std::to_string(i + 1), "mul"));

  std::vector<std::string> regs;
  for (int i = 0; i < params.regs; ++i) regs.push_back("r" + std::to_string(i));
  auto reg = [&] { return regs[static_cast<std::size_t>(pick(params.regs))]; };

  auto emit_random_stmts = [&](int count) {
    for (int i = 0; i < count; ++i) {
      bool mul_op = !muls.empty() && pick(3) == 0;
      FuId fu = mul_op ? muls[static_cast<std::size_t>(pick(params.mults))]
                       : alus[static_cast<std::size_t>(pick(params.alus))];
      std::string d = reg(), l = reg(), r = reg();
      const char* op = mul_op ? "*" : (pick(2) == 0 ? "+" : "-");
      if (!mul_op && pick(6) == 0 && params.moves) {
        b.stmt(fu, d + " := " + l);  // occasional pure assignment
      } else {
        b.stmt(fu, d + " := " + l + " " + op + " " + r);
      }
    }
  };

  if (params.with_loop) {
    // Count-down loop: environment initializes n > 0 and cond = 1.
    b.begin_loop(alus[0], "cond");
    emit_random_stmts(params.stmts - 2);
    b.stmt(alus[0], "n := n - 1");
    b.stmt(alus[0], "cond := 0 < n");
    b.end_loop();
  } else {
    emit_random_stmts(params.stmts);
  }
  return b.finish();
}

}  // namespace adc
