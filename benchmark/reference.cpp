#include "reference.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "frontend/parser.hpp"
#include "runtime/flow.hpp"
#include "sim/golden.hpp"
#include "sim/token_sim.hpp"
#include "workloads.hpp"

namespace bench {

namespace {

// The random_program mix, defects included.
constexpr GenShape kFullMix{12, 32, 3, true};

int compare(const std::string& what, const Registers& want, const Registers& got) {
  int bad = 0;
  for (const auto& [reg, value] : want) {
    auto it = got.find(reg);
    if (it != got.end() && it->second == value) continue;
    std::printf("selftest: %s: %s expected %lld, got %s\n", what.c_str(), reg.c_str(),
                static_cast<long long>(value),
                it == got.end() ? "nothing" : std::to_string(it->second).c_str());
    ++bad;
  }
  return bad;
}

}  // namespace

const std::map<std::string, Registers>& builtin_expected() {
  static const std::map<std::string, Registers> table = [] {
    const std::string path = std::string(ADC_BENCH_DATA_DIR) + "/builtins_expected.txt";
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::map<std::string, Registers> t;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string name, kv;
      fields >> name;
      Registers& regs = t[name];
      while (fields >> kv) {
        auto eq = kv.find('=');
        if (eq == std::string::npos || eq == 0)
          throw std::runtime_error(path + ": malformed entry '" + kv + "'");
        regs[kv.substr(0, eq)] = std::stoll(kv.substr(eq + 1));
      }
    }
    for (const auto& b : adc::builtin_benchmarks())
      if (!t.count(b.name)) throw std::runtime_error(path + ": no entry for " + b.name);
    return t;
  }();
  return table;
}

int selftest() {
  int bad = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    GenProgram p = generate_program(12345, i, kFullMix);
    Registers seq = adc::run_sequential(adc::parse_program(p.source()), p.init);
    bad += compare(p.name + " interpreter vs run_sequential", interpret(p), seq);
  }
  for (const auto& b : adc::builtin_benchmarks()) {
    Registers seq = adc::run_sequential(b.make(), b.init);
    bad += compare(b.name + " expected file vs run_sequential", builtin_expected().at(b.name),
                   seq);
  }
  const auto& diffeq_init = adc::find_builtin("diffeq")->init;
  Registers golden = adc::diffeq_reference_registers(diffeq_init);
  Registers file_xyu;
  for (const char* reg : {"X", "Y", "U"}) file_xyu[reg] = builtin_expected().at("diffeq").at(reg);
  bad += compare("diffeq expected file vs diffeq_reference_registers", file_xyu, golden);
  if (interpret(move_defect_program()).at("r0") != 3) {
    std::printf("selftest: the move defect's reference is no longer r0 = 3\n");
    ++bad;
  }
  std::printf("selftest: %d disagreement(s)\n", bad);
  return bad;
}

RunResult run_defect_probe() {
  std::vector<Job> jobs;
  jobs.push_back(generated_job(move_defect_program(), kDefectKey, kFullRecipe));
  for (std::uint64_t i = 0; i < kDefectPrograms; ++i)
    jobs.push_back(
        generated_job(generate_program(kDefectKey, i, kFullMix), kDefectKey, kFullRecipe));
  RunResult r;
  for (const Job& job : jobs)
    check_point(adc::FlowExecutor(nullptr, cold_options()).run(job.req), job, r);
  return r;
}

void defects_report() {
  RunResult r = run_defect_probe();
  std::printf("defects: %zu of %zu programs fail at the full recipe\n", r.failures.total(),
              r.attempted);
  for (const auto& [cls, count] : r.failures.counts) {
    std::printf("\n== %s: %zu\n", cls.c_str(), count);
    for (const auto& ex : r.failures.examples[cls]) std::printf("%s\n", ex.c_str());
  }
}

}  // namespace bench
