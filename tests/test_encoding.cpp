// State assignment: the hypercube embedding search and its fallback, the
// embeddability proof that lets it skip a walk that cannot succeed, and a
// differential check against the seed search (encoding_reference.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <set>
#include <sstream>

#include "encoding_reference.hpp"
#include "extract/extract.hpp"
#include "frontend/benchmarks.hpp"
#include "logic/encoding.hpp"
#include "ltrans/local.hpp"
#include "runtime/flow.hpp"
#include "transforms/pipeline.hpp"
#include "transforms/script.hpp"

namespace adc {
namespace {

// A ring machine of the given length over one toggling wire pair (even
// lengths close their phases).
ConcreteMachine ring_machine(int n) {
  Xbm m("ring");
  SignalId a = m.add_signal("a", SignalKind::kInput, SignalRole::kGlobalReady);
  SignalId y = m.add_signal("y", SignalKind::kOutput, SignalRole::kGlobalReady);
  std::vector<StateId> states;
  for (int i = 0; i < n; ++i) states.push_back(m.add_state());
  m.set_initial(states[0]);
  for (int i = 0; i < n; ++i)
    m.add_transition(states[static_cast<std::size_t>(i)],
                     states[static_cast<std::size_t>((i + 1) % n)], {toggle(a)},
                     {toggle(y)});
  return concretize(m);
}

class RingEncoding : public ::testing::TestWithParam<int> {};

TEST_P(RingEncoding, EvenRingsEmbedDistanceOne) {
  // Even-length cycles embed in the hypercube: every transition must be a
  // single-bit change.
  auto cm = ring_machine(GetParam());
  auto enc = assign_codes(cm);
  EXPECT_EQ(enc.distance1, enc.total) << "cycle of length " << cm.states.size();
}

INSTANTIATE_TEST_SUITE_P(EvenRings, RingEncoding, ::testing::Values(2, 4, 6, 8, 12, 16));

TEST(Encoding, CodesAlwaysUniqueAndInRange) {
  for (int n : {2, 3, 5, 9, 17}) {
    auto cm = ring_machine(n % 2 ? n + 1 : n);  // keep phases closable
    auto enc = assign_codes(cm);
    std::set<std::uint32_t> codes(enc.code.begin(), enc.code.end());
    EXPECT_EQ(codes.size(), cm.states.size());
    for (auto c : codes) EXPECT_LT(c, 1u << enc.bits);
  }
}

TEST(Encoding, DiffeqControllersMostlyDistanceOne) {
  Cdfg g = diffeq();
  auto res = run_global_transforms(g);
  for (auto& c : extract_controllers(g, res.plan)) {
    run_local_transforms(c);
    auto cm = concretize(c.machine, &c.bindings);
    auto enc = assign_codes(cm);
    EXPECT_GE(enc.distance1 * 10, enc.total * 8)
        << c.machine.name() << ": " << enc.distance1 << "/" << enc.total;
  }
}

TEST(Encoding, BitCountIsMinimal) {
  auto cm = ring_machine(8);
  auto enc = assign_codes(cm);
  EXPECT_EQ(enc.bits, 3u);
  auto cm2 = ring_machine(16);
  EXPECT_EQ(assign_codes(cm2).bits, 4u);
}

// --- graph helpers ------------------------------------------------------------

using Graph = std::vector<std::vector<std::size_t>>;
using Edges = std::vector<std::pair<std::size_t, std::size_t>>;

// Sorted, duplicate-free neighbour lists without self-loops: the shape
// hypercube_embeddable takes.
Graph graph(std::size_t n, const Edges& edges) {
  Graph g(n);
  for (auto [a, b] : edges) {
    if (a == b) continue;
    g[a].push_back(b);
    g[b].push_back(a);
  }
  for (auto& nbs : g) {
    std::sort(nbs.begin(), nbs.end());
    nbs.erase(std::unique(nbs.begin(), nbs.end()), nbs.end());
  }
  return g;
}

Graph ring(std::size_t n) {
  Edges e;
  for (std::size_t i = 0; i < n; ++i) e.emplace_back(i, (i + 1) % n);
  return graph(n, e);
}

Graph transition_graph(const ConcreteMachine& cm) {
  Edges e;
  for (const auto& t : cm.transitions) e.emplace_back(t.from, t.to);
  return graph(cm.states.size(), e);
}

std::size_t min_bits(std::size_t n) {
  std::size_t bits = 1;
  while ((std::size_t{1} << bits) < n) ++bits;
  return bits;
}

// --- differential: the production encoder against the seed search ----------

struct NamedMachine {
  std::string name;
  ConcreteMachine cm;
};

// Every controller of `g` under `recipe`, concretized as the logic stage
// sees it.
std::vector<NamedMachine> concretized(Cdfg g, const std::string& recipe) {
  TransformScript script = TransformScript::parse(recipe);
  GlobalPipelineResult res = script.run(g);
  std::vector<NamedMachine> out;
  for (auto& c : extract_controllers(g, res.plan)) {
    if (script.has_local_step()) run_local_transforms(c, script.local_options());
    out.push_back({c.machine.name(), concretize(c.machine, &c.bindings)});
  }
  return out;
}

// The encoding depends only on the state count, the initial state and the
// transition endpoints; machines equal in those are compared once.
std::string shape_key(const ConcreteMachine& cm) {
  std::ostringstream k;
  k << cm.states.size() << '/' << cm.initial;
  for (const auto& t : cm.transitions) k << ' ' << t.from << '>' << t.to;
  return k.str();
}

class SeedDifferential {
 public:
  // Compares one machine (unless an equal shape was already compared).
  void check(const NamedMachine& m, const std::string& where) {
    if (!shapes_.insert(shape_key(m.cm)).second) return;
    ++compared_;
    Encoding got = assign_codes(m.cm);
    Encoding want = reference_assign_codes(m.cm);
    bool same = got.bits == want.bits && got.code == want.code &&
                got.distance1 == want.distance1 && got.total == want.total;
    if (!same) ++mismatches_;
    EXPECT_TRUE(same) << where << " " << m.name << ": " << got.distance1 << "/"
                      << got.total << " vs seed " << want.distance1 << "/"
                      << want.total;
  }
  int compared() const { return compared_; }
  int mismatches() const { return mismatches_; }

 private:
  std::set<std::string> shapes_;
  int compared_ = 0;
  int mismatches_ = 0;
};

TEST(EncodingDifferential, BuiltinsUnderEveryGridRecipeMatchSeed) {
  std::vector<std::string> recipes = gt_ablation_grid(true);
  for (const auto& r : gt_ablation_grid(false))
    if (!r.empty()) recipes.push_back(r);
  SeedDifferential diff;
  for (const auto& b : builtin_benchmarks())
    for (const auto& recipe : recipes)
      for (const auto& m : concretized(b.make(), recipe))
        diff.check(m, b.name + " [" + recipe + "]");
  EXPECT_EQ(diff.mismatches(), 0);
  EXPECT_GT(diff.compared(), 50);
}

TEST(EncodingDifferential, RandomProgramsMatchSeed) {
  SeedDifferential diff;
  std::uint64_t seed = 1;
  for (int stmts = 12; stmts <= 32; stmts += 4)
    for (int alus = 2; alus <= 3; ++alus)
      for (int k = 0; k < 8; ++k, ++seed) {
        RandomProgramParams p;
        p.alus = alus;
        p.stmts = stmts;
        std::vector<NamedMachine> machines;
        try {
          machines = concretized(random_program(p, seed), "gt1; gt2; gt3; gt4; gt2; gt5; lt");
        } catch (const std::exception&) {
          continue;  // refused before encoding (the known LT defect)
        }
        for (const auto& m : machines)
          diff.check(m, "random_program(" + std::to_string(stmts) + " stmts, " +
                            std::to_string(alus) + " ALUs, seed " +
                            std::to_string(seed) + ")");
      }
  EXPECT_EQ(diff.mismatches(), 0);
  EXPECT_GT(diff.compared(), 40);
}

// The two library controllers on which the walk spends its whole budget
// (no distance-1 embedding exists): both now skip it on the proof, and
// their greedy codes must be the seed's.
TEST(EncodingDifferential, BudgetExhaustingControllersKeepGreedyCodes) {
  struct Case {
    const char* benchmark;
    int distance1, total;
  };
  for (const Case& k : {Case{"gcd", 22, 26}, Case{"mac_reduce", 31, 34}}) {
    bool found = false;
    for (const auto& m :
         concretized(find_builtin(k.benchmark)->make(), "gt1; gt2; gt3; gt4; gt2; gt5; lt")) {
      if (m.name != "ALU1") continue;
      found = true;
      Encoding got = assign_codes(m.cm);
      Encoding want = reference_assign_codes(m.cm);
      EXPECT_EQ(hypercube_embeddable(transition_graph(m.cm), got.bits), Embeddable::kNo)
          << k.benchmark;
      EXPECT_EQ(got.code, want.code) << k.benchmark;
      EXPECT_EQ(got.distance1, k.distance1) << k.benchmark;
      EXPECT_EQ(got.total, k.total) << k.benchmark;
      EXPECT_EQ(want.distance1, k.distance1) << k.benchmark;
      EXPECT_EQ(want.total, k.total) << k.benchmark;
    }
    EXPECT_TRUE(found) << k.benchmark;
  }
}

// --- the embeddability proof ---------------------------------------------------

// Unbudgeted backtracking over every injective code assignment.
bool embeds_exhaustively(const Graph& g, std::size_t bits) {
  const std::uint32_t codes = std::uint32_t{1} << bits;
  std::vector<std::uint32_t> code(g.size());
  std::vector<bool> used(codes, false);
  std::function<bool(std::size_t)> place = [&](std::size_t v) {
    if (v == g.size()) return true;
    for (std::uint32_t c = 0; c < codes; ++c) {
      if (used[c]) continue;
      bool ok = true;
      for (std::size_t u : g[v])
        if (u < v && __builtin_popcount(c ^ code[u]) != 1) ok = false;
      if (!ok) continue;
      code[v] = c;
      used[c] = true;
      if (place(v + 1)) return true;
      used[c] = false;
    }
    return false;
  };
  return place(0);
}

TEST(EmbeddingProof, AgreesWithExhaustiveSearchOnSmallGraphs) {
  std::mt19937_64 rng(7);
  int infeasible = 0, feasible = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = 2 + rng() % 9;  // 2..10 states
    std::size_t bits = min_bits(n);
    bits += rng() % (5 - bits);  // up to 4 bits
    // Sparse like a controller: a path through every state plus a few chords.
    Edges e;
    for (std::size_t i = 0; i + 1 < n; ++i) e.emplace_back(i, i + 1);
    for (std::size_t chords = rng() % (n + 1); chords > 0; --chords)
      e.emplace_back(rng() % n, rng() % n);
    const Graph g = graph(n, e);
    const bool exists = embeds_exhaustively(g, bits);
    EXPECT_EQ(hypercube_embeddable(g, bits), exists ? Embeddable::kYes : Embeddable::kNo)
        << "trial " << trial << ": " << n << " states, " << bits << " bits";
    ++(exists ? feasible : infeasible);
  }
  // Both verdicts are exercised.
  EXPECT_GT(feasible, 50);
  EXPECT_GT(infeasible, 50);
}

TEST(EmbeddingProof, RefusesOddCycles) {
  for (std::size_t n : {3u, 5u, 7u, 9u, 15u})
    for (std::size_t bits = 3; bits <= 5; ++bits)
      if ((std::size_t{1} << bits) >= n) {
        EXPECT_EQ(hypercube_embeddable(ring(n), bits), Embeddable::kNo) << n;
      }
}

TEST(EmbeddingProof, FindsEvenRings) {
  for (std::size_t n : {2u, 4u, 6u, 8u, 12u, 16u, 32u})
    EXPECT_EQ(hypercube_embeddable(ring(n), min_bits(n)), Embeddable::kYes) << n;
}

}  // namespace
}  // namespace adc
