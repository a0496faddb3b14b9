#include "logic/hazard_free.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "logic/memo.hpp"

namespace adc {

bool implicant_valid(const FunctionSpec& f, const Cube& p) {
  for (const auto& o : f.off)
    if (p.intersects(o)) return false;
  for (const auto& d : f.dynamic) {
    if (!p.intersects(d.t)) continue;
    const Cube& anchor = d.type == HfType::kRise ? d.b : d.a;
    if (!p.contains(anchor)) return false;
  }
  return true;
}

namespace {

// Per-call view of the spec with the OFF list reduced to its maximal
// cubes: a cube intersecting an OFF cube also intersects any OFF cube
// containing it, so only maximal ones can decide the "hits OFF?" tests
// the growth loops hammer.
struct SpecCtx {
  const FunctionSpec& f;
  std::vector<Cube> off;

  explicit SpecCtx(const FunctionSpec& spec) : f(spec) {
    off.reserve(spec.off.size());
    for (std::size_t i = 0; i < spec.off.size(); ++i) {
      bool dominated = false;
      for (std::size_t j = 0; j < spec.off.size() && !dominated; ++j)
        if (i != j && spec.off[j].contains(spec.off[i]) &&
            !(j > i && spec.off[i] == spec.off[j]))
          dominated = true;
      if (!dominated) off.push_back(spec.off[i]);
    }
  }
};

// Closes a cube under the dynamic-transition anchor rules: whenever it
// intersects a dynamic transition it absorbs the anchor point, repeating to
// a fixpoint.  Fails (false) if the closure runs into an OFF region — then
// no dhf implicant contains the cube at all.  Mutates `c` in place; no
// allocations on the fast (inline-storage) path.
bool grow_to_valid(const SpecCtx& s, Cube& c) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& o : s.off)
      if (c.intersects(o)) return false;
    for (const auto& d : s.f.dynamic) {
      if (!c.intersects(d.t)) continue;
      const Cube& anchor = d.type == HfType::kRise ? d.b : d.a;
      if (c.contains(anchor)) continue;
      c.supercube_with(anchor);
      changed = true;
    }
  }
  return true;
}

// Grows a required cube into a maximal dhf implicant by freeing variables
// in the given order (re-closing under the anchor rules after each step).
// `trial` is scratch supplied by the caller so the loop never allocates.
void expand(const SpecCtx& s, Cube& seed, const std::vector<std::size_t>& order,
            Cube& trial) {
  for (std::size_t var : order) {
    if (seed.get(var) == Cube::V::kFree) continue;
    trial = seed;
    trial.set(var, Cube::V::kFree);
    if (grow_to_valid(s, trial) && trial.contains(seed)) std::swap(seed, trial);
  }
}

// The four expansion orders (ascending, descending, two rotations) used to
// diversify the candidate pool.
std::vector<std::vector<std::size_t>> expansion_orders(std::size_t vars) {
  std::vector<std::vector<std::size_t>> orders;
  std::vector<std::size_t> ascending(vars), descending(vars);
  for (std::size_t i = 0; i < vars; ++i) {
    ascending[i] = i;
    descending[i] = vars - 1 - i;
  }
  orders.push_back(std::move(ascending));
  orders.push_back(std::move(descending));
  for (std::size_t rot : {vars / 3, (2 * vars) / 3}) {
    std::vector<std::size_t> rotated(vars);
    for (std::size_t i = 0; i < vars; ++i) rotated[i] = (i + rot) % vars;
    orders.push_back(std::move(rotated));
  }
  return orders;
}

// Candidate pool from pre-grown seeds (one per realizable required cube),
// deduplicated through a hash set and returned in the canonical ascending
// cube order the covering step iterates in.
std::vector<Cube> candidates_from_seeds(const SpecCtx& s, const std::vector<Cube>& seeds,
                                        const CancelToken* cancel) {
  auto orders = expansion_orders(s.f.vars);
  CubeSet pool(seeds.size() * orders.size());
  Cube grown, trial;
  for (const auto& seed : seeds) {
    if (cancel) cancel->throw_if_cancelled();
    for (const auto& order : orders) {
      grown = seed;
      expand(s, grown, order, trial);
      pool.insert(grown);
    }
  }
  return pool.sorted();
}

// Packed covers-of rows: bit r of row c says candidate c contains reduced
// requirement r.  Greedy gain becomes a popcount loop over these words.
struct CoverMatrix {
  std::size_t n_req = 0;
  std::size_t req_words = 0;
  std::size_t n_cand = 0;
  std::vector<std::uint64_t> rows;  // n_cand * req_words
  std::vector<std::size_t> lits;    // literal_count per candidate

  CoverMatrix(const std::vector<Cube>& candidates, const std::vector<Cube>& reduced)
      : n_req(reduced.size()),
        req_words((reduced.size() + 63) / 64),
        n_cand(candidates.size()),
        rows(candidates.size() * req_words, 0),
        lits(candidates.size()) {
    for (std::size_t c = 0; c < n_cand; ++c) {
      lits[c] = candidates[c].literal_count();
      std::uint64_t* row = &rows[c * req_words];
      for (std::size_t r = 0; r < n_req; ++r)
        if (candidates[c].contains(reduced[r])) row[r / 64] |= std::uint64_t{1} << (r % 64);
    }
  }

  const std::uint64_t* row(std::size_t c) const { return &rows[c * req_words]; }

  std::size_t gain(std::size_t c, const std::vector<std::uint64_t>& covered) const {
    const std::uint64_t* r = row(c);
    std::size_t g = 0;
    for (std::size_t w = 0; w < req_words; ++w)
      g += static_cast<std::size_t>(__builtin_popcountll(r[w] & ~covered[w]));
    return g;
  }
};

}  // namespace

std::vector<Cube> candidate_implicants(const FunctionSpec& f,
                                       const CancelToken* cancel) {
  SpecCtx s(f);
  std::vector<Cube> seeds;
  seeds.reserve(f.required.size());
  for (const auto& r : f.required) {
    if (cancel) cancel->throw_if_cancelled();
    Cube seed = r;
    if (!grow_to_valid(s, seed)) continue;  // unrealizable; reported by covering
    seeds.push_back(std::move(seed));
  }
  return candidates_from_seeds(s, seeds, cancel);
}

CoverResult minimize_hazard_free(const FunctionSpec& f, const CoverOptions& opts) {
  Fingerprint memo_key;
  if (opts.memo) {
    memo_key = spec_fingerprint(f);
    if (auto hit = opts.memo->lookup(memo_key)) {
      CoverResult res;
      res.feasible = hit->feasible;
      res.products = hit->products;
      res.issues.reserve(hit->issue_suffixes.size());
      for (const auto& s : hit->issue_suffixes) res.issues.push_back(f.name + ": " + s);
      return res;
    }
  }

  CoverResult res;
  std::vector<std::string> issue_suffixes;
  auto finish = [&]() -> CoverResult& {
    for (const auto& s : issue_suffixes) res.issues.push_back(f.name + ": " + s);
    if (opts.memo) {
      auto entry = std::make_shared<LogicMemo::Entry>();
      entry->feasible = res.feasible;
      entry->products = res.products;
      entry->issue_suffixes = std::move(issue_suffixes);
      opts.memo->fill(memo_key, std::move(entry));
    }
    return res;
  };

  SpecCtx s(f);

  // Spec sanity: a required cube whose anchor closure runs into an OFF
  // region cannot be inside any dhf implicant — a genuine contradiction.
  // The successful closures double as the expansion seeds below.
  std::vector<Cube> required, seeds;
  for (const auto& r : f.required) {
    Cube seed = r;
    if (!grow_to_valid(s, seed)) {
      res.feasible = false;
      issue_suffixes.push_back("required cube " + r.to_string() +
                               " cannot be contained in any dhf implicant");
      continue;
    }
    required.push_back(r);
    seeds.push_back(std::move(seed));
  }
  // Drop required cubes contained in other required cubes.
  std::vector<Cube> reduced;
  for (const auto& r : required) {
    bool dominated = false;
    for (const auto& other : required)
      if (!(other == r) && other.contains(r)) dominated = true;
    if (!dominated) reduced.push_back(r);
  }
  std::sort(reduced.begin(), reduced.end());
  reduced.erase(std::unique(reduced.begin(), reduced.end()), reduced.end());
  if (reduced.empty()) return finish();  // constant-0 (or fully unrealizable)

  auto candidates = candidates_from_seeds(s, seeds, opts.cancel);
  CoverMatrix m(candidates, reduced);

  // Greedy covering: most new requirements per pick, fewest literals on tie.
  std::vector<std::uint64_t> covered(m.req_words, 0);
  std::size_t covered_count = 0;
  while (covered_count < m.n_req) {
    if (opts.cancel) opts.cancel->throw_if_cancelled();
    std::size_t best_c = m.n_cand;
    std::size_t best_gain = 0;
    std::size_t best_lits = std::numeric_limits<std::size_t>::max();
    for (std::size_t c = 0; c < m.n_cand; ++c) {
      std::size_t gain = m.gain(c, covered);
      if (gain == 0) continue;
      std::size_t lits = m.lits[c];
      if (gain > best_gain || (gain == best_gain && lits < best_lits)) {
        best_c = c;
        best_gain = gain;
        best_lits = lits;
      }
    }
    if (best_c == m.n_cand) {
      res.feasible = false;
      issue_suffixes.push_back("covering failed (no candidate for a requirement)");
      break;
    }
    res.products.push_back(candidates[best_c]);
    const std::uint64_t* row = m.row(best_c);
    for (std::size_t w = 0; w < m.req_words; ++w) covered[w] |= row[w];
    covered_count += best_gain;
  }
  return finish();
}

}  // namespace adc
