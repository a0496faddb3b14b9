#include "logic/hazard_free.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "logic/columns.hpp"
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

using namespace detail;

void clear_bit(Word* mask, std::size_t i) { mask[i / 64] &= ~(Word{1} << (i % 64)); }

std::vector<const Cube*> pointers(const std::vector<Cube>& cubes) {
  std::vector<const Cube*> out;
  out.reserve(cubes.size());
  for (const auto& c : cubes) out.push_back(&c);
  return out;
}

// The cubes of `cubes` that no other cube contains, in list order, one of
// each value (the first).  Used for the OFF list — a cube meeting an OFF
// cube also meets every OFF cube containing it, so "hits OFF?" against the
// maximal ones is exact — and for the required cubes, where a product
// holding a cube holds every cube inside it.
std::vector<const Cube*> maximal(const std::vector<Cube>& cubes, std::size_t vars,
                                  std::size_t cube_words) {
  const Columns all(pointers(cubes), vars, cube_words);
  std::vector<Word> bad(all.words);
  std::vector<const Cube*> out;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    // Cube j fails to contain cube i at a variable where i admits a value
    // j is not fixed to.
    const Word* c = cubes[i].words();
    std::fill(bad.begin(), bad.end(), Word{0});
    for (std::size_t var = 0; var < vars; ++var) {
      const Word* r0 = all.row(var, false);
      const Word* r1 = all.row(var, true);
      const Word admits0 = test_bit(c, var) ? ~Word{0} : 0;
      const Word admits1 = test_bit(c + cube_words, var) ? ~Word{0} : 0;
      for (std::size_t k = 0; k < all.words; ++k)
        bad[k] |= (admits0 & r1[k]) | (admits1 & r0[k]);
    }
    set_bit(bad.data(), i);  // not its own container
    bool dominated = false;
    for (std::size_t k = 0; k < all.words && !dominated; ++k)
      for (Word b = ~bad[k]; b && !dominated; b &= b - 1) {
        const std::size_t j = k * 64 + static_cast<std::size_t>(__builtin_ctzll(b));
        if (j >= cubes.size()) break;
        dominated = !(j > i && cubes[i] == cubes[j]);
      }
    if (!dominated) out.push_back(&cubes[i]);
  }
  return out;
}

}  // namespace

// The maximal OFF cubes and the dynamic transition cubes by variable, and
// the anchors as a flat word array in Cube's layout.
struct CompiledSpec::Tables {
  std::size_t vars = 0;
  std::size_t words = 0;  // per cube mask
  Columns off;
  Columns dyn;
  std::vector<Word> anchors;  // dyn.n * 2 * words

  explicit Tables(const FunctionSpec& f)
      : vars(f.vars),
        words((f.vars + Cube::kBitsPerWord - 1) / Cube::kBitsPerWord),
        off(maximal(f.off, vars, words), vars, words),
        dyn(transitions(f), vars, words) {
    for (const auto& d : f.dynamic) {
      const Cube& a = d.type == HfType::kRise ? d.b : d.a;
      anchors.insert(anchors.end(), a.words(), a.words() + 2 * words);
    }
  }
  static std::vector<const Cube*> transitions(const FunctionSpec& f) {
    std::vector<const Cube*> out;
    for (const auto& d : f.dynamic) out.push_back(&d.t);
    return out;
  }
  const Word* anchor(std::size_t i) const { return anchors.data() + i * 2 * words; }
};

CompiledSpec::CompiledSpec(const FunctionSpec& f)
    : spec_(&f), tables_(std::make_unique<Tables>(f)) {}
CompiledSpec::~CompiledSpec() = default;
CompiledSpec::CompiledSpec(CompiledSpec&&) noexcept = default;
CompiledSpec& CompiledSpec::operator=(CompiledSpec&&) noexcept = default;

namespace {

using Tables = CompiledSpec::Tables;

// Scratch masks of one closure, kept by the caller so loops do not allocate.
// After a successful closure `fixed` holds the closed cube's fixed variables.
struct ClosureScratch {
  std::vector<Word> fixed, off_disjoint, dyn_disjoint;
};

// Closes a cube under the dynamic-transition anchor rules: whenever it
// intersects a dynamic transition it absorbs the anchor point, repeating to
// a fixpoint.  Fails (false) if the closure runs into an OFF region — then
// no dhf implicant contains the cube at all.  Mutates `c` in place.  The
// closure is the least closed cube containing `c`, whatever the order of
// absorption, and an OFF region met on the way is met by the closure too,
// so OFF is checked once, at the fixpoint.
bool grow_to_valid(const Tables& s, Cube& c, ClosureScratch& t) {
  Word* d = c.words();
  const std::size_t W = s.words;
  t.fixed.resize(W);
  t.dyn_disjoint.resize(s.dyn.words);
  t.off_disjoint.resize(s.off.words);
  for (bool changed = true; changed;) {
    changed = false;
    fixed_vars(d, W, t.fixed.data());
    s.dyn.disjoint(d, t.fixed.data(), W, t.dyn_disjoint.data());
    for (std::size_t i = 0; i < s.dyn.n; ++i) {
      if (test_bit(t.dyn_disjoint.data(), i)) continue;
      const Word* a = s.anchor(i);
      for (std::size_t w = 0; w < 2 * W; ++w) {
        changed = changed || (a[w] & ~d[w]);
        d[w] |= a[w];
      }
    }
  }
  s.off.disjoint(d, t.fixed.data(), W, t.off_disjoint.data());
  return s.off.all(t.off_disjoint.data());
}

// Grows a closed, valid seed into a maximal dhf implicant by freeing
// variables in the given order, each freeing re-closed under the anchor
// rules and kept when the closure avoids OFF.
//
// Instead of re-closing for every variable, the pass tracks each cube's
// conflict set with the current seed S (the variables at which they are
// fixed to opposite values) narrowed to the "open" variables: fixed in S
// and not known to stay fixed.  Freeing v alone hits OFF cube o exactly
// when o's conflict set is {v}, and newly meets transition t exactly when
// t's is {v}.  So a variable that is some OFF cube's only conflict is
// blocked, at the cost of a few word tests, and the closure runs only when
// a transition whose conflict set is {v} has an anchor that S with v free
// does not contain.  A variable that is blocked or whose closure fails
// stays fixed for the rest of the pass (a later closure freeing it would
// contain its failing closure), so the cubes in conflict with S there can
// never be hit or met again and drop out.
//
// The conflict sets are kept by variable, one row per variable: the OFF
// cubes, then the transitions, in conflict with the seed there.  Growing
// the seed never changes a row, only which rows are open, so the rows are
// laid out once per seed and shared by its expansion orders.
class Expander {
 public:
  explicit Expander(const Tables& s)
      : s_(s), row_words_(s.off.words + s.dyn.words), open_(s.words) {
    alive_.resize(row_words_);
    one_.resize(row_words_);
    two_.resize(row_words_);
  }

  void set_seed(const Cube& seed) {
    const std::size_t W = s_.words;
    rows_.assign(s_.vars * row_words_, 0);
    fixed_vars(seed.words(), W, open_.data());
    for_each_bit(open_.data(), W, [&](std::size_t var) {
      Word* r = rows_.data() + var * row_words_;
      const Word* o = s_.off.against(seed.words(), W, var);
      const Word* d = s_.dyn.against(seed.words(), W, var);
      std::copy(o, o + s_.off.words, r);
      std::copy(d, d + s_.dyn.words, r + s_.off.words);
    });
  }

  // Expands `grown`, which must equal the last set_seed() seed.
  void expand(Cube& grown, const std::vector<std::size_t>& order) {
    const std::size_t W = s_.words;
    fixed_vars(grown.words(), W, open_.data());
    for (std::size_t k = 0; k < row_words_; ++k) alive_[k] = ~Word{0};
    recount();
    for (std::size_t var : order) {
      if (!test_bit(open_.data(), var)) continue;  // free, or stays fixed
      if (blocked(var)) {
        close(var);
        continue;
      }
      if (needs_closure(grown, var)) {
        trial_ = grown;
        trial_.set(var, Cube::V::kFree);
        if (!grow_to_valid(s_, trial_, scratch_)) {
          close(var);
          continue;
        }
        std::swap(grown, trial_);
        for (std::size_t w = 0; w < W; ++w) open_[w] &= scratch_.fixed[w];
      } else {
        grown.set(var, Cube::V::kFree);
        clear_bit(open_.data(), var);
      }
      recount();
    }
  }

 private:
  const Word* row(std::size_t var) const { return rows_.data() + var * row_words_; }
  // two_ = the cubes with two or more open conflicts.
  void recount() {
    for (std::size_t k = 0; k < row_words_; ++k) one_[k] = two_[k] = 0;
    for_each_bit(open_.data(), s_.words, [&](std::size_t var) {
      const Word* r = row(var);
      for (std::size_t k = 0; k < row_words_; ++k) {
        two_[k] |= one_[k] & r[k];
        one_[k] |= r[k];
      }
    });
  }
  // Word k of the alive cubes whose only open conflict is `var`.
  Word single(std::size_t var, std::size_t k) const {
    return row(var)[k] & alive_[k] & ~two_[k];
  }
  bool blocked(std::size_t var) const {
    for (std::size_t k = 0; k < s_.off.words; ++k)
      if (single(var, k)) return true;
    return false;
  }
  // `var` stays fixed: the cubes in conflict with the seed there drop out.
  // The open-conflict counts of the cubes left are unchanged.
  void close(std::size_t var) {
    clear_bit(open_.data(), var);
    const Word* r = row(var);
    for (std::size_t k = 0; k < row_words_; ++k) alive_[k] &= ~r[k];
  }
  // True when freeing `var` meets a transition whose anchor the seed with
  // `var` free does not contain.
  bool needs_closure(const Cube& grown, std::size_t var) const {
    const std::size_t W = s_.words;
    const Word* g = grown.words();
    for (std::size_t k = 0; k < s_.dyn.words; ++k)
      for (Word b = single(var, s_.off.words + k); b; b &= b - 1) {
        const Word* a = s_.anchor(k * 64 + static_cast<std::size_t>(__builtin_ctzll(b)));
        for (std::size_t w = 0; w < 2 * W; ++w) {
          const Word freed = w % W == var / 64 ? Word{1} << (var % 64) : 0;
          if (a[w] & ~(g[w] | freed)) return true;
        }
      }
    return false;
  }

  const Tables& s_;
  const std::size_t row_words_;
  std::vector<Word> rows_;  // vars * row_words_
  std::vector<Word> open_, alive_, one_, two_;
  ClosureScratch scratch_;
  Cube trial_;
};

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
std::vector<Cube> candidates_from_seeds(const Tables& s, const std::vector<Cube>& seeds,
                                        const CancelToken* cancel) {
  auto orders = expansion_orders(s.vars);
  CubeSet pool(seeds.size() * orders.size());
  Expander expander(s);
  Cube grown;
  for (const auto& seed : seeds) {
    if (cancel) cancel->throw_if_cancelled();
    expander.set_seed(seed);
    for (const auto& order : orders) {
      grown = seed;
      expander.expand(grown, order);
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

bool CompiledSpec::valid(const Cube& p) const {
  // Word k of the OFF cubes / transitions disjoint from p, built from p's
  // fixed variables a word at a time, so the check needs no scratch.
  const Tables& s = *tables_;
  const std::size_t W = s.words;
  const Word* c = p.words();
  auto disjoint = [&](const Columns& cols, std::size_t k) {
    Word out = 0;
    for (std::size_t w = 0; w < W; ++w)
      for (Word b = c[w] ^ c[W + w]; b; b &= b - 1)
        out |= cols.against(c, W, w * 64 + static_cast<std::size_t>(__builtin_ctzll(b)))[k];
    return out;
  };
  for (std::size_t k = 0; k < s.off.words; ++k)
    if ((disjoint(s.off, k) & s.off.live(k)) != s.off.live(k)) return false;
  for (std::size_t k = 0; k < s.dyn.words; ++k)
    for (Word b = ~disjoint(s.dyn, k) & s.dyn.live(k); b; b &= b - 1) {
      const Word* a = s.anchor(k * 64 + static_cast<std::size_t>(__builtin_ctzll(b)));
      for (std::size_t w = 0; w < 2 * W; ++w)
        if (a[w] & ~c[w]) return false;
    }
  return true;
}

std::vector<Cube> candidate_implicants(const FunctionSpec& f,
                                       const CancelToken* cancel) {
  const CompiledSpec c(f);
  const Tables& s = c.tables();
  ClosureScratch scratch;
  std::vector<Cube> seeds;
  seeds.reserve(f.required.size());
  for (const auto& r : f.required) {
    if (cancel) cancel->throw_if_cancelled();
    Cube seed = r;
    if (!grow_to_valid(s, seed, scratch)) continue;  // unrealizable; reported by covering
    seeds.push_back(std::move(seed));
  }
  return candidates_from_seeds(s, seeds, cancel);
}

namespace {

// Minimizes `f`, compiling it only on a memo miss when `compiled` is null.
CoverResult minimize(const FunctionSpec& f, const CompiledSpec* compiled,
                     const CoverOptions& opts) {
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

  std::optional<CompiledSpec> own;
  const Tables& s = (compiled ? *compiled : own.emplace(f)).tables();

  // Spec sanity: a required cube whose anchor closure runs into an OFF
  // region cannot be inside any dhf implicant — a genuine contradiction.
  // The successful closures double as the expansion seeds below.
  ClosureScratch scratch;
  std::vector<Cube> required, seeds;
  for (const auto& r : f.required) {
    Cube seed = r;
    if (!grow_to_valid(s, seed, scratch)) {
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
  for (const Cube* r : maximal(required, s.vars, s.words)) reduced.push_back(*r);
  std::sort(reduced.begin(), reduced.end());
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

}  // namespace

CoverResult minimize_hazard_free(const FunctionSpec& f, const CoverOptions& opts) {
  return minimize(f, nullptr, opts);
}

CoverResult minimize_hazard_free(const CompiledSpec& c, const CoverOptions& opts) {
  return minimize(c.spec(), &c, opts);
}

}  // namespace adc
