#include "logic/minimize.hpp"

#include <algorithm>
#include <optional>

#include "logic/columns.hpp"
#include "runtime/thread_pool.hpp"

namespace adc {

namespace {

using namespace detail;

// Embeds an input-space cube into the full (inputs + state bits) space:
// the state bits are fixed where codes c1 and c2 agree and free where they
// differ (c1 == c2 pins one code; a one-bit change gives the
// feedback-settling span).  The input masks are copied a word at a time.
Cube embed(const Cube& in, std::size_t vars, std::size_t ni, std::size_t bits,
           std::uint32_t c1, std::uint32_t c2) {
  Cube out(vars);
  std::uint64_t* o = out.words();
  const std::uint64_t* i = in.words();
  const std::size_t wo = out.word_count(), wi = in.word_count();
  for (std::size_t w = 0; w < wi; ++w) {
    const std::uint64_t live =
        w + 1 < wi || ni % 64 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (ni % 64)) - 1;
    o[w] = (o[w] & ~live) | i[w];
    o[wo + w] = (o[wo + w] & ~live) | i[wi + w];
  }
  for (std::size_t b = 0; b < bits; ++b) {
    const bool v1 = (c1 >> b) & 1, v2 = (c2 >> b) & 1;
    if (v1 == v2) out.set(ni + b, v1 ? Cube::V::kOne : Cube::V::kZero);
  }
  return out;
}

// Every transition's cubes in the full space, embedded once per
// controller: the distinct cubes in ascending order, and each
// transition's cubes as indices into them.  A function picks cube ids by
// its values at the two ends of each transition, so its required and OFF
// lists come out sorted and duplicate-free from a pass over an id set.
struct EmbeddedMachine {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  struct Transition {
    std::size_t from = 0, to = 0;
    std::uint32_t t = 0, a = 0, b = 0;  // transition cube, start point, end point
    // Next-state rules, filled when the code changes: for every changed
    // input the sub-cube still missing that arrival, and the completion
    // region (all compulsory arrivals in, don't-care windows free).
    std::vector<std::uint32_t> waiting;
    std::uint32_t completion = kNone;
    // Feedback settling, when the code changes in exactly one bit: the
    // inputs at the burst's end point while the state bits travel from
    // the old code to the new one.
    std::uint32_t settle = kNone;
  };
  std::vector<Cube> cubes;
  std::vector<Transition> transitions;
};

EmbeddedMachine embed_machine(const ConcreteMachine& cm, const Encoding& enc) {
  const std::size_t ni = cm.input_names.size();
  const std::size_t vars = ni + enc.bits;
  EmbeddedMachine out;
  CubeSet pool;
  auto id = [&](const Cube& c) { return static_cast<std::uint32_t>(pool.id(c)); };
  out.transitions.reserve(cm.transitions.size());
  for (const auto& ct : cm.transitions) {
    const std::uint32_t c = enc.code[ct.from], c2 = enc.code[ct.to];
    EmbeddedMachine::Transition& e = out.transitions.emplace_back();
    e.from = ct.from;
    e.to = ct.to;
    const Cube t = embed(ct.trans, vars, ni, enc.bits, c, c);
    e.t = id(t);
    e.a = id(embed(ct.start, vars, ni, enc.bits, c, c));
    e.b = id(embed(ct.end, vars, ni, enc.bits, c, c));
    if (c != c2) {
      Cube completion = t;
      for (std::size_t i = 0; i < ni; ++i) {
        auto a = ct.start.get(i), b = ct.end.get(i);
        if (a == Cube::V::kFree || b == Cube::V::kFree || a == b) continue;
        completion.set(i, b);
        e.waiting.push_back(id(t.with(i, a)));
      }
      e.completion = id(completion);
    }
    if (__builtin_popcount(c ^ c2) == 1)
      e.settle = id(embed(ct.end, vars, ni, enc.bits, c, c2));
  }
  // Renumber the pool in ascending cube order.
  const std::vector<Cube>& items = pool.items();
  std::vector<std::uint32_t> order(items.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t x, std::uint32_t y) { return items[x] < items[y]; });
  std::vector<std::uint32_t> rank(items.size());
  out.cubes.reserve(items.size());
  for (std::uint32_t k = 0; k < order.size(); ++k) {
    rank[order[k]] = k;
    out.cubes.push_back(items[order[k]]);
  }
  for (auto& e : out.transitions) {
    for (std::uint32_t* x : {&e.t, &e.a, &e.b, &e.completion, &e.settle})
      if (*x != EmbeddedMachine::kNone) *x = rank[*x];
    for (auto& w : e.waiting) w = rank[w];
  }
  return out;
}

// The hazard-free specification of one function of the embedded machine.
FunctionSpec function_spec(const ConcreteMachine& cm, const Encoding& enc,
                           const EmbeddedMachine& em, bool state_bit, std::size_t index,
                           std::string name) {
  FunctionSpec f;
  f.name = std::move(name);
  f.vars = cm.input_names.size() + enc.bits;

  auto value_at = [&](std::size_t state) {
    return state_bit ? ((enc.code[state] >> index) & 1) != 0
                     : cm.states[state].outputs[index];
  };

  const std::size_t words = (em.cubes.size() + 63) / 64;
  std::vector<Word> required(words, 0), off(words, 0);
  for (const auto& e : em.transitions) {
    const bool v = value_at(e.from);
    const bool v2 = value_at(e.to);

    if (v && v2) {
      set_bit(required.data(), e.t);
    } else if (!v && !v2) {
      set_bit(off.data(), e.t);
    } else if (!state_bit) {
      // Mealy outputs change monotonically *during* the burst — the
      // classic dynamic-transition rules with the appropriate anchor.
      const bool rise = !v && v2;
      set_bit(off.data(), rise ? e.a : e.b);
      set_bit(required.data(), rise ? e.b : e.a);
      f.dynamic.push_back(HfDynamic{em.cubes[e.t], em.cubes[e.a], em.cubes[e.b],
                                    rise ? HfType::kRise : HfType::kFall});
    } else {
      // Next-state excitation must hold its old value until the *complete*
      // burst has arrived and change exactly then: the waiting sub-cubes
      // keep the old value, the completion region takes the new one.
      for (std::uint32_t w : e.waiting) set_bit((v ? required : off).data(), w);
      set_bit((v2 ? required : off).data(), e.completion);
    }

    // Feedback settling: the excitation must hold its new value while the
    // state bits travel.  Exact for single-bit changes; a multi-bit change
    // would have to hold over the whole code span, which the bipartite
    // hypercube cannot always grant — those transitions are counted by the
    // caller as declared race assumptions instead.
    if (e.settle != EmbeddedMachine::kNone)
      set_bit((v2 ? required : off).data(), e.settle);
  }

  // No separate stable-state constraints: the resting point of every state
  // is the start point of its outgoing transitions, whose rules already pin
  // the function there.  (A naive "hold over the whole state signature"
  // cube would wrongly extend across burst-completion points, where the
  // function legitimately changes.)

  auto emit = [&](const std::vector<Word>& set, std::vector<Cube>& cubes) {
    for_each_bit(set.data(), words,
                         [&](std::size_t id) { cubes.push_back(em.cubes[id]); });
  };
  emit(required, f.required);
  emit(off, f.off);
  return f;
}

}  // namespace

FunctionSpec build_function_spec(const ConcreteMachine& cm, const Encoding& enc,
                                 bool state_bit, std::size_t index, std::string name) {
  return function_spec(cm, enc, embed_machine(cm, enc), state_bit, index, std::move(name));
}

namespace {

// Minimalist-style product sharing: after the per-function covers exist,
// try to replace products that only one function uses with dhf implicants
// another function already pays for — the shared AND plane shrinks while
// every cover stays hazard-free (each replacement is re-checked against
// the function's own specification).
//
// A swap only ever substitutes a product some function already has, so the
// distinct products are fixed up front and the pass works on their ids:
// use counts are an array, validity is memoized per (function, id), and
// each (function, id) gets a bitset of the function's checked requirements
// the product contains, computed on first use as the AND of the
// requirement columns at the product's fixed variables.  A swap candidate
// `q` for product `p` of function fi is acceptable exactly when it holds
// every requirement only `p` covers (a bitset test against per-requirement
// cover counts) and is a dhf implicant of fi.  Functions, products and
// candidate functions are scanned in order, an accepted swap continues the
// scan in place, and sweeps repeat until one makes no swap.
void share_products(std::vector<FunctionLogic>& functions,
                    const std::vector<std::optional<CompiledSpec>>& specs) {
  const std::size_t n_fn = functions.size();

  CubeSet distinct;
  std::vector<std::vector<std::size_t>> prods(n_fn);
  for (std::size_t fi = 0; fi < n_fn; ++fi)
    for (const auto& p : functions[fi].products) prods[fi].push_back(distinct.id(p));
  const std::vector<Cube>& cubes = distinct.items();
  const std::size_t n_id = cubes.size();

  std::vector<int> use_count(n_id, 0);
  for (const auto& ids : prods)
    for (std::size_t id : ids) ++use_count[id];

  // Per function: the requirements that participate in the coverage check
  // (required cubes that are themselves valid implicants — the others are
  // reported elsewhere) stored by variable, how many of its products
  // contain each, and the lazily filled containment rows and validity
  // verdicts per product id.
  struct Fn {
    Columns reqs{{}, 0, 0};
    std::vector<int> cover_cnt;
    std::vector<Word> rows;          // n_id * reqs.words
    std::vector<std::int8_t> state;  // bit 0: row filled; bit 1: validity known; bit 2: valid
  };
  std::vector<Fn> fns(n_fn);
  std::vector<Word> fixed;
  auto row = [&](std::size_t fi, std::size_t id) -> const Word* {
    Fn& f = fns[fi];
    Word* r = f.rows.data() + id * f.reqs.words;
    if (!(f.state[id] & 1)) {
      const Cube& p = cubes[id];
      fixed.resize(p.word_count());
      fixed_vars(p.words(), p.word_count(), fixed.data());
      f.reqs.contained(p.words(), fixed.data(), p.word_count(), r);
      f.state[id] = static_cast<std::int8_t>(f.state[id] | 1);
    }
    return r;
  };
  auto valid_for = [&](std::size_t fi, std::size_t id) {
    std::int8_t& st = fns[fi].state[id];
    if (!(st & 2))
      st = static_cast<std::int8_t>(st | (specs[fi]->valid(cubes[id]) ? 6 : 2));
    return (st & 4) != 0;
  };

  for (std::size_t fi = 0; fi < n_fn; ++fi) {
    Fn& f = fns[fi];
    const FunctionSpec& spec = specs[fi]->spec();
    std::vector<const Cube*> reqs;
    for (const auto& r : spec.required)
      if (specs[fi]->valid(r)) reqs.push_back(&r);
    f.reqs = Columns(reqs, spec.vars, (spec.vars + Cube::kBitsPerWord - 1) / Cube::kBitsPerWord);
    f.cover_cnt.assign(f.reqs.n, 0);
    f.rows.assign(n_id * f.reqs.words, 0);
    f.state.assign(n_id, 0);
    for (std::size_t id : prods[fi]) {
      const Word* r = row(fi, id);
      for (std::size_t ri = 0; ri < f.reqs.n; ++ri) f.cover_cnt[ri] += test_bit(r, ri);
    }
  }

  bool changed = true;
  std::vector<Word> sole;  // requirements only the current product covers
  while (changed) {
    changed = false;
    for (std::size_t fi = 0; fi < n_fn; ++fi) {
      Fn& f = fns[fi];
      for (std::size_t pi = 0; pi < prods[fi].size(); ++pi) {
        const std::size_t p = prods[fi][pi];
        if (use_count[p] > 1) continue;  // already shared
        const Word* prow = row(fi, p);
        sole.assign(f.reqs.words, 0);
        for (std::size_t ri = 0; ri < f.reqs.n; ++ri)
          if (f.cover_cnt[ri] == static_cast<int>(test_bit(prow, ri)))
            set_bit(sole.data(), ri);
        bool swapped = false;
        for (std::size_t gi = 0; gi < n_fn && !swapped; ++gi) {
          if (gi == fi) continue;
          for (std::size_t q : prods[gi]) {
            if (q == p) continue;
            const Word* qrow = row(fi, q);
            bool ok = true;
            for (std::size_t w = 0; w < f.reqs.words && ok; ++w) ok = !(sole[w] & ~qrow[w]);
            if (!ok || !valid_for(fi, q)) continue;
            --use_count[p];
            ++use_count[q];
            for (std::size_t ri = 0; ri < f.reqs.n; ++ri)
              f.cover_cnt[ri] += static_cast<int>(test_bit(qrow, ri)) -
                                 static_cast<int>(test_bit(prow, ri));
            prods[fi][pi] = q;
            swapped = true;
            changed = true;
            break;
          }
        }
      }
    }
  }
  // Write back, dropping duplicates a swap may have created inside one
  // function (first occurrence kept).
  std::vector<char> seen(n_id, 0);
  for (std::size_t fi = 0; fi < n_fn; ++fi) {
    std::vector<Cube> unique;
    for (std::size_t id : prods[fi])
      if (!seen[id]) {
        seen[id] = 1;
        unique.push_back(cubes[id]);
      }
    for (std::size_t id : prods[fi]) seen[id] = 0;
    functions[fi].products = std::move(unique);
  }
}

LogicSynthesisResult synthesize_impl(const Xbm& m, const SignalBindings* bindings,
                                     const SynthesisOptions& opts) {
  LogicSynthesisResult res;
  res.machine = concretize(m, bindings);
  res.encoding = assign_codes(res.machine);

  // The per-function spec builds and minimizations are independent; each
  // writes its fixed slot, so the pool fan-out below is free to finish
  // them in any order without perturbing the result.
  const std::size_t n_out = res.machine.output_names.size();
  const std::size_t n_fn = n_out + res.encoding.bits;
  std::vector<FunctionSpec> specs(n_fn);
  std::vector<std::optional<CompiledSpec>> compiled(n_fn);
  std::vector<std::vector<std::string>> fn_issues(n_fn);
  res.functions.resize(n_fn);
  const EmbeddedMachine embedded = embed_machine(res.machine, res.encoding);

  auto run = [&](std::size_t fi) {
    const bool state_bit = fi >= n_out;
    const std::size_t index = state_bit ? fi - n_out : fi;
    std::string name =
        state_bit ? "Y" + std::to_string(index) : res.machine.output_names[index];
    obs::TraceSpan span(opts.trace, "fn:" + name, "logic");
    specs[fi] = function_spec(res.machine, res.encoding, embedded, state_bit, index,
                              std::move(name));
    const CompiledSpec& spec = compiled[fi].emplace(specs[fi]);
    CoverResult cover = minimize_hazard_free(spec, opts.cover);
    if (span.active()) {
      span.arg("products", std::uint64_t{cover.products.size()});
      span.arg("feasible", cover.feasible);
    }
    fn_issues[fi] = std::move(cover.issues);
    res.functions[fi] = FunctionLogic{specs[fi].name, state_bit, std::move(cover.products)};
  };

  if (opts.pool && n_fn > 1) {
    TaskGroup group(*opts.pool);
    for (std::size_t fi = 0; fi < n_fn; ++fi)
      group.submit([&run, fi] { run(fi); });
    group.wait();
  } else {
    for (std::size_t fi = 0; fi < n_fn; ++fi) run(fi);
  }
  for (auto& issues : fn_issues)
    for (auto& issue : issues) res.issues.push_back(std::move(issue));

  share_products(res.functions, compiled);
  return res;
}

// The products of all functions, each shared product once (in Cube order).
std::vector<Cube> distinct_products(const std::vector<FunctionLogic>& functions) {
  std::vector<Cube> out;
  for (const auto& f : functions)
    out.insert(out.end(), f.products.begin(), f.products.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Cube& a, const Cube& b) { return !(a < b); }),
            out.end());
  return out;
}

}  // namespace

LogicSynthesisResult synthesize_logic(const ExtractedController& c,
                                      const SynthesisOptions& opts) {
  return synthesize_impl(c.machine, &c.bindings, opts);
}

LogicSynthesisResult synthesize_logic(const Xbm& m, const SynthesisOptions& opts) {
  return synthesize_impl(m, nullptr, opts);
}

std::size_t LogicSynthesisResult::product_count(bool share_products) const {
  if (share_products) return distinct_products(functions).size();
  std::size_t n = 0;
  for (const auto& f : functions) n += f.products.size();
  return n;
}

std::size_t LogicSynthesisResult::literal_count(bool share_products) const {
  std::size_t n = 0;
  if (share_products) {
    for (const auto& p : distinct_products(functions)) n += p.literal_count();
    return n;
  }
  for (const auto& f : functions)
    for (const auto& p : f.products) n += p.literal_count();
  return n;
}

}  // namespace adc
