#include "logic/minimize.hpp"

#include <optional>
#include <set>

#include "runtime/thread_pool.hpp"

namespace adc {

namespace {

// Embeds an input-space cube into the full (inputs + state bits) space with
// the state coordinates fixed to `code`.
Cube embed(const Cube& in, std::size_t vars, std::size_t ni, std::size_t bits,
           std::uint32_t code) {
  Cube out(vars);
  for (std::size_t i = 0; i < ni; ++i) out.set(i, in.get(i));
  for (std::size_t b = 0; b < bits; ++b)
    out.set(ni + b, ((code >> b) & 1) ? Cube::V::kOne : Cube::V::kZero);
  return out;
}

// As above but spanning two codes (the feedback-settling cube).
Cube embed_span(const Cube& in, std::size_t vars, std::size_t ni, std::size_t bits,
                std::uint32_t c1, std::uint32_t c2) {
  Cube out(vars);
  for (std::size_t i = 0; i < ni; ++i) out.set(i, in.get(i));
  for (std::size_t b = 0; b < bits; ++b) {
    bool v1 = (c1 >> b) & 1, v2 = (c2 >> b) & 1;
    out.set(ni + b, v1 == v2 ? (v1 ? Cube::V::kOne : Cube::V::kZero) : Cube::V::kFree);
  }
  return out;
}

}  // namespace

FunctionSpec build_function_spec(const ConcreteMachine& cm, const Encoding& enc,
                                 bool state_bit, std::size_t index, std::string name) {
  FunctionSpec f;
  f.name = std::move(name);
  const std::size_t ni = cm.input_names.size();
  f.vars = ni + enc.bits;

  auto value_at = [&](std::size_t state) {
    return state_bit ? ((enc.code[state] >> index) & 1) != 0
                     : cm.states[state].outputs[index];
  };

  for (const auto& ct : cm.transitions) {
    std::uint32_t c = enc.code[ct.from], c2 = enc.code[ct.to];
    Cube T = embed(ct.trans, f.vars, ni, enc.bits, c);
    Cube A = embed(ct.start, f.vars, ni, enc.bits, c);
    Cube B = embed(ct.end, f.vars, ni, enc.bits, c);
    bool v = value_at(ct.from);
    bool v2 = value_at(ct.to);

    if (v && v2) {
      f.required.push_back(T);
    } else if (!v && !v2) {
      f.off.push_back(T);
    } else if (!state_bit) {
      // Mealy outputs change monotonically *during* the burst — the
      // classic dynamic-transition rules with the appropriate anchor.
      if (!v && v2) {
        f.off.push_back(A);
        f.required.push_back(B);
        f.dynamic.push_back(HfDynamic{T, A, B, HfType::kRise});
      } else {
        f.off.push_back(B);
        f.required.push_back(A);
        f.dynamic.push_back(HfDynamic{T, A, B, HfType::kFall});
      }
    } else {
      // Next-state excitation must hold its old value until the *complete*
      // burst has arrived and change exactly then: for every changed input
      // the sub-cube still missing that arrival keeps the old value, and
      // the completion region (all compulsory arrivals in, don't-care
      // windows free) takes the new one.
      Cube completion = T;
      std::vector<std::size_t> changed_vars;
      for (std::size_t i = 0; i < ni; ++i) {
        auto a = ct.start.get(i), b2 = ct.end.get(i);
        if (a == Cube::V::kFree || b2 == Cube::V::kFree || a == b2) continue;
        changed_vars.push_back(i);
        completion.set(i, b2);
      }
      for (std::size_t i : changed_vars) {
        Cube waiting = T;
        waiting.set(i, ct.start.get(i));
        if (v)
          f.required.push_back(waiting);
        else
          f.off.push_back(waiting);
      }
      if (v2)
        f.required.push_back(completion);
      else
        f.off.push_back(completion);
    }

    // Feedback settling: with the inputs at the burst's end point, the
    // excitation must hold its new value while the state bits travel from
    // the old code to the new one.  Exact for single-bit changes; a
    // multi-bit change would have to hold over the whole code span, which
    // the bipartite hypercube cannot always grant — those transitions are
    // counted by the caller as declared race assumptions instead.
    if (__builtin_popcount(c ^ c2) == 1) {
      Cube settle = embed_span(ct.end, f.vars, ni, enc.bits, c, c2);
      if (v2)
        f.required.push_back(settle);
      else
        f.off.push_back(settle);
    }
  }

  // No separate stable-state constraints: the resting point of every state
  // is the start point of its outgoing transitions, whose rules already pin
  // the function there.  (A naive "hold over the whole state signature"
  // cube would wrongly extend across burst-completion points, where the
  // function legitimately changes.)

  // Deduplicate.
  std::set<Cube> req(f.required.begin(), f.required.end());
  f.required.assign(req.begin(), req.end());
  std::set<Cube> off(f.off.begin(), f.off.end());
  f.off.assign(off.begin(), off.end());
  return f;
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
// the product contains, computed on first use.  A swap candidate `q` for
// product `p` of function fi is acceptable exactly when it holds every
// requirement only `p` covers (a bitset test against per-requirement cover
// counts) and is a dhf implicant of fi.  Functions, products and candidate
// functions are scanned in order, an accepted swap continues the scan in
// place, and sweeps repeat until one makes no swap.
void share_products(std::vector<FunctionLogic>& functions,
                    const std::vector<std::optional<CompiledSpec>>& specs) {
  using Word = std::uint64_t;
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
  // reported elsewhere), how many of its products contain each, and the
  // lazily filled containment rows and validity verdicts per product id.
  struct Fn {
    std::vector<Cube> reqs;
    std::size_t words = 0;
    std::vector<int> cover_cnt;
    std::vector<Word> rows;          // n_id * words
    std::vector<std::int8_t> state;  // bit 0: row filled; bit 1: validity known; bit 2: valid
  };
  std::vector<Fn> fns(n_fn);
  auto row = [&](std::size_t fi, std::size_t id) -> const Word* {
    Fn& f = fns[fi];
    Word* r = f.rows.data() + id * f.words;
    if (!(f.state[id] & 1)) {
      for (std::size_t ri = 0; ri < f.reqs.size(); ++ri)
        if (cubes[id].contains(f.reqs[ri])) r[ri / 64] |= Word{1} << (ri % 64);
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
  auto holds = [](const Word* r, std::size_t ri) { return (r[ri / 64] >> (ri % 64)) & 1; };

  for (std::size_t fi = 0; fi < n_fn; ++fi) {
    Fn& f = fns[fi];
    for (const auto& r : specs[fi]->spec().required)
      if (specs[fi]->valid(r)) f.reqs.push_back(r);
    f.words = (f.reqs.size() + 63) / 64;
    f.cover_cnt.assign(f.reqs.size(), 0);
    f.rows.assign(n_id * f.words, 0);
    f.state.assign(n_id, 0);
    for (std::size_t id : prods[fi]) {
      const Word* r = row(fi, id);
      for (std::size_t ri = 0; ri < f.reqs.size(); ++ri) f.cover_cnt[ri] += holds(r, ri);
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
        sole.assign(f.words, 0);
        for (std::size_t ri = 0; ri < f.reqs.size(); ++ri)
          if (f.cover_cnt[ri] == static_cast<int>(holds(prow, ri)))
            sole[ri / 64] |= Word{1} << (ri % 64);
        bool swapped = false;
        for (std::size_t gi = 0; gi < n_fn && !swapped; ++gi) {
          if (gi == fi) continue;
          for (std::size_t q : prods[gi]) {
            if (q == p) continue;
            const Word* qrow = row(fi, q);
            bool ok = true;
            for (std::size_t w = 0; w < f.words && ok; ++w) ok = !(sole[w] & ~qrow[w]);
            if (!ok || !valid_for(fi, q)) continue;
            --use_count[p];
            ++use_count[q];
            for (std::size_t ri = 0; ri < f.reqs.size(); ++ri)
              f.cover_cnt[ri] += static_cast<int>(holds(qrow, ri)) -
                                 static_cast<int>(holds(prow, ri));
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

  auto run = [&](std::size_t fi) {
    const bool state_bit = fi >= n_out;
    const std::size_t index = state_bit ? fi - n_out : fi;
    std::string name =
        state_bit ? "Y" + std::to_string(index) : res.machine.output_names[index];
    obs::TraceSpan span(opts.trace, "fn:" + name, "logic");
    specs[fi] =
        build_function_spec(res.machine, res.encoding, state_bit, index, std::move(name));
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

}  // namespace

LogicSynthesisResult synthesize_logic(const ExtractedController& c,
                                      const SynthesisOptions& opts) {
  return synthesize_impl(c.machine, &c.bindings, opts);
}

LogicSynthesisResult synthesize_logic(const Xbm& m, const SynthesisOptions& opts) {
  return synthesize_impl(m, nullptr, opts);
}

std::size_t LogicSynthesisResult::product_count(bool share_products) const {
  if (!share_products) {
    std::size_t n = 0;
    for (const auto& f : functions) n += f.products.size();
    return n;
  }
  std::set<Cube> distinct;
  for (const auto& f : functions)
    for (const auto& p : f.products) distinct.insert(p);
  return distinct.size();
}

std::size_t LogicSynthesisResult::literal_count(bool share_products) const {
  if (!share_products) {
    std::size_t n = 0;
    for (const auto& f : functions)
      for (const auto& p : f.products) n += p.literal_count();
    return n;
  }
  std::set<Cube> distinct;
  for (const auto& f : functions)
    for (const auto& p : f.products) distinct.insert(p);
  std::size_t n = 0;
  for (const auto& p : distinct) n += p.literal_count();
  return n;
}

}  // namespace adc
