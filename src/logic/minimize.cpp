#include "logic/minimize.hpp"

#include <set>
#include <unordered_map>

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

struct CubeHash {
  std::size_t operator()(const Cube& c) const {
    return static_cast<std::size_t>(c.hash());
  }
};

// Minimalist-style product sharing: after the per-function covers exist,
// try to replace products that only one function uses with dhf implicants
// another function already pays for — the shared AND plane shrinks while
// every cover stays hazard-free (each replacement is re-checked against
// the function's own specification).
//
// A swap candidate `q` for product `p` of function fi is acceptable
// exactly when every hazard-checkable required cube of fi that only `p`
// covers is also inside `q` — so instead of re-scanning the whole cover
// per candidate, the pass keeps an incremental per-required cover count,
// memoizes `implicant_valid` per (function, cube), and continues scanning
// in place after an accepted swap rather than restarting from function 0
// (the outer fixpoint loop revisits earlier products on the next sweep).
void share_products(std::vector<FunctionLogic>& functions,
                    const std::vector<FunctionSpec>& specs) {
  const std::size_t n_fn = functions.size();

  // Requirements that participate in the coverage check — covers_all in
  // the original pass skipped cubes that are not themselves valid
  // implicants (they are reported elsewhere).
  std::vector<std::vector<Cube>> checked_req(n_fn);
  std::vector<std::vector<int>> cover_cnt(n_fn);
  for (std::size_t fi = 0; fi < n_fn; ++fi) {
    for (const auto& r : specs[fi].required)
      if (implicant_valid(specs[fi], r)) checked_req[fi].push_back(r);
    cover_cnt[fi].assign(checked_req[fi].size(), 0);
    for (const auto& p : functions[fi].products)
      for (std::size_t ri = 0; ri < checked_req[fi].size(); ++ri)
        if (p.contains(checked_req[fi][ri])) ++cover_cnt[fi][ri];
  }

  std::unordered_map<Cube, int, CubeHash> use_count;
  for (const auto& f : functions)
    for (const auto& p : f.products) ++use_count[p];

  // implicant_valid(specs[fi], q) is independent of the evolving covers;
  // compute it once per (function, candidate).
  std::vector<std::unordered_map<Cube, bool, CubeHash>> valid_memo(n_fn);
  auto valid_for = [&](std::size_t fi, const Cube& q) {
    auto [it, fresh] = valid_memo[fi].try_emplace(q, false);
    if (fresh) it->second = implicant_valid(specs[fi], q);
    return it->second;
  };

  bool changed = true;
  std::vector<std::size_t> sole;  // requireds only the current product covers
  while (changed) {
    changed = false;
    for (std::size_t fi = 0; fi < n_fn; ++fi) {
      auto& f = functions[fi];
      const auto& reqs = checked_req[fi];
      for (std::size_t pi = 0; pi < f.products.size(); ++pi) {
        const Cube p = f.products[pi];
        if (use_count[p] > 1) continue;  // already shared
        sole.clear();
        for (std::size_t ri = 0; ri < reqs.size(); ++ri)
          if (cover_cnt[fi][ri] - (p.contains(reqs[ri]) ? 1 : 0) == 0)
            sole.push_back(ri);
        bool swapped = false;
        for (std::size_t gi = 0; gi < n_fn && !swapped; ++gi) {
          if (gi == fi) continue;
          for (const auto& q : functions[gi].products) {
            if (q == p) continue;
            if (!valid_for(fi, q)) continue;
            bool ok = true;
            for (std::size_t ri : sole)
              if (!q.contains(reqs[ri])) {
                ok = false;
                break;
              }
            if (!ok) continue;
            --use_count[p];
            ++use_count[q];
            for (std::size_t ri = 0; ri < reqs.size(); ++ri)
              cover_cnt[fi][ri] += (q.contains(reqs[ri]) ? 1 : 0) -
                                   (p.contains(reqs[ri]) ? 1 : 0);
            f.products[pi] = q;
            swapped = true;
            changed = true;
            break;
          }
        }
      }
    }
  }
  // Drop duplicates a swap may have created inside one function.
  for (auto& f : functions) {
    std::vector<Cube> unique;
    for (const auto& p : f.products) {
      bool seen = false;
      for (const auto& u : unique)
        if (u == p) seen = true;
      if (!seen) unique.push_back(p);
    }
    f.products = std::move(unique);
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
  std::vector<std::vector<std::string>> fn_issues(n_fn);
  res.functions.resize(n_fn);

  auto run = [&](std::size_t fi) {
    const bool state_bit = fi >= n_out;
    const std::size_t index = state_bit ? fi - n_out : fi;
    std::string name =
        state_bit ? "Y" + std::to_string(index) : res.machine.output_names[index];
    obs::TraceSpan span(opts.trace, "fn:" + name, "logic");
    FunctionSpec spec =
        build_function_spec(res.machine, res.encoding, state_bit, index, std::move(name));
    CoverResult cover = minimize_hazard_free(spec, opts.cover);
    if (span.active()) {
      span.arg("products", std::uint64_t{cover.products.size()});
      span.arg("feasible", cover.feasible);
    }
    fn_issues[fi] = std::move(cover.issues);
    res.functions[fi] = FunctionLogic{spec.name, state_bit, std::move(cover.products)};
    specs[fi] = std::move(spec);
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

  share_products(res.functions, specs);
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
