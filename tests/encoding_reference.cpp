// The seed state-assignment search, frozen as a test-only reference.
//
// This is the original assign_codes: a std::function recursion that scans
// the whole code space at every node of a 200,000-node budgeted walk, then
// falls back to greedy codes.  test_encoding asserts that the production
// encoder returns exactly this Encoding on the builtin library and on
// generated programs.  Do not optimize or otherwise edit it: its only job
// is to stay what the encoder used to compute.

#include "encoding_reference.hpp"

#include <algorithm>
#include <functional>
#include <set>

namespace adc {

Encoding reference_assign_codes(const ConcreteMachine& cm) {
  Encoding enc;
  std::size_t n = cm.states.size();
  enc.bits = 1;
  while ((std::size_t{1} << enc.bits) < n) ++enc.bits;
  enc.code.assign(n, 0);

  // Depth-first order from the initial state; Gray codes along the walk.
  std::vector<std::vector<std::size_t>> succs(n);
  for (const auto& t : cm.transitions) succs[t.from].push_back(t.to);

  std::vector<std::size_t> order;
  std::set<std::size_t> seen;
  std::vector<std::size_t> stack{cm.initial};
  while (!stack.empty()) {
    std::size_t s = stack.back();
    stack.pop_back();
    if (!seen.insert(s).second) continue;
    order.push_back(s);
    // Push in reverse so the first successor is visited next (ring order).
    for (auto it = succs[s].rbegin(); it != succs[s].rend(); ++it) stack.push_back(*it);
  }
  for (std::size_t s = 0; s < n; ++s)
    if (!seen.count(s)) order.push_back(s);  // unreachable safety

  // Hypercube embedding: each state takes an unused code, ideally at
  // Hamming distance 1 from every already-assigned neighbour.  A bounded
  // backtracking search tries to make every edge distance-1; when the
  // budget runs out (or the graph has an odd cycle — the hypercube is
  // bipartite, so e.g. a loop entry/exit triangle cannot embed) it falls
  // back to the best greedy completion.  Remaining multi-bit changes are
  // counted and handled as declared race assumptions by the spec builder.
  std::vector<std::set<std::size_t>> adj(n);
  for (const auto& t : cm.transitions) {
    if (t.from == t.to) continue;
    adj[t.from].insert(t.to);
    adj[t.to].insert(t.from);
  }
  const std::size_t code_space = std::size_t{1} << enc.bits;

  auto score_of = [&](std::size_t s, std::uint32_t c, const std::vector<bool>& assigned,
                      const std::vector<std::uint32_t>& code) {
    long score = 0;
    for (std::size_t nb : adj[s]) {
      if (!assigned[nb]) continue;
      int d = __builtin_popcount(c ^ code[nb]);
      score += d == 1 ? 0 : 100L * d;
    }
    return score;
  };

  // Exact pass: distance-1 for every edge, bounded backtracking.
  {
    std::vector<std::uint32_t> code(n, 0);
    std::vector<bool> used(code_space, false);
    std::vector<bool> assigned(n, false);
    long budget = 200000;
    std::function<bool(std::size_t)> place = [&](std::size_t idx) -> bool {
      if (idx == order.size()) return true;
      if (--budget < 0) return false;
      std::size_t s = order[idx];
      for (std::uint32_t c = 0; c < code_space; ++c) {
        if (used[c]) continue;
        bool ok = true;
        for (std::size_t nb : adj[s])
          if (assigned[nb] && __builtin_popcount(c ^ code[nb]) != 1) ok = false;
        if (!ok) continue;
        code[s] = c;
        used[c] = true;
        assigned[s] = true;
        if (place(idx + 1)) return true;
        used[c] = false;
        assigned[s] = false;
      }
      return false;
    };
    if (place(0)) {
      enc.code = code;
      for (const auto& t : cm.transitions) {
        if (t.from == t.to) continue;
        ++enc.total;
        if (__builtin_popcount(enc.code[t.from] ^ enc.code[t.to]) == 1) ++enc.distance1;
      }
      return enc;
    }
  }

  // Greedy fallback.
  std::vector<bool> used(code_space, false);
  std::vector<bool> assigned(n, false);
  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    std::size_t s = order[idx];
    std::uint32_t best = 0;
    long best_score = -1;
    for (std::uint32_t c = 0; c < code_space; ++c) {
      if (used[c]) continue;
      long score = score_of(s, c, assigned, enc.code);
      if (best_score < 0 || score < best_score) {
        best_score = score;
        best = c;
      }
    }
    enc.code[s] = best;
    used[best] = true;
    assigned[s] = true;
  }

  for (const auto& t : cm.transitions) {
    if (t.from == t.to) continue;
    ++enc.total;
    if (__builtin_popcount(enc.code[t.from] ^ enc.code[t.to]) == 1) ++enc.distance1;
  }
  return enc;
}

}  // namespace adc
