#include "logic/encoding.hpp"

#include <algorithm>

namespace adc {

namespace {

using Adjacency = std::vector<std::vector<std::size_t>>;

// Nodes the walk may visit before it settles for greedy codes.
constexpr long kWalkBudget = 200000;
// Nodes the embeddability check may visit before it answers kUnknown.
constexpr long kProofCap = 4096;

// Used codes, one bit per code of the cube.
class CodeSet {
 public:
  explicit CodeSet(std::size_t codes) : words_((codes + 63) / 64, 0) {}
  bool has(std::uint32_t c) const { return (words_[c >> 6] >> (c & 63)) & 1; }
  void add(std::uint32_t c) { words_[c >> 6] |= std::uint64_t{1} << (c & 63); }
  void remove(std::uint32_t c) { words_[c >> 6] &= ~(std::uint64_t{1} << (c & 63)); }
  // The lowest code >= `from` not in the set; past the cube if none is.
  std::uint32_t next_free(std::uint32_t from) const {
    for (std::size_t w = from >> 6; w < words_.size(); ++w) {
      std::uint64_t free = ~words_[w];
      if (w == from >> 6) free &= ~std::uint64_t{0} << (from & 63);
      if (free != 0) return static_cast<std::uint32_t>(w * 64 + __builtin_ctzll(free));
    }
    return static_cast<std::uint32_t>(words_.size() * 64);
  }

 private:
  std::vector<std::uint64_t> words_;
};

std::uint32_t flip(std::uint32_t c, int dim) { return c ^ (std::uint32_t{1} << dim); }

// Narrows `dims`, the dimensions whose flip of `anchor` may be taken, to
// those that also land one bit away from `other`: two codes at distance 2
// share exactly two such neighbours, any other pair none.
std::uint32_t narrow(std::uint32_t dims, std::uint32_t anchor, std::uint32_t other) {
  const std::uint32_t x = anchor ^ other;
  return __builtin_popcount(x) == 2 ? dims & x : 0;
}

// The seed-order exact pass: states in depth-first order, codes ascending,
// every edge to an already-coded neighbour at distance 1, and at most
// kWalkBudget nodes; past the budget no node can succeed, so the walk stops
// there.  A node with a coded neighbour can only take one of the `bits`
// codes one flip from the first such neighbour, its anchor; the candidates
// are a mask over those flips, narrowed by one AND per further neighbour.
// A node with none (the first state, unreachable states) takes any unused
// code.
bool walk(const Adjacency& adj, const std::vector<std::size_t>& order,
          std::size_t bits, std::vector<std::uint32_t>& code) {
  const std::size_t n = order.size();
  const auto code_space = static_cast<std::uint32_t>(std::size_t{1} << bits);
  const std::uint32_t all_dims = code_space - 1;
  struct Frame {
    bool anchored = false;
    std::uint32_t anchor = 0;
    std::uint32_t down = 0;  // flips of set anchor bits: codes below it
    std::uint32_t up = 0;    // flips of clear anchor bits: codes above it
    std::uint32_t next = 0;  // unanchored: the next code to try
  };
  std::vector<Frame> frames(n);
  std::vector<char> coded(n, 0);
  CodeSet used(code_space);
  long nodes = 0;
  std::size_t depth = 0;
  bool entering = true;
  for (;;) {
    if (entering && depth == n) return true;
    const std::size_t s = order[depth];
    Frame& f = frames[depth];
    if (entering) {
      if (++nodes > kWalkBudget) return false;
      f = Frame{};
      std::uint32_t dims = all_dims;
      for (std::size_t nb : adj[s]) {
        if (!coded[nb]) continue;
        if (!f.anchored) {
          f.anchored = true;
          f.anchor = code[nb];
        } else {
          dims = narrow(dims, f.anchor, code[nb]);
        }
      }
      f.down = dims & f.anchor;
      f.up = dims & ~f.anchor;
    } else {
      coded[s] = 0;
      used.remove(code[s]);
    }
    // The next candidate in ascending code order.
    std::uint32_t c = code_space;
    if (!f.anchored) {
      c = used.next_free(f.next);
      f.next = c + 1;
    } else {
      while (c == code_space && (f.down | f.up) != 0) {
        int dim;
        if (f.down != 0) {
          dim = 31 - __builtin_clz(f.down);
          f.down &= ~(std::uint32_t{1} << dim);
        } else {
          dim = __builtin_ctz(f.up);
          f.up &= ~(std::uint32_t{1} << dim);
        }
        if (!used.has(flip(f.anchor, dim))) c = flip(f.anchor, dim);
      }
    }
    if (c < code_space) {
      code[s] = c;
      coded[s] = 1;
      used.add(c);
      ++depth;
      entering = true;
    } else {
      if (depth == 0) return false;
      --depth;
      entering = false;
    }
  }
}

// Complete search for any distance-1 embedding, with forward checking:
// each uncoded vertex keeps the codes still open to it, and the most
// constrained goes next.  The cube's symmetries are broken: the first
// vertex takes code 0, and a dimension no code uses yet enters lowest
// first (all unused dimensions are interchangeable).
class EmbeddingSearch {
 public:
  EmbeddingSearch(const Adjacency& adj, std::size_t bits)
      : adj_(adj),
        n_(adj.size()),
        code_space_(static_cast<std::uint32_t>(std::size_t{1} << bits)),
        all_dims_(code_space_ - 1),
        open_(n_),
        coded_(n_, 0),
        used_(code_space_) {}

  Embeddable run() {
    switch (place(0)) {
      case Result::kFound: return Embeddable::kYes;
      case Result::kExhausted: return Embeddable::kNo;
      case Result::kCapped: break;
    }
    return Embeddable::kUnknown;
  }

 private:
  enum class Result { kFound, kExhausted, kCapped };
  // Codes open to an uncoded vertex: with a coded neighbour, the flips
  // `dims` of `anchor` (kept unused); without one, any unused code.
  struct Open {
    bool anchored = false;
    std::uint32_t anchor = 0;
    std::uint32_t dims = 0;
  };

  Result place(std::size_t placed) {
    if (placed == n_) return Result::kFound;
    const std::size_t v = most_constrained();
    const Open o = open_[v];
    // Dimensions no code uses; only the lowest of them may enter now.
    const std::uint32_t fresh = all_dims_ & ~used_dims_;
    if (o.anchored) {
      for (std::uint32_t dims = o.dims; dims != 0; dims &= dims - 1) {
        const int dim = __builtin_ctz(dims);
        const std::uint32_t bit = std::uint32_t{1} << dim;
        if ((fresh & bit) && (fresh & (bit - 1))) continue;
        Result r = try_code(v, flip(o.anchor, dim), placed);
        if (r != Result::kExhausted) return r;
      }
    } else {
      for (std::uint32_t c = 0; c < code_space_; ++c) {
        if (used_.has(c) || (placed == 0 && c != 0)) continue;
        // The fresh dimensions c sets must be the lowest fresh ones.
        const std::uint32_t added = c & fresh;
        if (added != 0) {
          const int top = 31 - __builtin_clz(added);
          if (added != (fresh & ((std::uint32_t{2} << top) - 1))) continue;
        }
        Result r = try_code(v, c, placed);
        if (r != Result::kExhausted) return r;
      }
    }
    return Result::kExhausted;
  }

  std::size_t most_constrained() const {
    std::size_t best = n_;
    int best_open = 0;
    for (std::size_t u = 0; u < n_; ++u) {
      if (coded_[u]) continue;
      if (!open_[u].anchored) {
        if (best == n_) best = u;
        continue;
      }
      const int k = __builtin_popcount(open_[u].dims);
      if (best == n_ || !open_[best].anchored || k < best_open) {
        best = u;
        best_open = k;
      }
    }
    return best;
  }

  Result try_code(std::size_t v, std::uint32_t c, std::size_t placed) {
    if (++nodes_ > kProofCap) return Result::kCapped;
    const std::size_t mark = trail_.size();
    const std::uint32_t saved_dims = used_dims_;
    coded_[v] = 1;
    used_.add(c);
    used_dims_ |= c;
    Result r = forward_check(v, c) ? place(placed + 1) : Result::kExhausted;
    if (r == Result::kExhausted) {
      while (trail_.size() > mark) {
        open_[trail_.back().first] = trail_.back().second;
        trail_.pop_back();
      }
      used_dims_ = saved_dims;
      used_.remove(c);
      coded_[v] = 0;
    }
    return r;
  }

  // Narrows every uncoded vertex's open codes after v takes c; false when
  // one is left with none.
  bool forward_check(std::size_t v, std::uint32_t c) {
    auto update = [&](std::size_t u, const Open& o) {
      trail_.emplace_back(u, open_[u]);
      open_[u] = o;
      return o.dims != 0;
    };
    for (std::size_t u : adj_[v]) {
      if (coded_[u]) continue;
      Open o = open_[u];
      if (!o.anchored) {
        o.anchored = true;
        o.anchor = c;
        o.dims = 0;
        for (std::uint32_t bit = 1; bit <= all_dims_; bit <<= 1)
          if (!used_.has(c ^ bit)) o.dims |= bit;
      } else {
        o.dims = narrow(o.dims, o.anchor, c);
      }
      if (!update(u, o)) return false;
    }
    for (std::size_t u = 0; u < n_; ++u) {
      if (coded_[u] || !open_[u].anchored) continue;
      const std::uint32_t x = open_[u].anchor ^ c;
      if (__builtin_popcount(x) != 1 || !(open_[u].dims & x)) continue;
      Open o = open_[u];
      o.dims &= ~x;
      if (!update(u, o)) return false;
    }
    return true;
  }

  const Adjacency& adj_;
  const std::size_t n_;
  const std::uint32_t code_space_;
  const std::uint32_t all_dims_;
  std::vector<Open> open_;
  std::vector<char> coded_;
  CodeSet used_;
  std::uint32_t used_dims_ = 0;  // dimensions some code sets
  std::vector<std::pair<std::size_t, Open>> trail_;
  long nodes_ = 0;
};

}  // namespace

Embeddable hypercube_embeddable(const Adjacency& adj, std::size_t bits) {
  const std::size_t n = adj.size();
  if (n > (std::size_t{1} << bits)) return Embeddable::kNo;
  // Every cube vertex has `bits` neighbours, and the cube is bipartite.
  std::vector<int> side(n, -1);
  for (std::size_t root = 0; root < n; ++root) {
    if (adj[root].size() > bits) return Embeddable::kNo;
    if (side[root] >= 0) continue;
    side[root] = 0;
    std::vector<std::size_t> frontier{root};
    while (!frontier.empty()) {
      std::size_t u = frontier.back();
      frontier.pop_back();
      for (std::size_t w : adj[u]) {
        if (side[w] < 0) {
          side[w] = 1 - side[u];
          frontier.push_back(w);
        } else if (side[w] == side[u]) {
          return Embeddable::kNo;
        }
      }
    }
  }
  return EmbeddingSearch(adj, bits).run();
}

Encoding assign_codes(const ConcreteMachine& cm) {
  Encoding enc;
  const std::size_t n = cm.states.size();
  enc.bits = 1;
  while ((std::size_t{1} << enc.bits) < n) ++enc.bits;
  enc.code.assign(n, 0);

  // Depth-first order from the initial state; Gray codes along the walk.
  std::vector<std::vector<std::size_t>> succs(n);
  for (const auto& t : cm.transitions) succs[t.from].push_back(t.to);

  std::vector<std::size_t> order;
  std::vector<char> seen(n, 0);
  std::vector<std::size_t> stack{cm.initial};
  while (!stack.empty()) {
    std::size_t s = stack.back();
    stack.pop_back();
    if (seen[s]) continue;
    seen[s] = 1;
    order.push_back(s);
    // Push in reverse so the first successor is visited next (ring order).
    for (auto it = succs[s].rbegin(); it != succs[s].rend(); ++it) stack.push_back(*it);
  }
  for (std::size_t s = 0; s < n; ++s)
    if (!seen[s]) order.push_back(s);  // unreachable safety

  // Hypercube embedding: each state takes an unused code, ideally at
  // Hamming distance 1 from every already-assigned neighbour.  The walk
  // tries to make every edge distance-1; when its budget runs out, or the
  // check proves no such embedding exists (e.g. an odd cycle: the
  // hypercube is bipartite, so a loop entry/exit triangle cannot embed), the
  // greedy completion below takes over.  Remaining multi-bit changes are
  // counted and handled as declared race assumptions by the spec builder.
  Adjacency adj(n);
  for (const auto& t : cm.transitions) {
    if (t.from == t.to) continue;
    adj[t.from].push_back(t.to);
    adj[t.to].push_back(t.from);
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }

  if (hypercube_embeddable(adj, enc.bits) == Embeddable::kNo ||
      !walk(adj, order, enc.bits, enc.code)) {
    // Greedy fallback: the lowest unused code with the fewest extra bits
    // changed against the assigned neighbours.
    const std::size_t code_space = std::size_t{1} << enc.bits;
    std::vector<bool> used(code_space, false);
    std::vector<bool> assigned(n, false);
    for (std::size_t s : order) {
      std::uint32_t best = 0;
      long best_score = -1;
      for (std::uint32_t c = 0; c < code_space; ++c) {
        if (used[c]) continue;
        long score = 0;
        for (std::size_t nb : adj[s]) {
          if (!assigned[nb]) continue;
          int d = __builtin_popcount(c ^ enc.code[nb]);
          score += d == 1 ? 0 : 100L * d;
        }
        if (best_score < 0 || score < best_score) {
          best_score = score;
          best = c;
        }
      }
      enc.code[s] = best;
      used[best] = true;
      assigned[s] = true;
    }
  }

  for (const auto& t : cm.transitions) {
    if (t.from == t.to) continue;
    ++enc.total;
    if (__builtin_popcount(enc.code[t.from] ^ enc.code[t.to]) == 1) ++enc.distance1;
  }
  return enc;
}

}  // namespace adc
