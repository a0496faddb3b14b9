#pragma once
// Cube algebra for two-level hazard-free logic minimization.
//
// A cube over n binary variables assigns each variable one of {0, 1, X}.
// Representation: two bitmasks per word — can0 (the variable may be 0) and
// can1 (the variable may be 1).  0 = can0, 1 = can1, X = both.  A variable
// with neither bit is an empty (contradictory) cube.
//
// Layout: the two masks live in one flat word array — can0 at
// [0, words), can1 at [words, 2*words) — held inline for n <= 128
// variables (every DIFFEQ/MAC controller fits one word) and on the heap
// beyond that.  All kernels are word-parallel: containment and
// intersection are mask tests, the literal count is a popcount, and none
// of them allocate.

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace adc {

class Cube {
 public:
  static constexpr std::size_t kBitsPerWord = 64;
  // Words held inline per mask; cubes up to kInlineWords * 64 variables
  // never touch the heap.
  static constexpr std::size_t kInlineWords = 2;

  Cube() = default;
  // The universal cube (all X) over n variables.
  explicit Cube(std::size_t n) : n_(static_cast<std::uint32_t>(n)), words_(word_count(n)) {
    if (words_ > kInlineWords) heap_.reset(new std::uint64_t[2 * words_]);
    std::uint64_t* d = data();
    for (std::size_t w = 0; w < words_; ++w) d[w] = d[words_ + w] = live_mask(w);
  }
  Cube(const Cube& o) : n_(o.n_), words_(o.words_) {
    if (words_ > kInlineWords) heap_.reset(new std::uint64_t[2 * words_]);
    std::memcpy(data(), o.data(), 2 * words_ * sizeof(std::uint64_t));
  }
  Cube(Cube&& o) noexcept : n_(o.n_), words_(o.words_), heap_(std::move(o.heap_)) {
    if (words_ <= kInlineWords)
      std::memcpy(sbo_, o.sbo_, 2 * words_ * sizeof(std::uint64_t));
  }
  Cube& operator=(const Cube& o) {
    if (this == &o) return *this;
    if (o.words_ > kInlineWords && (words_ != o.words_ || !heap_))
      heap_.reset(new std::uint64_t[2 * o.words_]);
    n_ = o.n_;
    words_ = o.words_;
    std::memcpy(data(), o.data(), 2 * words_ * sizeof(std::uint64_t));
    return *this;
  }
  Cube& operator=(Cube&& o) noexcept {
    if (this == &o) return *this;
    n_ = o.n_;
    words_ = o.words_;
    heap_ = std::move(o.heap_);
    if (words_ <= kInlineWords)
      std::memcpy(sbo_, o.sbo_, 2 * words_ * sizeof(std::uint64_t));
    return *this;
  }

  std::size_t var_count() const { return n_; }

  enum class V : std::uint8_t { kZero, kOne, kFree, kEmpty };

  V get(std::size_t var) const {
    const std::uint64_t bit = std::uint64_t{1} << (var % kBitsPerWord);
    const std::uint64_t* d = data();
    bool c0 = d[var / kBitsPerWord] & bit;
    bool c1 = d[words_ + var / kBitsPerWord] & bit;
    if (c0 && c1) return V::kFree;
    if (c0) return V::kZero;
    if (c1) return V::kOne;
    return V::kEmpty;
  }
  void set(std::size_t var, V v) {
    const std::uint64_t bit = std::uint64_t{1} << (var % kBitsPerWord);
    std::uint64_t* d = data();
    std::uint64_t& w0 = d[var / kBitsPerWord];
    std::uint64_t& w1 = d[words_ + var / kBitsPerWord];
    w0 &= ~bit;
    w1 &= ~bit;
    if (v == V::kZero || v == V::kFree) w0 |= bit;
    if (v == V::kOne || v == V::kFree) w1 |= bit;
  }
  Cube with(std::size_t var, V v) const {
    Cube c = *this;
    c.set(var, v);
    return c;
  }

  // No variable is kEmpty.
  bool valid() const {
    const std::uint64_t* d = data();
    for (std::size_t w = 0; w < words_; ++w)
      if (((d[w] | d[words_ + w]) & live_mask(w)) != live_mask(w)) return false;
    return true;
  }

  // Number of fixed (0/1) variables — the literal count of the product.
  std::size_t literal_count() const {
    const std::uint64_t* d = data();
    std::size_t lits = 0;
    for (std::size_t w = 0; w < words_; ++w)
      lits += static_cast<std::size_t>(__builtin_popcountll(d[w] ^ d[words_ + w]));
    return lits;
  }

  // Containment: every assignment in `other` is in *this.
  bool contains(const Cube& other) const {
    const std::uint64_t* a = data();
    const std::uint64_t* b = other.data();
    for (std::size_t w = 0; w < words_; ++w) {
      if (b[w] & ~a[w]) return false;
      if (b[words_ + w] & ~a[words_ + w]) return false;
    }
    return true;
  }

  // Non-empty intersection?  True iff every variable keeps at least one
  // allowed value in both cubes — a pure mask test, no temporary cube.
  bool intersects(const Cube& other) const {
    const std::uint64_t* a = data();
    const std::uint64_t* b = other.data();
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t alive = (a[w] & b[w]) | (a[words_ + w] & b[words_ + w]);
      if ((alive & live_mask(w)) != live_mask(w)) return false;
    }
    return true;
  }

  Cube intersect(const Cube& other) const {  // may be invalid
    Cube out = *this;
    out.intersect_with(other);
    return out;
  }
  void intersect_with(const Cube& other) {
    std::uint64_t* a = data();
    const std::uint64_t* b = other.data();
    for (std::size_t w = 0; w < 2 * words_; ++w) a[w] &= b[w];
  }

  // Smallest cube containing both.
  Cube supercube(const Cube& other) const {
    Cube out = *this;
    out.supercube_with(other);
    return out;
  }
  void supercube_with(const Cube& other) {
    std::uint64_t* a = data();
    const std::uint64_t* b = other.data();
    for (std::size_t w = 0; w < 2 * words_; ++w) a[w] |= b[w];
  }

  friend bool operator==(const Cube& a, const Cube& b) {
    if (a.n_ != b.n_) return false;
    return std::memcmp(a.data(), b.data(), 2 * a.words_ * sizeof(std::uint64_t)) == 0;
  }

  // Arbitrary total order for sorted containers and deterministic
  // iteration: lexicographic over the can0 words, then the can1 words —
  // exactly the order the original std::vector-backed representation gave
  // std::set<Cube>, so candidate pools sort identically.
  bool operator<(const Cube& o) const {
    const std::uint64_t* a = data();
    const std::uint64_t* b = o.data();
    for (std::size_t w = 0; w < words_ && w < o.words_; ++w)
      if (a[w] != b[w]) return a[w] < b[w];
    if (words_ != o.words_) return words_ < o.words_;
    for (std::size_t w = 0; w < words_; ++w)
      if (a[words_ + w] != b[words_ + w]) return a[words_ + w] < b[words_ + w];
    return false;
  }

  // FNV-1a over the mask words (and n), for hash-based cube pools.
  std::uint64_t hash() const {
    const std::uint64_t* d = data();
    std::uint64_t h = 0xcbf29ce484222325ull ^ n_;
    for (std::size_t w = 0; w < 2 * words_; ++w) {
      h ^= d[w];
      h *= 0x100000001b3ull;
    }
    return h;
  }

  // Raw mask access for word-parallel consumers (fingerprinting,
  // serialization, the minimizer's expansion).  can0 at
  // words()[0..word_count), can1 after it.  A writer keeps the bits past
  // var_count() zero.
  std::size_t word_count() const { return words_; }
  const std::uint64_t* words() const { return data(); }
  std::uint64_t* words() { return data(); }

  // Rendering: one character per variable (0, 1, -).
  std::string to_string() const;

 private:
  static std::uint32_t word_count(std::size_t n) {
    return static_cast<std::uint32_t>((n + kBitsPerWord - 1) / kBitsPerWord);
  }
  // Mask of the bits that correspond to live variables in word w.
  std::uint64_t live_mask(std::size_t w) const {
    if (w + 1 == words_ && n_ % kBitsPerWord != 0)
      return (std::uint64_t{1} << (n_ % kBitsPerWord)) - 1;
    return ~std::uint64_t{0};
  }
  std::uint64_t* data() { return words_ <= kInlineWords ? sbo_ : heap_.get(); }
  const std::uint64_t* data() const {
    return words_ <= kInlineWords ? sbo_ : heap_.get();
  }

  std::uint32_t n_ = 0;
  std::uint32_t words_ = 0;
  std::uint64_t sbo_[2 * kInlineWords] = {};
  std::unique_ptr<std::uint64_t[]> heap_;
};

// Open-addressing hash set of cubes — the deduplicating candidate pool of
// the minimizer.  Insert-only; `sorted()` renders the canonical ascending
// order (Cube::operator<) the covering step iterates in.
class CubeSet {
 public:
  explicit CubeSet(std::size_t expected = 16) { rehash(capacity_for(expected)); }

  // True when the cube was new.
  bool insert(const Cube& c) {
    const std::size_t before = items_.size();
    return id(c) == before;
  }
  // The cube's index in items(), inserting it when new: ids are dense and
  // in first-insertion order.
  std::size_t id(const Cube& c) {
    if ((items_.size() + 1) * 4 >= slots_.size() * 3) rehash(slots_.size() * 2);
    std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(c.hash()) & mask;
    while (slots_[i] != kEmpty) {
      if (items_[slots_[i]] == c) return slots_[i];
      i = (i + 1) & mask;
    }
    slots_[i] = items_.size();
    items_.push_back(c);
    return slots_[i];
  }

  std::size_t size() const { return items_.size(); }
  const std::vector<Cube>& items() const { return items_; }

  std::vector<Cube> sorted() const;

 private:
  static constexpr std::size_t kEmpty = static_cast<std::size_t>(-1);
  static std::size_t capacity_for(std::size_t expected) {
    std::size_t cap = 16;
    while (cap * 3 < expected * 4) cap *= 2;
    return cap;
  }
  void rehash(std::size_t new_cap);

  std::vector<std::size_t> slots_;  // index into items_, kEmpty = free
  std::vector<Cube> items_;
};

}  // namespace adc
