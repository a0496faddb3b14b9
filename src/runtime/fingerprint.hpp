#pragma once
// Content-addressing primitive shared by the stage cache, the disk tier
// and the logic memo.  Lives apart from cache.hpp so low-level libraries
// (e.g. the logic minimizer) can fingerprint keys without pulling in the
// executor-facing cache machinery.

#include <cstdint>
#include <string>
#include <vector>

namespace adc {

// 128-bit FNV-1a style fingerprint; two independent 64-bit lanes keep the
// collision odds negligible for cache-sized key sets.
struct Fingerprint {
  std::uint64_t hi = 0xcbf29ce484222325ull;
  std::uint64_t lo = 0x84222325cbf29ce4ull;

  bool operator==(const Fingerprint& o) const { return hi == o.hi && lo == o.lo; }
  bool operator<(const Fingerprint& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }
  std::string hex() const;
};

class FingerprintBuilder {
 public:
  FingerprintBuilder& add(const std::string& s);
  FingerprintBuilder& add(const char* s) { return add(std::string(s)); }
  FingerprintBuilder& add(std::int64_t v);
  FingerprintBuilder& add(std::uint64_t v);
  FingerprintBuilder& add(bool v) { return add(std::uint64_t{v ? 1u : 0u}); }
  // Chain from a previous stage's fingerprint.
  FingerprintBuilder& add(const Fingerprint& f);
  // A length-prefixed record of 64-bit words, each mixed whole by an
  // xxHash64-style round (one per lane) instead of byte by byte: many times
  // the throughput of add(), for digests of large structures.  Use
  // WordRecord to lay a structure out as words.
  FingerprintBuilder& add_words(const std::uint64_t* words, std::size_t n);

  Fingerprint digest() const { return fp_; }

 private:
  void mix(const void* data, std::size_t n);
  Fingerprint fp_;
};

// A structure laid out as 64-bit words for FingerprintBuilder::add_words:
// integers one word each, strings length-prefixed and packed 8 bytes a word.
class WordRecord {
 public:
  explicit WordRecord(std::size_t capacity = 0) { words_.reserve(capacity); }
  WordRecord& add(std::uint64_t v) {
    words_.push_back(v);
    return *this;
  }
  WordRecord& add(const std::string& s);
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace adc
