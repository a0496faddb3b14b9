#include "runtime/fingerprint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace adc {

namespace {
constexpr std::uint64_t kPrimeHi = 0x100000001b3ull;
constexpr std::uint64_t kPrimeLo = 0x00000100000001b3ull ^ 0x9e3779b97f4a7c15ull;

// xxHash64's accumulator round, with distinct primes and rotations per
// lane: the multiply of the input word is off the dependency chain, so a
// word costs one add, rotate and multiply of latency.
std::uint64_t round_hi(std::uint64_t acc, std::uint64_t w) {
  acc += w * 0xc2b2ae3d27d4eb4full;
  return ((acc << 31) | (acc >> 33)) * 0x9e3779b185ebca87ull;
}
std::uint64_t round_lo(std::uint64_t acc, std::uint64_t w) {
  acc += w * 0x165667b19e3779f9ull;
  return ((acc << 27) | (acc >> 37)) * 0x85ebca77c2b2ae63ull;
}
}  // namespace

std::string Fingerprint::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx", static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

void FingerprintBuilder::mix(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    fp_.hi = (fp_.hi ^ p[i]) * kPrimeHi;
    fp_.lo = (fp_.lo ^ p[i]) * kPrimeLo;
  }
}

FingerprintBuilder& FingerprintBuilder::add(const std::string& s) {
  std::uint64_t len = s.size();
  mix(&len, sizeof len);  // length-prefix: "ab"+"c" != "a"+"bc"
  mix(s.data(), s.size());
  return *this;
}

FingerprintBuilder& FingerprintBuilder::add(std::int64_t v) {
  mix(&v, sizeof v);
  return *this;
}

FingerprintBuilder& FingerprintBuilder::add(std::uint64_t v) {
  mix(&v, sizeof v);
  return *this;
}

FingerprintBuilder& FingerprintBuilder::add(const Fingerprint& f) {
  mix(&f.hi, sizeof f.hi);
  mix(&f.lo, sizeof f.lo);
  return *this;
}

FingerprintBuilder& FingerprintBuilder::add_words(const std::uint64_t* words,
                                                  std::size_t n) {
  add(std::uint64_t{n});
  for (std::size_t i = 0; i < n; ++i) {
    fp_.hi = round_hi(fp_.hi, words[i]);
    fp_.lo = round_lo(fp_.lo, words[i]);
  }
  return *this;
}

WordRecord& WordRecord::add(const std::string& s) {
  words_.push_back(s.size());
  for (std::size_t i = 0; i < s.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + i, std::min<std::size_t>(8, s.size() - i));
    words_.push_back(w);
  }
  return *this;
}

}  // namespace adc
