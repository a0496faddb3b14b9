#pragma once
// Command-line values shared by the adc_* tools.
//
// A number is read whole and range-checked for the variable it lands in:
// "21x", "", "-1" for an unsigned flag or 2^32 for a 32-bit one is a
// usage error that names the flag and the value and exits 2, never a
// silent prefix, a wrapped or truncated value, or a bare "stoll" abort.

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace adc::cli {

// Upper bound of the thread-count flags (--jobs, --workers): each thread
// is started up front, so a typo must not ask the system for millions.
inline constexpr std::size_t kMaxThreads = 1024;

// All of `text` as a T in [lo, hi]; nullopt on anything else (empty text,
// a sign an unsigned T cannot hold, trailing characters, overflow, NaN).
template <typename T>
std::optional<T> parse_number(std::string_view text,
                              std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                              std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  if (!(value >= lo && value <= hi)) return std::nullopt;
  return value;
}

// Prints "<tool>: <what>" and exits with the usage status.
[[noreturn]] inline void usage_error(const char* tool, const std::string& what) {
  std::fprintf(stderr, "%s: %s\n", tool, what.c_str());
  std::exit(2);
}

// `text` as a T in [lo, hi], or a usage error naming `what` (a flag) and
// the value.
template <typename T>
T number(const char* tool, const std::string& what, const std::string& text,
         std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
         std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  if (auto v = parse_number<T>(text, lo, hi)) return *v;
  std::ostringstream expected;
  if (std::is_integral_v<T>)
    expected << "an integer in [" << lo << ", " << hi << "]";
  else if (lo == std::numeric_limits<T>::lowest() && hi == std::numeric_limits<T>::max())
    expected << "a finite number";
  else
    expected << "a number in [" << lo << ", " << hi << "]";
  usage_error(tool, what + " expects " + expected.str() + ", got '" + text + "'");
}

// Parses a flag's value into `dest`; its type sets the range unless
// [lo, hi] narrows it.
template <typename T>
void set_number(T& dest, const char* tool, const std::string& flag, const std::string& text,
                std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  dest = number<T>(tool, flag, text, lo, hi);
}

// Splits on `sep`, trimming blanks and dropping empty items.
inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) {
    auto b = item.find_first_not_of(" \t\n");
    auto e = item.find_last_not_of(" \t\n");
    if (b == std::string::npos) continue;
    out.push_back(item.substr(b, e - b + 1));
  }
  return out;
}

// "REG=VAL,..." initial register values given to `flag`.
inline std::map<std::string, std::int64_t> parse_init(const char* tool,
                                                      const std::string& flag,
                                                      const std::string& spec) {
  std::map<std::string, std::int64_t> init;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0)
      usage_error(tool, flag + " expects REG=VAL pairs, got '" + item + "'");
    init[item.substr(0, eq)] =
        number<std::int64_t>(tool, flag + " " + item.substr(0, eq), item.substr(eq + 1));
  }
  return init;
}

// "HOST:PORT" given to `flag`.
inline std::pair<std::string, std::uint16_t> host_port(const char* tool,
                                                       const std::string& flag,
                                                       const std::string& spec) {
  auto colon = spec.rfind(':');
  if (colon == std::string::npos)
    usage_error(tool, flag + " expects HOST:PORT, got '" + spec + "'");
  return {spec.substr(0, colon),
          number<std::uint16_t>(tool, flag, spec.substr(colon + 1))};
}

}  // namespace adc::cli
