#pragma once

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>

namespace treeplace {

/// Why a whole-token number parse failed (None = it did not).
enum class NumberError { None, Invalid, OutOfRange };

/// Parse all of `text` as a base-10 int64: trailing characters ("3x"), an
/// empty token and values outside int64 are errors, never a partial read or
/// a silent wrap.
inline NumberError parseWholeInt(std::string_view text, std::int64_t& value) {
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc::result_out_of_range) return NumberError::OutOfRange;
  if (ec != std::errc{} || ptr != last || text.empty()) return NumberError::Invalid;
  return NumberError::None;
}

/// Parse all of `text` as a finite double. strtod, not from_chars<double>:
/// libstdc++ shipped the latter late enough that some supported toolchains
/// lack it. End-pointer + errno give the same full-consumption and range
/// guarantees.
inline NumberError parseWholeDouble(const std::string& text, double& value) {
  errno = 0;
  char* end = nullptr;
  value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) return NumberError::Invalid;
  if (errno == ERANGE || !std::isfinite(value)) return NumberError::OutOfRange;
  return NumberError::None;
}

/// parseWholeInt plus a [lo, hi] range check for the text formats' counts,
/// ids and values. On failure calls `fail(message)`, which must throw; the
/// message names `what` and quotes the token.
template <class Fail>
std::int64_t parseIntInRange(const std::string& token, std::int64_t lo, std::int64_t hi,
                             const std::string& what, Fail&& fail) {
  std::int64_t value = 0;
  const NumberError error = parseWholeInt(token, value);
  if (error == NumberError::Invalid) fail("bad " + what + " '" + token + "'");
  if (error != NumberError::None || value < lo || value > hi)
    fail(what + " out of range: " + token);
  return value;
}

}  // namespace treeplace
