#ifndef DCDATALOG_COMMON_PARSE_H_
#define DCDATALOG_COMMON_PARSE_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace dcdatalog {

/// Checked number parsing for command-line flags and the fields of fact
/// files and update scripts (storage/text_io.h). std::atoi silently
/// turns garbage into 0 and accepts negatives/trailing junk — for flags
/// like --workers that then picks a nonsensical configuration without a
/// word. These helpers demand full consumption of the input, reject empty
/// strings, and range-check, so callers can fail loudly instead.

/// Parses a base-10 signed integer, requiring the whole string to be
/// consumed and `min <= value <= max`. Returns false (leaving *out
/// untouched) on any violation, including overflow. Leading whitespace and
/// an explicit '+' sign are rejected too: " 5" and "+5" are not the
/// canonical spelling a value round-trips through. std::from_chars itself
/// accepts neither, so the rule is "from_chars over the whole token".
inline bool ParseInt64Checked(std::string_view s, int64_t min, int64_t max,
                              int64_t* out) {
  int64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return false;
  if (v < min || v > max) return false;
  *out = v;
  return true;
}

/// Unsigned variant: the first character must be a digit, so "-1" is
/// rejected rather than wrapped to a huge positive value.
inline bool ParseUint64Checked(std::string_view s, uint64_t min, uint64_t max,
                               uint64_t* out) {
  uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return false;
  if (v < min || v > max) return false;
  *out = v;
  return true;
}

inline bool ParseUint32Checked(std::string_view s, uint32_t min, uint32_t max,
                               uint32_t* out) {
  uint64_t v = 0;
  if (!ParseUint64Checked(s, min, max, &v)) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

/// Parses a finite decimal floating-point number, requiring the whole
/// string to be consumed (std::atof turns "0.0x1" into 0 without a word).
/// The first character must be a digit, '-' or '.': this rejects '+',
/// leading whitespace, "inf" and "nan". Hex ("0x1p3"), infinities and
/// values that overflow or underflow to zero are rejected as well.
inline bool ParseDoubleChecked(std::string_view s, double* out) {
  if (s.empty() ||
      !(s[0] == '-' || s[0] == '.' || (s[0] >= '0' && s[0] <= '9'))) {
    return false;
  }
  double v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

/// C-string forms for argv values; a null pointer is rejected.
inline bool ParseInt64Checked(const char* s, int64_t min, int64_t max,
                              int64_t* out) {
  return s != nullptr && ParseInt64Checked(std::string_view(s), min, max, out);
}

inline bool ParseUint64Checked(const char* s, uint64_t min, uint64_t max,
                               uint64_t* out) {
  return s != nullptr &&
         ParseUint64Checked(std::string_view(s), min, max, out);
}

inline bool ParseUint32Checked(const char* s, uint32_t min, uint32_t max,
                               uint32_t* out) {
  return s != nullptr &&
         ParseUint32Checked(std::string_view(s), min, max, out);
}

inline bool ParseDoubleChecked(const char* s, double* out) {
  return s != nullptr && ParseDoubleChecked(std::string_view(s), out);
}

}  // namespace dcdatalog

#endif  // DCDATALOG_COMMON_PARSE_H_
