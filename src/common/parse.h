#ifndef DCDATALOG_COMMON_PARSE_H_
#define DCDATALOG_COMMON_PARSE_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace dcdatalog {

/// Checked number parsing for command-line surfaces. std::atoi silently
/// turns garbage into 0 and accepts negatives/trailing junk — for flags
/// like --workers that then picks a nonsensical configuration without a
/// word. These helpers demand full consumption of the input, reject empty
/// strings, and range-check, so callers can fail loudly instead.

/// Parses a base-10 signed integer, requiring the whole string to be
/// consumed and `min <= value <= max`. Returns false (leaving *out
/// untouched) on any violation, including overflow. strtoll itself skips
/// leading whitespace and accepts an explicit '+' sign; both violate the
/// full-consumption contract (" 5" and "+5" are not the canonical spelling
/// a flag value round-trips through), so they are rejected up front.
inline bool ParseInt64Checked(const char* s, int64_t min, int64_t max,
                              int64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  if (!(*s == '-' || (*s >= '0' && *s <= '9'))) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  if (v < min || v > max) return false;
  *out = v;
  return true;
}

/// Unsigned variant. The first character must be a digit: this rejects
/// leading whitespace and '+' (which strtoull skips) and '-' (which
/// strtoull would happily wrap to a huge positive value).
inline bool ParseUint64Checked(const char* s, uint64_t min, uint64_t max,
                               uint64_t* out) {
  if (s == nullptr || !(*s >= '0' && *s <= '9')) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  if (v < min || v > max) return false;
  *out = v;
  return true;
}

inline bool ParseUint32Checked(const char* s, uint32_t min, uint32_t max,
                               uint32_t* out) {
  uint64_t v = 0;
  if (!ParseUint64Checked(s, min, max, &v)) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

/// Parses a finite decimal floating-point number, requiring the whole
/// string to be consumed (std::atof turns "0.0x1" into 0 without a word).
/// The first character must be a digit, '-' or '.'.
inline bool ParseDoubleChecked(const char* s, double* out) {
  if (s == nullptr ||
      !(*s == '-' || *s == '.' || (*s >= '0' && *s <= '9'))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno == ERANGE || end == s || *end != '\0' || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace dcdatalog

#endif  // DCDATALOG_COMMON_PARSE_H_
