// Formatting helpers used by the metrics tables and bench harnesses,
// plus the strict number parsers every CLI flag and env knob shares.

#ifndef OSCAR_COMMON_STRING_UTIL_H_
#define OSCAR_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <sstream>
#include <string>

namespace oscar {

/// Concatenates the stream representations of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Fixed-point rendering with `digits` decimals, e.g. FormatDouble(3.14159, 2)
/// == "3.14". Negative zero is normalized to "0".
std::string FormatDouble(double value, int digits);

/// Renders a fraction as a percentage, e.g. FormatPercent(0.853) == "85.3%".
std::string FormatPercent(double fraction, int digits = 1);

/// Parses all of `text` as a base-10 unsigned integer. Rejects (returns
/// false, leaves *out alone) empty text, a leading sign or whitespace —
/// strtoull would wrap "-1" to 2^64-1 — trailing garbage, and values
/// beyond uint64_t.
bool ParseUint64(const std::string& text, uint64_t* out);

/// Parses all of `text` as a finite decimal number. Rejects empty text,
/// a leading sign or whitespace, trailing garbage, nan/inf spellings,
/// and magnitudes strtod reports out of range (overflow or underflow).
/// Callers that accept only non-negative values get them for free: a
/// leading '-' is already a rejection.
bool ParseFiniteDouble(const std::string& text, double* out);

}  // namespace oscar

#endif  // OSCAR_COMMON_STRING_UTIL_H_
