#include "common/string_util.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iomanip>

namespace oscar {

std::string FormatDouble(double value, int digits) {
  if (value == 0.0) value = 0.0;  // Collapse -0.0.
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

std::string FormatPercent(double fraction, int digits) {
  return FormatDouble(fraction * 100.0, digits) + "%";
}

namespace {

/// strtoull/strtod skip leading whitespace and accept a sign; the strict
/// parsers want a digit right away.
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

bool ParseUint64(const std::string& text, uint64_t* out) {
  if (text.empty() || !IsDigit(text[0])) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  *out = parsed;
  return true;
}

bool ParseFiniteDouble(const std::string& text, double* out) {
  if (text.empty() || !(IsDigit(text[0]) || text[0] == '.')) return false;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || *end != '\0' || !std::isfinite(parsed)) {
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace oscar
