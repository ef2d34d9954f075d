#include "src/sim/parse.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace saba {

std::optional<int64_t> ParseInt64(const std::string& text) {
  // strtoll silently skips leading whitespace; the documented contract is
  // "the whole string is the number", so reject it up front.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front()))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) {
    return std::nullopt;
  }
  return static_cast<int64_t>(parsed);
}

std::optional<uint64_t> ParseUint64(const std::string& text) {
  // strtoull also skips whitespace and takes a sign (negating "-1" into
  // 2^64 - 1), so the first character must already be a digit.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text.front()))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(parsed);
}

std::optional<double> ParseDoubleField(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front()))) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end != text.c_str() + text.size() || !std::isfinite(parsed)) {
    return std::nullopt;
  }
  return parsed;
}

}  // namespace saba
