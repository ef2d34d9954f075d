// Strict text-to-number parsing, shared by the environment knobs, the
// scenario parser and the command-line tools: the whole string must be the
// number. A malformed value comes back as nullopt, never as an exception
// (std::stod and std::stoi throw) or a silently truncated value
// (std::atoi("12x") is 12).

#ifndef SRC_SIM_PARSE_H_
#define SRC_SIM_PARSE_H_

#include <cstdint>
#include <optional>
#include <string>

namespace saba {

// Base-10 integer parse that consumes the whole string (surrounding
// whitespace rejected). nullopt on empty, trailing junk, or overflow.
std::optional<int64_t> ParseInt64(const std::string& text);

// Base-10 parse of the full uint64 range (seeds are opaque bit patterns, not
// counts). The whole string must be digits: a sign or surrounding whitespace
// is rejected. nullopt on empty, trailing junk, or overflow.
std::optional<uint64_t> ParseUint64(const std::string& text);

// Floating-point parse that consumes the whole string (surrounding
// whitespace rejected). nullopt on empty, trailing junk, out-of-range
// (1e999) and non-finite (nan, inf) values.
std::optional<double> ParseDoubleField(const std::string& text);

}  // namespace saba

#endif  // SRC_SIM_PARSE_H_
