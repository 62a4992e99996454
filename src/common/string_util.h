#ifndef AUTOEM_COMMON_STRING_UTIL_H_
#define AUTOEM_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace autoem {

/// Lower-cases ASCII characters; non-ASCII bytes pass through unchanged.
std::string ToLower(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// Splits on a single character; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins the pieces with `sep` between them.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Reads all of `s` (no spaces, no '+') as one base-10 number in the finite
/// range [lo, hi], or returns InvalidArgument. T is int, uint64_t or double.
template <typename T>
Result<T> ParseNumber(std::string_view s, T lo, T hi);

/// The rule for "this table cell is a number": strtod reads all of `s`, so
/// leading spaces, a sign, hex, inf and nan are accepted, while an empty
/// text or one with anything left over (an embedded NUL included) is not.
/// Sets *value only on success.
bool ParseCellNumber(std::string_view s, double* value);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace autoem

#endif  // AUTOEM_COMMON_STRING_UTIL_H_
