#ifndef CFNET_UTIL_STRING_UTIL_H_
#define CFNET_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace cfnet {

/// Strips ASCII whitespace from both ends.
std::string_view StrTrim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Final path/URL segment: text after the last '/', e.g. the Twitter handle
/// extraction the paper describes ("the string after the last '/' symbol").
std::string_view LastUrlSegment(std::string_view url);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable large number, e.g. 744036 -> "744,036".
std::string WithThousandsSeparators(int64_t v);

}  // namespace cfnet

#endif  // CFNET_UTIL_STRING_UTIL_H_
