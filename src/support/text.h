// Small string-formatting helpers (GCC 12 lacks <format>).

#ifndef SRC_SUPPORT_TEXT_H_
#define SRC_SUPPORT_TEXT_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

namespace opec_support {

// printf-style formatting into a std::string.
std::string StrPrintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Renders an address as 0xXXXXXXXX.
std::string HexAddr(uint32_t addr);

// Joins the elements with the separator.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

// Escapes `s` for use inside a JSON string literal.
std::string JsonEscape(const std::string& s);

}  // namespace opec_support

#endif  // SRC_SUPPORT_TEXT_H_
