// Strict numeric command-line values, shared by meek_serve and meek_search.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <system_error>

namespace meek::cli {

// A numeric flag's value: the whole token as a T in [lo, hi] (no sign on an
// unsigned type, no trailing characters, no overflow, never NaN), or a usage
// error — "bad FLAG value 'TEXT'" on stderr, exit 2 — before anything reaches
// stdout.
template <typename T>
T parse_number(std::string_view flag, std::string_view text, T lo,
               T hi = std::numeric_limits<T>::max()) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end || !(value >= lo && value <= hi)) {
        std::fprintf(stderr, "bad %.*s value '%.*s'\n", static_cast<int>(flag.size()),
                     flag.data(), static_cast<int>(text.size()), text.data());
        std::exit(2);
    }
    return value;
}

}  // namespace meek::cli
