#pragma once
// Shared command-line helpers for the pgl tools (pgl_layout, pgl_serve),
// for the flags that are not layout flags (--status-fd, --workers, --id,
// ...). The layout flags are parsed by core::parse_flag from the request
// field table (core/request.hpp).
//
// std::atoi silently turned garbage and out-of-range values into 0 and the
// run "succeeded" with a nonsense config; std::from_chars lets us reject
// both with a clear diagnostic naming the flag. All helpers exit(2) — the
// tools' usage-error status — on bad input, so call them only from
// command-line parsing, never from library code.
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <system_error>

#include "core/request.hpp"

namespace pgl::cli {

template <typename T>
T parse_int_or_die(const std::string& flag, const char* text) {
    T value{};
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec == std::errc::result_out_of_range) {
        std::cerr << "value for " << flag << " is out of range: '" << text
                  << "'\n";
        std::exit(2);
    }
    if (ec != std::errc() || ptr != end) {
        std::cerr << "invalid value for " << flag << ": '" << text
                  << "' (expected a non-negative integer)\n";
        std::exit(2);
    }
    return value;
}

/// core::parse_flag — applies the layout flag at argv[i], false when it
/// is none — dying with its diagnostic on a bad value.
inline bool layout_flag_or_die(int argc, char** argv, int& i,
                               core::LayoutRequest& r) try {
    return core::parse_flag(argc, argv, i, r);
} catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
}

/// core::validate in flag spelling, dying with its diagnostic.
inline void validate_or_die(const core::LayoutRequest& r) try {
    core::validate(r, core::Spelling::kFlag);
} catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
}

/// Returns argv[++i] or dies with the tools' shared "requires an argument"
/// diagnostic (optionally printing a usage screen first via `usage`).
template <typename UsageFn>
const char* next_arg_or_die(int argc, char** argv, int& i,
                            const std::string& arg, UsageFn&& usage) {
    if (i + 1 >= argc) {
        std::cerr << "option " << arg << " requires an argument\n";
        usage();
        std::exit(2);
    }
    return argv[++i];
}

}  // namespace pgl::cli
