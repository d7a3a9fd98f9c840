//===- support/Format.h - printf-style string formatting --------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string-formatting helpers used across the library so that library
/// code never needs <iostream>.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_SUPPORT_FORMAT_H
#define HERBGRIND_SUPPORT_FORMAT_H

#include <string>
#include <vector>

namespace herbgrind {

/// Formats like printf into a std::string.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders a double with the shortest decimal digits that round-trip, the
/// way FPCore expressions print constants (e.g. "0.1", "2.061152e-09").
std::string formatDoubleShortest(double X);

/// Joins strings with a separator.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, and control characters).
std::string jsonEscape(const std::string &S);

/// Prints "herbgrind: fatal: <Msg>" to stderr and aborts, in every build
/// mode. For broken invariants whose silent continuation would corrupt a
/// report (an assert would vanish under NDEBUG).
[[noreturn]] void fatalError(const std::string &Msg);

} // namespace herbgrind

#endif // HERBGRIND_SUPPORT_FORMAT_H
