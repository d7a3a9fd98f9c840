//===- support/Format.cpp - printf-style string formatting ----------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace herbgrind;

std::string herbgrind::format(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  assert(Needed >= 0 && "invalid format string");
  std::string Result(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

std::string herbgrind::formatDoubleShortest(double X) {
  if (std::isnan(X))
    return "NAN";
  if (std::isinf(X))
    return X > 0 ? "INFINITY" : "-INFINITY";
  char Buf[64];
  auto [Ptr, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), X);
  assert(Ec == std::errc() && "to_chars cannot fail with a 64-byte buffer");
  return std::string(Buf, Ptr);
}

std::string herbgrind::join(const std::vector<std::string> &Parts,
                            const std::string &Sep) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

std::string herbgrind::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += format("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}

void herbgrind::fatalError(const std::string &Msg) {
  std::fprintf(stderr, "herbgrind: fatal: %s\n", Msg.c_str());
  std::abort();
}
