//===- fpcore/FPCore.h - FPCore AST, parser, printer ------------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FPCore benchmark format (the FPBench standard the paper evaluates
/// on, Section 8): a small S-expression language of floating-point
/// programs with preconditions, conditionals, lets and while loops. This
/// header defines the AST, the parser, and the printer; Compile.h lowers
/// cores onto the abstract machine and Eval.h interprets expressions
/// directly in double or real arithmetic (for the improver).
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_FPCORE_FPCORE_H
#define HERBGRIND_FPCORE_FPCORE_H

#include <memory>
#include <string>
#include <vector>

namespace herbgrind {
namespace fpcore {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// One FPCore expression node.
struct Expr {
  enum class Kind : uint8_t {
    Num,   ///< Literal (stored as the closest double).
    Const, ///< Named constant: PI, E, INFINITY, NAN, TRUE, FALSE.
    Var,
    Op,    ///< Operator/function application, including boolean ops.
    If,    ///< (if c t e): Args = {c, t, e}.
    Let,   ///< (let ([x e] ...) body): Binds/Inits + Args[0] = body.
    While, ///< (while cond ([x init update] ...) body).
  };

  Kind K = Kind::Num;
  double Num = 0.0;
  std::string Name; ///< Var/Const name, or operator symbol for Op.
  std::vector<ExprPtr> Args;
  std::vector<std::string> Binds; ///< Let/While bound names.
  std::vector<ExprPtr> Inits;     ///< Let/While initial values.
  std::vector<ExprPtr> Updates;   ///< While update expressions.
  bool Sequential = false;        ///< let* / while*.

  static ExprPtr num(double X);
  static ExprPtr var(std::string Name);
  static ExprPtr op(std::string Name, std::vector<ExprPtr> Args);

  ExprPtr clone() const;
  std::string print() const;

  /// Number of operator applications in the tree.
  unsigned opCount() const;

  /// Collects free variable names in first-use order into \p Out.
  void freeVars(std::vector<std::string> &Out) const;
};

/// A full FPCore: (FPCore (args...) :name ... :pre ... body).
struct Core {
  std::string Name;
  std::vector<std::string> Params;
  ExprPtr Pre; ///< May be null.
  ExprPtr Body;

  std::string print() const;
  Core clone() const;
};

/// Parse result: either a core or a diagnostic.
struct ParseResult {
  bool Ok = false;
  Core Value;
  std::string Error;
};

/// Deepest expression nesting the parser accepts (a bare leaf is depth 1;
/// each enclosing form adds one). The corpus nests at most 13 deep; the
/// cap keeps every recursive walk of a parsed tree -- the parser, clone,
/// print, compile, and the evaluators -- far from the stack limit on
/// hostile input, which fails with a parse error instead.
constexpr int MaxExprNesting = 512;

/// Parses one (FPCore ...) form.
ParseResult parse(const std::string &Text);

/// Parses a bare expression (used by tests and the improver).
ExprPtr parseExpr(const std::string &Text, std::string &Error);

/// A per-variable sampling interval extracted from a precondition.
struct VarRange {
  double Lo = -1e9;
  double Hi = 1e9;
};

/// Extracts simple per-variable ranges from a :pre conjunction of
/// comparisons like (<= 0 x 1), (< x 10), (>= x 0). Variables without
/// usable constraints get the default range.
std::vector<VarRange> sampleRanges(const Core &C);

} // namespace fpcore
} // namespace herbgrind

#endif // HERBGRIND_FPCORE_FPCORE_H
