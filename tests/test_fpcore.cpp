//===- tests/test_fpcore.cpp - FPCore frontend tests ----------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "fpcore/Compile.h"
#include "fpcore/Corpus.h"
#include "fpcore/Eval.h"
#include "fpcore/FPCore.h"

#include "ir/Interpreter.h"
#include "support/FloatBits.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace herbgrind;
using namespace herbgrind::fpcore;

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(FPCoreParse, SimpleCore) {
  ParseResult R = parse("(FPCore (x) :name \"t\" (- (sqrt (+ x 1)) "
                        "(sqrt x)))");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.Name, "t");
  ASSERT_EQ(R.Value.Params.size(), 1u);
  EXPECT_EQ(R.Value.Params[0], "x");
  EXPECT_EQ(R.Value.Body->print(), "(- (sqrt (+ x 1)) (sqrt x))");
}

TEST(FPCoreParse, Preconditions) {
  ParseResult R =
      parse("(FPCore (x y) :pre (and (<= 0 x 1) (< -2 y)) (+ x y))");
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.Value.Pre);
  EXPECT_EQ(R.Value.Pre->print(), "(and (<= 0 x 1) (< -2 y))");
}

TEST(FPCoreParse, NumbersRationalsConstants) {
  std::string Err;
  EXPECT_EQ(parseExpr("1.5e3", Err)->Num, 1500.0);
  EXPECT_EQ(parseExpr("1/4", Err)->Num, 0.25);
  EXPECT_EQ(parseExpr("-3", Err)->Num, -3.0);
  ExprPtr Pi = parseExpr("PI", Err);
  EXPECT_EQ(Pi->K, Expr::Kind::Const);
}

TEST(FPCoreParse, LetAndWhile) {
  ParseResult R = parse("(FPCore (n) (while (< i n) ([s 0 (+ s i)] "
                        "[i 0 (+ i 1)]) s))");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.Body->K, Expr::Kind::While);
  EXPECT_EQ(R.Value.Body->Binds.size(), 2u);
}

TEST(FPCoreParse, Comments) {
  ParseResult R = parse("(FPCore (x) ; a comment\n (+ x 1))");
  ASSERT_TRUE(R.Ok) << R.Error;
}

TEST(FPCoreParse, ErrorsAreReported) {
  EXPECT_FALSE(parse("(FPCore (x) (+ x 1").Ok);
  EXPECT_FALSE(parse("(NotFPCore (x) 1)").Ok);
  EXPECT_FALSE(parse("").Ok);
}

/// (+ (+ ... x 1) 1), nesting \p Depth deep.
static std::string nestedExpr(int Depth) {
  std::string Text;
  for (int I = 1; I < Depth; ++I)
    Text += "(+ ";
  Text += "x";
  for (int I = 1; I < Depth; ++I)
    Text += " 1)";
  return Text;
}

TEST(FPCoreParse, NestingCap) {
  // At the cap: parses, and the recursive walks over the tree (clone,
  // print, compile, both evaluators) stay within it.
  ParseResult AtCap = parse("(FPCore (x) " + nestedExpr(MaxExprNesting) + ")");
  ASSERT_TRUE(AtCap.Ok) << AtCap.Error;
  const double Want = MaxExprNesting - 1;
  EXPECT_EQ(AtCap.Value.clone().print(), AtCap.Value.print());
  EXPECT_EQ(evalDouble(*AtCap.Value.Body, {{"x", 0.0}}), Want);
  EXPECT_EQ(evalReal(*AtCap.Value.Body, {{"x", BigFloat::fromDouble(0.0)}})
                .toDouble(),
            Want);
  RunResult Run = interpret(compile(AtCap.Value), {0.0}, 10'000);
  ASSERT_EQ(Run.Outputs.size(), 1u);
  EXPECT_EQ(Run.Outputs[0].asF64(), Want);

  // One past the cap, and far past it (deep enough to overflow the stack
  // without the cap): a clean parse error, not a crash.
  for (int Depth : {MaxExprNesting + 1, 20000}) {
    ParseResult Past = parse("(FPCore (x) " + nestedExpr(Depth) + ")");
    EXPECT_FALSE(Past.Ok) << Depth;
    EXPECT_NE(Past.Error.find("nested deeper"), std::string::npos)
        << Past.Error;
  }
  std::string Err;
  EXPECT_NE(parseExpr(nestedExpr(MaxExprNesting), Err), nullptr) << Err;
  EXPECT_EQ(parseExpr(nestedExpr(MaxExprNesting + 1), Err), nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST(FPCoreParse, PrintRoundTrips) {
  for (const Core &C : corpus()) {
    ParseResult R = parse(C.print());
    ASSERT_TRUE(R.Ok) << C.Name << ": " << R.Error;
    EXPECT_EQ(R.Value.Body->print(), C.Body->print()) << C.Name;
  }
}

//===----------------------------------------------------------------------===//
// Ranges
//===----------------------------------------------------------------------===//

TEST(FPCoreRanges, ExtractsChainedBounds) {
  ParseResult R = parse("(FPCore (x y) :pre (and (<= 0 x 1) (<= -5 y 5)) "
                        "(+ x y))");
  ASSERT_TRUE(R.Ok);
  std::vector<VarRange> Ranges = sampleRanges(R.Value);
  ASSERT_EQ(Ranges.size(), 2u);
  EXPECT_EQ(Ranges[0].Lo, 0.0);
  EXPECT_EQ(Ranges[0].Hi, 1.0);
  EXPECT_EQ(Ranges[1].Lo, -5.0);
  EXPECT_EQ(Ranges[1].Hi, 5.0);
}

TEST(FPCoreRanges, DefaultsWhenUnconstrained) {
  ParseResult R = parse("(FPCore (x) (+ x 1))");
  ASSERT_TRUE(R.Ok);
  std::vector<VarRange> Ranges = sampleRanges(R.Value);
  EXPECT_LT(Ranges[0].Lo, 0.0);
  EXPECT_GT(Ranges[0].Hi, 0.0);
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

TEST(FPCoreEval, DoubleMatchesHandComputation) {
  std::string Err;
  ExprPtr E = parseExpr("(- (sqrt (+ x 1)) (sqrt x))", Err);
  ASSERT_TRUE(E) << Err;
  double X = 1e10;
  EXPECT_EQ(evalDouble(*E, {{"x", X}}),
            std::sqrt(X + 1) - std::sqrt(X));
}

TEST(FPCoreEval, RealIsMoreAccurate) {
  std::string Err;
  ExprPtr E = parseExpr("(- (+ x 1) x)", Err);
  double X = 1e16;
  EXPECT_EQ(evalDouble(*E, {{"x", X}}), 0.0);
  BigFloat R = evalReal(*E, {{"x", BigFloat::fromDouble(X)}});
  EXPECT_EQ(R.toDouble(), 1.0);
}

TEST(FPCoreEval, PointErrorBitsSeesCancellation) {
  std::string Err;
  ExprPtr E = parseExpr("(- (+ x 1) x)", Err);
  EXPECT_GT(pointErrorBits(*E, {{"x", 1e16}}), 40.0);
  EXPECT_EQ(pointErrorBits(*E, {{"x", 2.0}}), 0.0);
}

TEST(FPCoreEval, WhileLoops) {
  std::string Err;
  ExprPtr E =
      parseExpr("(while (<= i n) ([s 0 (+ s i)] [i 1 (+ i 1)]) s)", Err);
  ASSERT_TRUE(E) << Err;
  EXPECT_EQ(evalDouble(*E, {{"n", 100.0}}), 5050.0);
  BigFloat R = evalReal(*E, {{"n", BigFloat::fromDouble(100.0)}});
  EXPECT_EQ(R.toDouble(), 5050.0);
}

TEST(FPCoreEval, IfSelectsBranches) {
  std::string Err;
  ExprPtr E = parseExpr("(if (< x 0) (- x) x)", Err);
  EXPECT_EQ(evalDouble(*E, {{"x", -3.0}}), 3.0);
  EXPECT_EQ(evalDouble(*E, {{"x", 5.0}}), 5.0);
}

//===----------------------------------------------------------------------===//
// Compilation: differential against direct evaluation
//===----------------------------------------------------------------------===//

TEST(FPCoreCompile, StraightLineDifferential) {
  Rng R(123);
  for (const Core &C : corpus()) {
    std::string WhyNot;
    ASSERT_TRUE(isCompilable(C, &WhyNot)) << C.Name << ": " << WhyNot;
    Program P = compile(C);
    ASSERT_EQ(P.validate(), "") << C.Name;
    std::vector<VarRange> Ranges = sampleRanges(C);
    for (int Trial = 0; Trial < 5; ++Trial) {
      std::vector<double> Inputs;
      DoubleEnv Env;
      for (size_t I = 0; I < C.Params.size(); ++I) {
        double V = R.uniformReal(Ranges[I].Lo, Ranges[I].Hi);
        Inputs.push_back(V);
        Env[C.Params[I]] = V;
      }
      RunResult Run = interpret(P, Inputs, 10'000'000);
      ASSERT_EQ(Run.Outputs.size(), 1u) << C.Name;
      double Direct = evalDouble(*C.Body, Env);
      double Compiled = Run.Outputs[0].asF64();
      if (std::isnan(Direct)) {
        EXPECT_TRUE(std::isnan(Compiled)) << C.Name;
      } else {
        EXPECT_EQ(bitsOfDouble(Compiled), bitsOfDouble(Direct))
            << C.Name << " inputs ";
      }
    }
  }
}

TEST(FPCoreCompile, LoopBenchmarkCompiles) {
  ParseResult R = parse("(FPCore (n) (while (< t n) ([t 0 (+ t 0.1)] "
                        "[c 0 (+ c 1)]) c))");
  ASSERT_TRUE(R.Ok);
  Program P = compile(R.Value);
  RunResult Run = interpret(P, {10.0});
  EXPECT_EQ(Run.Outputs[0].asF64(), evalDouble(*R.Value.Body, {{"n", 10.0}}));
}

TEST(FPCoreCompile, SourceLocationsNameTheBenchmark) {
  ParseResult R = parse("(FPCore (x) :name \"demo\" (+ x 1))");
  ASSERT_TRUE(R.Ok);
  Program P = compile(R.Value);
  bool Found = false;
  for (const Statement &S : P.statements())
    if (S.Loc.File == "demo.fpcore")
      Found = true;
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Corpus hygiene
//===----------------------------------------------------------------------===//

TEST(Corpus, HasAtLeast86Benchmarks) {
  EXPECT_GE(corpus().size(), 86u);
}

TEST(Corpus, AllNamesAreUnique) {
  std::set<std::string> Names;
  for (const Core &C : corpus()) {
    EXPECT_FALSE(C.Name.empty());
    EXPECT_TRUE(Names.insert(C.Name).second) << "duplicate: " << C.Name;
  }
}

TEST(Corpus, AllEntriesHavePreconditions) {
  for (const Core &C : corpus())
    EXPECT_TRUE(C.Pre != nullptr) << C.Name;
}

TEST(Corpus, ParamsMatchFreeVariables) {
  for (const Core &C : corpus()) {
    std::vector<std::string> Free;
    C.Body->freeVars(Free);
    for (const std::string &V : Free)
      EXPECT_NE(std::find(C.Params.begin(), C.Params.end(), V),
                C.Params.end())
          << C.Name << " uses unbound " << V;
  }
}
