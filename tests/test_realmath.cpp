//===- tests/test_realmath.cpp - Transcendental function tests ------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Oracles:
//  * glibc's libm, which is faithful (mostly correctly rounded) for the
//    functions under test. BigFloat at 256 bits rounded to double must land
//    within a couple of ulps of libm; for most inputs it should be bit-equal.
//  * The BigFloat-accumulator series kernels the fixed-point core replaced
//    (RealMathReference.h): 256-bit results must be bit-identical.
//  * The same kernel at 512 bits: the 256-bit result must equal it rounded
//    to 256 bits, or lie within one ulp of it.
//
//===----------------------------------------------------------------------===//

#include "RealMathReference.h"
#include "real/RealMath.h"

#include "support/FloatBits.h"
#include "support/LimbAlloc.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

using namespace herbgrind;

namespace {

const double Inf = std::numeric_limits<double>::infinity();

/// Asserts |ours - libm| <= Tol ulps (NaNs must agree).
void expectClose(double Ours, double Libm, double Input, const char *What,
                 uint64_t Tol = 2) {
  if (std::isnan(Libm)) {
    EXPECT_TRUE(std::isnan(Ours)) << What << "(" << Input << ")";
    return;
  }
  ASSERT_FALSE(std::isnan(Ours)) << What << "(" << Input << ")";
  EXPECT_LE(ulpsBetweenDoubles(Ours, Libm), Tol)
      << What << "(" << Input << ") = " << Ours << " vs libm " << Libm;
}

using UnaryReal = BigFloat (*)(const BigFloat &);
using UnaryLibm = double (*)(double);

struct UnaryCase {
  const char *Name;
  UnaryReal Ours;
  UnaryLibm Libm;
  double Lo, Hi;   ///< Sampling range.
  uint64_t TolUlps;
};

class UnaryMathTest : public ::testing::TestWithParam<UnaryCase> {};

} // namespace

TEST_P(UnaryMathTest, AgreesWithLibmOnRange) {
  const UnaryCase &C = GetParam();
  Rng R(777);
  for (int I = 0; I < 2000; ++I) {
    double X = R.betweenOrdinals(C.Lo, C.Hi);
    double Libm = C.Libm(X);
    double Ours = C.Ours(BigFloat::fromDouble(X, 256)).toDouble();
    expectClose(Ours, Libm, X, C.Name, C.TolUlps);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UnaryMathTest,
    ::testing::Values(
        UnaryCase{"exp", realmath::exp, std::exp, -700.0, 700.0, 1},
        UnaryCase{"expm1", realmath::expm1, std::expm1, -50.0, 50.0, 1},
        UnaryCase{"exp2", realmath::exp2, std::exp2, -1000.0, 1000.0, 1},
        UnaryCase{"log", realmath::log, std::log, 1e-300, 1e300, 1},
        UnaryCase{"log2", realmath::log2, std::log2, 1e-300, 1e300, 1},
        UnaryCase{"log10", realmath::log10, std::log10, 1e-300, 1e300, 1},
        UnaryCase{"log1p", realmath::log1p, std::log1p, -0.999, 1e10, 1},
        UnaryCase{"sin", realmath::sin, std::sin, -100.0, 100.0, 1},
        UnaryCase{"cos", realmath::cos, std::cos, -100.0, 100.0, 1},
        UnaryCase{"tan", realmath::tan, std::tan, -100.0, 100.0, 1},
        UnaryCase{"asin", realmath::asin, std::asin, -1.0, 1.0, 1},
        UnaryCase{"acos", realmath::acos, std::acos, -1.0, 1.0, 1},
        UnaryCase{"atan", realmath::atan, std::atan, -1e10, 1e10, 1},
        UnaryCase{"sinh", realmath::sinh, std::sinh, -700.0, 700.0, 1},
        UnaryCase{"cosh", realmath::cosh, std::cosh, -700.0, 700.0, 1},
        UnaryCase{"tanh", realmath::tanh, std::tanh, -50.0, 50.0, 1},
        // glibc's cbrt is itself only faithful to a few ulps (cubing both
        // candidates at 512 bits shows ours is often the closer one).
        UnaryCase{"cbrt", realmath::cbrt, std::cbrt, -1e300, 1e300, 4}),
    [](const ::testing::TestParamInfo<UnaryCase> &Info) {
      return Info.param.Name;
    });

//===----------------------------------------------------------------------===//
// Constants
//===----------------------------------------------------------------------===//

TEST(RealMath, PiMatchesKnownDigits) {
  EXPECT_EQ(realmath::pi(256).toDouble(), M_PI);
  // First limb beyond double precision: pi to 128 bits is
  // 3.243f6a8885a308d313198a2e03707344a4... / 2^... -- check via a second
  // route: sin(pi) must be ~0 at high precision.
  BigFloat SinPi = realmath::sin(realmath::pi(512));
  EXPECT_TRUE(SinPi.isZero() || SinPi.exponent() < -500);
}

TEST(RealMath, Ln2MatchesLibm) {
  EXPECT_EQ(realmath::ln2(256).toDouble(), M_LN2);
  BigFloat ExpLn2 = realmath::exp(realmath::ln2(512));
  BigFloat Diff = BigFloat::sub(ExpLn2, BigFloat::fromInt64(2, 512)).abs();
  EXPECT_TRUE(Diff.isZero() || Diff.exponent() < -490);
}

TEST(RealMath, Ln10AndE) {
  EXPECT_EQ(realmath::ln10(256).toDouble(), M_LN10);
  EXPECT_EQ(realmath::eulerE(256).toDouble(), M_E);
}

TEST(RealMath, ConstantCacheServesGrowingPrecisions) {
  BigFloat A = realmath::pi(128);
  BigFloat B = realmath::pi(1024);
  BigFloat C = realmath::pi(128);
  EXPECT_EQ(BigFloat::cmp(A, C), 0);
  EXPECT_EQ(B.precisionBits(), 1024u);
}

//===----------------------------------------------------------------------===//
// Specials and directed cases
//===----------------------------------------------------------------------===//

TEST(RealMath, ExpSpecials) {
  EXPECT_TRUE(realmath::exp(BigFloat::nan()).isNaN());
  EXPECT_TRUE(realmath::exp(BigFloat::inf(false)).isInf());
  EXPECT_TRUE(realmath::exp(BigFloat::inf(true)).isZero());
  EXPECT_EQ(realmath::exp(BigFloat::zero()).toDouble(), 1.0);
  EXPECT_EQ(realmath::exp(BigFloat::fromDouble(1e20)).toDouble(), Inf);
  EXPECT_EQ(realmath::exp(BigFloat::fromDouble(-1e20)).toDouble(), 0.0);
}

TEST(RealMath, LogSpecials) {
  EXPECT_TRUE(realmath::log(BigFloat::fromDouble(-1.0)).isNaN());
  EXPECT_TRUE(realmath::log(BigFloat::zero()).isInf());
  EXPECT_TRUE(realmath::log(BigFloat::zero()).isNegative());
  EXPECT_TRUE(realmath::log(BigFloat::inf(false)).isInf());
  EXPECT_EQ(realmath::log(BigFloat::fromInt64(1)).toDouble(), 0.0);
}

TEST(RealMath, Log1pSpecials) {
  EXPECT_TRUE(realmath::log1p(BigFloat::fromDouble(-1.0)).isInf());
  EXPECT_TRUE(realmath::log1p(BigFloat::fromDouble(-1.5)).isNaN());
  // log1p of a tiny x is ~x, not 0 (the whole reason expm1/log1p exist).
  double Tiny = 1e-30;
  double V = realmath::log1p(BigFloat::fromDouble(Tiny)).toDouble();
  EXPECT_EQ(V, std::log1p(Tiny));
  EXPECT_NE(V, 0.0);
}

TEST(RealMath, TrigSpecials) {
  EXPECT_TRUE(realmath::sin(BigFloat::inf(false)).isNaN());
  EXPECT_TRUE(realmath::cos(BigFloat::inf(true)).isNaN());
  EXPECT_TRUE(realmath::sin(BigFloat::zero(true)).isZero());
  EXPECT_TRUE(realmath::sin(BigFloat::zero(true)).isNegative());
  EXPECT_EQ(realmath::cos(BigFloat::zero()).toDouble(), 1.0);
}

TEST(RealMath, SinOfHugeArgumentsMatchesLibm) {
  // Payne-Hanek-style reduction: the classic killer cases.
  for (double X : {1e10, 1e15, 1e22, 1e100, 1e300, -1e300, 123456789.0,
                   1.0e308}) {
    expectClose(realmath::sin(BigFloat::fromDouble(X, 256)).toDouble(),
                std::sin(X), X, "sin", 1);
    expectClose(realmath::cos(BigFloat::fromDouble(X, 256)).toDouble(),
                std::cos(X), X, "cos", 1);
  }
}

TEST(RealMath, Atan2QuadrantsAndSpecials) {
  struct Case {
    double Y, X;
  };
  for (Case C : std::initializer_list<Case>{{1, 1},
                                            {1, -1},
                                            {-1, 1},
                                            {-1, -1},
                                            {0.0, 1.0},
                                            {0.0, -1.0},
                                            {-0.0, 1.0},
                                            {-0.0, -1.0},
                                            {1.0, 0.0},
                                            {-1.0, 0.0},
                                            {0.0, 0.0},
                                            {-0.0, -0.0},
                                            {Inf, 1.0},
                                            {-Inf, 1.0},
                                            {1.0, Inf},
                                            {1.0, -Inf},
                                            {Inf, Inf},
                                            {Inf, -Inf},
                                            {-Inf, -Inf}}) {
    double Libm = std::atan2(C.Y, C.X);
    double Ours = realmath::atan2(BigFloat::fromDouble(C.Y),
                                  BigFloat::fromDouble(C.X))
                      .toDouble();
    EXPECT_LE(ulpsBetweenDoubles(Ours, Libm), 1u)
        << "atan2(" << C.Y << ", " << C.X << ")";
    EXPECT_EQ(std::signbit(Ours), std::signbit(Libm))
        << "atan2(" << C.Y << ", " << C.X << ")";
  }
}

TEST(RealMath, Atan2RandomAgreesWithLibm) {
  Rng R(888);
  for (int I = 0; I < 2000; ++I) {
    double Y = R.betweenOrdinals(-1e20, 1e20);
    double X = R.betweenOrdinals(-1e20, 1e20);
    expectClose(
        realmath::atan2(BigFloat::fromDouble(Y), BigFloat::fromDouble(X))
            .toDouble(),
        std::atan2(Y, X), Y, "atan2", 1);
  }
}

TEST(RealMath, PowSpecialLadder) {
  struct Case {
    double X, Y;
  };
  double NaN = std::nan("");
  for (Case C : std::initializer_list<Case>{
           {1.0, NaN},   {NaN, 0.0},     {2.0, Inf},    {0.5, Inf},
           {2.0, -Inf},  {0.5, -Inf},    {-1.0, Inf},   {0.0, 3.0},
           {-0.0, 3.0},  {0.0, -2.0},    {-0.0, -3.0},  {Inf, 2.0},
           {Inf, -2.0},  {-Inf, 3.0},    {-Inf, 2.0},   {-Inf, -3.0},
           {-2.0, 3.0},  {-2.0, 2.0},    {-2.0, 0.5},   {0.0, 0.0},
           {8.0, 1.0 / 3.0}}) {
    double Libm = std::pow(C.X, C.Y);
    double Ours = realmath::pow(BigFloat::fromDouble(C.X),
                                BigFloat::fromDouble(C.Y))
                      .toDouble();
    if (std::isnan(Libm)) {
      EXPECT_TRUE(std::isnan(Ours)) << "pow(" << C.X << ", " << C.Y << ")";
    } else {
      EXPECT_LE(ulpsBetweenDoubles(Ours, Libm), 1u)
          << "pow(" << C.X << ", " << C.Y << ") = " << Ours << " vs " << Libm;
    }
  }
}

TEST(RealMath, PowRandomAgreesWithLibm) {
  Rng R(999);
  for (int I = 0; I < 1000; ++I) {
    double X = R.betweenOrdinals(1e-10, 1e10);
    double Y = R.uniformReal(-30.0, 30.0);
    double Libm = std::pow(X, Y);
    if (std::isinf(Libm) || Libm == 0.0)
      continue; // overflow/underflow boundary: BigFloat keeps going
    expectClose(realmath::pow(BigFloat::fromDouble(X, 256),
                              BigFloat::fromDouble(Y, 256))
                    .toDouble(),
                Libm, X, "pow", 2);
  }
}

TEST(RealMath, PowIntegerExponentsExact) {
  Rng R(1000);
  for (int I = 0; I < 1000; ++I) {
    double X = R.uniformReal(-10.0, 10.0);
    int N = static_cast<int>(R.nextBelow(20)) - 10;
    double Libm = std::pow(X, N);
    if (!std::isfinite(Libm) || X == 0.0)
      continue;
    expectClose(realmath::pow(BigFloat::fromDouble(X, 256),
                              BigFloat::fromInt64(N, 256))
                    .toDouble(),
                Libm, X, "pow-int", 1);
  }
}

TEST(RealMath, HypotNoOverflow) {
  // The textbook motivation: naive sqrt(x^2+y^2) overflows, hypot must not.
  double Big = 1e200;
  double Ours = realmath::hypot(BigFloat::fromDouble(Big),
                                BigFloat::fromDouble(Big))
                    .toDouble();
  EXPECT_LE(ulpsBetweenDoubles(Ours, std::hypot(Big, Big)), 1u);
  EXPECT_TRUE(realmath::hypot(BigFloat::inf(true), BigFloat::nan()).isInf());
}

TEST(RealMath, HypotRandom) {
  Rng R(1001);
  for (int I = 0; I < 2000; ++I) {
    double X = R.betweenOrdinals(-1e150, 1e150);
    double Y = R.betweenOrdinals(-1e150, 1e150);
    expectClose(
        realmath::hypot(BigFloat::fromDouble(X), BigFloat::fromDouble(Y))
            .toDouble(),
        std::hypot(X, Y), X, "hypot", 1);
  }
}

TEST(RealMath, FmodMatchesLibmExactly) {
  // fmod is exact in IEEE arithmetic, so we demand bit equality.
  Rng R(1002);
  for (int I = 0; I < 3000; ++I) {
    double X = R.uniformReal(-1e6, 1e6);
    double Y = R.uniformReal(-100.0, 100.0);
    if (Y == 0.0)
      continue;
    double Libm = std::fmod(X, Y);
    double Ours = realmath::fmod(BigFloat::fromDouble(X, 256),
                                 BigFloat::fromDouble(Y, 256))
                      .toDouble();
    EXPECT_EQ(bitsOfDouble(Ours), bitsOfDouble(Libm))
        << "fmod(" << X << ", " << Y << ")";
  }
}

TEST(RealMath, FmodHugeQuotient) {
  double X = 1e300;
  double Y = 3.25;
  double Ours = realmath::fmod(BigFloat::fromDouble(X, 256),
                               BigFloat::fromDouble(Y, 256))
                    .toDouble();
  EXPECT_EQ(Ours, std::fmod(X, Y));
}

TEST(RealMath, RemainderMatchesLibm) {
  Rng R(1003);
  for (int I = 0; I < 3000; ++I) {
    double X = R.uniformReal(-1e6, 1e6);
    double Y = R.uniformReal(-100.0, 100.0);
    if (Y == 0.0)
      continue;
    double Libm = std::remainder(X, Y);
    double Ours = realmath::remainder(BigFloat::fromDouble(X, 256),
                                      BigFloat::fromDouble(Y, 256))
                      .toDouble();
    EXPECT_EQ(bitsOfDouble(Ours), bitsOfDouble(Libm))
        << "remainder(" << X << ", " << Y << ")";
  }
}

TEST(RealMath, TanhSaturates) {
  EXPECT_EQ(realmath::tanh(BigFloat::fromDouble(1000.0)).toDouble(), 1.0);
  EXPECT_EQ(realmath::tanh(BigFloat::fromDouble(-1000.0)).toDouble(), -1.0);
  EXPECT_EQ(realmath::tanh(BigFloat::inf(false)).toDouble(), 1.0);
}

TEST(RealMath, TinyArgumentsKeepRelativeAccuracy) {
  // sin(x) ~ x - x^3/6 for tiny x: the series must not flush to zero.
  for (double X : {1e-20, 1e-100, 1e-300, -1e-20}) {
    EXPECT_EQ(realmath::sin(BigFloat::fromDouble(X, 256)).toDouble(),
              std::sin(X))
        << X;
    EXPECT_EQ(realmath::atan(BigFloat::fromDouble(X, 256)).toDouble(),
              std::atan(X))
        << X;
    EXPECT_EQ(realmath::sinh(BigFloat::fromDouble(X, 256)).toDouble(),
              std::sinh(X))
        << X;
    EXPECT_EQ(realmath::expm1(BigFloat::fromDouble(X, 256)).toDouble(),
              std::expm1(X))
        << X;
  }
}

//===----------------------------------------------------------------------===//
// Exact oracles: the series-loop reference and the 512-bit kernel
//===----------------------------------------------------------------------===//

namespace {

using BinaryReal = BigFloat (*)(const BigFloat &, const BigFloat &);

/// One kernel under test, its series-loop reference, and an argument
/// generator (the second argument is ignored by unary kernels).
struct Kernel {
  const char *Name;
  std::function<BigFloat(const BigFloat &, const BigFloat &)> Ours, Ref;
  std::function<std::pair<double, double>(Rng &)> Args;
};

/// Uniform over [Lo, Hi] three times in four, else uniform over the
/// doubles' bit patterns in it (which reaches every magnitude).
double draw(Rng &R, double Lo, double Hi) {
  return R.nextBelow(4) ? R.uniformReal(Lo, Hi) : R.betweenOrdinals(Lo, Hi);
}

Kernel unary(const char *Name, UnaryReal Ours, UnaryReal Ref, double Lo,
             double Hi) {
  return {Name, [Ours](const BigFloat &X, const BigFloat &) { return Ours(X); },
          [Ref](const BigFloat &X, const BigFloat &) { return Ref(X); },
          [Lo, Hi](Rng &R) { return std::make_pair(draw(R, Lo, Hi), 0.0); }};
}

Kernel binary(const char *Name, BinaryReal Ours, BinaryReal Ref, double XLo,
              double XHi, double YLo, double YHi) {
  return {Name, Ours, Ref, [=](Rng &R) {
            return std::make_pair(draw(R, XLo, XHi), draw(R, YLo, YHi));
          }};
}

std::vector<Kernel> kernels() {
  using namespace realmath;
  namespace ref = seriesref;
  return {
      unary("exp", exp, ref::exp, -700, 700),
      unary("exp2", exp2, ref::exp2, -1000, 1000),
      unary("expm1", expm1, ref::expm1, -50, 50),
      unary("log", log, ref::log, 1e-300, 1e300),
      unary("log2", log2, ref::log2, 1e-300, 1e300),
      unary("log10", log10, ref::log10, 1e-300, 1e300),
      unary("log1p", log1p, ref::log1p, -0.999, 1e10),
      unary("sin", sin, ref::sin, -100, 100),
      unary("cos", cos, ref::cos, -100, 100),
      unary("tan", tan, ref::tan, -100, 100),
      unary("asin", asin, ref::asin, -1, 1),
      unary("acos", acos, ref::acos, -1, 1),
      unary("atan", atan, ref::atan, -1e10, 1e10),
      unary("sinh", sinh, ref::sinh, -700, 700),
      unary("cosh", cosh, ref::cosh, -700, 700),
      unary("tanh", tanh, ref::tanh, -50, 50),
      unary("cbrt", cbrt, ref::cbrt, -1e300, 1e300),
      binary("atan2", atan2, ref::atan2, -10, 10, -10, 10),
      binary("pow", pow, ref::pow, 1e-3, 1e3, -60, 60),
      binary("hypot", hypot, ref::hypot, -1e10, 1e10, -1e10, 1e10),
  };
}

/// D at \p Prec bits with its bits below the double's filled at random, as
/// in a shadow value that has been through arithmetic.
BigFloat fullWidth(double D, Rng &R, size_t Prec) {
  BigFloat X = BigFloat::fromDouble(D, Prec);
  if (X.isZero())
    return X;
  BigFloat Noise = BigFloat::fromInt64(0, Prec);
  for (size_t I = 1; I < Prec / 64; ++I)
    Noise = BigFloat::add(
        Noise, BigFloat::fromMantissaExp(false, R.next(),
                                         X.exponent() - 53 - 64 * I, Prec));
  return BigFloat::add(X, X.isNegative() ? Noise.negated() : Noise);
}

/// The arguments every kernel is checked on: the kernel's random range,
/// half as doubles and half full-width, plus shared edge cases.
std::vector<std::pair<BigFloat, BigFloat>> argumentsFor(const Kernel &K,
                                                        int Count,
                                                        size_t Prec) {
  Rng R(4242);
  std::vector<std::pair<BigFloat, BigFloat>> Out;
  for (int I = 0; I < Count; ++I) {
    auto [X, Y] = K.Args(R);
    if (I & 1)
      Out.emplace_back(fullWidth(X, R, Prec), fullWidth(Y, R, Prec));
    else
      Out.emplace_back(BigFloat::fromDouble(X, Prec),
                       BigFloat::fromDouble(Y, Prec));
  }
  std::vector<double> Edges = {1.0, -1.0, 0.5, 2.0, 1e-20, -1e-20, 1e-300,
                               5e-324, 0x1p-600, 1e22, -1e300, 1e300, 709.78,
                               -745.1, 0x1p49, -0x1p49, 0x1p51};
  // Near 1, for log and log1p.
  for (double D : {0x1p-52, 0x1p-30, 0x1p-8})
    for (double S : {1.0, -1.0})
      Edges.push_back(1 + S * D);
  // Near multiples of pi/2, and their double neighbours.
  for (int M = 1; M <= 64; M *= 2) {
    double Near = M * M_PI / 2;
    Edges.insert(Edges.end(), {Near, std::nextafter(Near, 0.0),
                               std::nextafter(Near, 1e300), -Near});
  }
  for (double X : Edges)
    for (double Y : {0.5, -3.0, 7.25})
      Out.emplace_back(BigFloat::fromDouble(X, Prec),
                       BigFloat::fromDouble(Y, Prec));
  // Tiny full-width and exactly-one-ulp-from-one arguments.
  BigFloat One = BigFloat::fromInt64(1, Prec);
  BigFloat Ulp = BigFloat::scalb(One, -static_cast<int64_t>(Prec));
  Out.emplace_back(BigFloat::add(One, Ulp), One);
  Out.emplace_back(BigFloat::sub(One, BigFloat::scalb(Ulp, -1)), One);
  Out.emplace_back(BigFloat::scalb(fullWidth(0.7, R, Prec), -400), One);
  return Out;
}

bool sameBits(const BigFloat &A, const BigFloat &B) {
  return A.debugStr() == B.debugStr();
}

/// True when A and B are identical or finite and at most one ulp of A's
/// precision apart.
bool withinOneUlp(const BigFloat &A, const BigFloat &B) {
  if (sameBits(A, B) || (A.isNaN() && B.isNaN()))
    return true;
  if (A.isZero() || B.isZero() || !A.isFinite() || !B.isFinite())
    return false;
  BigFloat Diff = BigFloat::sub(A.withPrecision(A.precisionBits() + 64),
                                B.withPrecision(A.precisionBits() + 64));
  return Diff.isZero() ||
         Diff.exponent() <=
             A.exponent() - static_cast<int64_t>(A.precisionBits()) + 1;
}

std::string show(const std::pair<BigFloat, BigFloat> &A) {
  return A.first.debugStr() + ", " + A.second.debugStr();
}

} // namespace

TEST(RealMathOracle, BitIdenticalToSeriesLoopReference) {
  for (const Kernel &K : kernels()) {
    int Mismatches = 0;
    for (const auto &A : argumentsFor(K, 2000, 256)) {
      BigFloat Got = K.Ours(A.first, A.second);
      BigFloat Want = K.Ref(A.first, A.second);
      if (!sameBits(Got, Want) && ++Mismatches <= 3)
        ADD_FAILURE() << K.Name << "(" << show(A) << ") = " << Got.debugStr()
                      << ", reference " << Want.debugStr();
    }
    EXPECT_EQ(Mismatches, 0) << K.Name;
  }
}

TEST(RealMathOracle, AgreesWithItselfAtTwicePrecision) {
  for (const Kernel &K : kernels()) {
    for (const auto &A : argumentsFor(K, 500, 256)) {
      BigFloat Got = K.Ours(A.first, A.second);
      BigFloat Wide = K.Ours(A.first.withPrecision(512),
                             A.second.withPrecision(512));
      BigFloat Rounded = Wide.isFinite() ? Wide.withPrecision(256) : Wide;
      EXPECT_TRUE(withinOneUlp(Got, Rounded))
          << K.Name << "(" << show(A) << ") = " << Got.debugStr()
          << ", at 512 bits " << Wide.debugStr();
    }
  }
}

TEST(RealMathOracle, ExpInvertsLog) {
  Rng R(4343);
  for (int I = 0; I < 500; ++I) {
    BigFloat X = fullWidth(R.betweenOrdinals(1e-300, 1e300), R, 256);
    BigFloat Back =
        realmath::exp(realmath::log(X.withPrecision(512))).withPrecision(256);
    EXPECT_TRUE(withinOneUlp(X, Back)) << X.debugStr();
    BigFloat Small = fullWidth(R.uniformReal(-0.4, 0.4), R, 256);
    BigFloat Back1p = realmath::expm1(realmath::log1p(Small.withPrecision(512)))
                          .withPrecision(256);
    EXPECT_TRUE(withinOneUlp(Small, Back1p)) << Small.debugStr();
  }
}

TEST(RealMathOracle, NarrowAndWidePrecisions) {
  // 64 bits is narrower than any scratch; 4096 bits spills every scratch
  // buffer to the limb cache. Both must agree with a wider evaluation.
  for (const Kernel &K : kernels()) {
    for (const auto &A : argumentsFor(K, 6, 64)) {
      BigFloat Narrow = K.Ours(A.first, A.second);
      BigFloat Wide = K.Ours(A.first.withPrecision(256),
                             A.second.withPrecision(256));
      EXPECT_TRUE(withinOneUlp(Narrow,
                               Wide.isFinite() ? Wide.withPrecision(64) : Wide))
          << K.Name << "(" << show(A) << ") at 64 bits";
    }
    Rng R(4444);
    for (int I = 0; I < 3; ++I) {
      auto [X, Y] = K.Args(R);
      BigFloat X2 = fullWidth(X, R, 2048), Y2 = fullWidth(Y, R, 2048);
      BigFloat Half = K.Ours(X2, Y2);
      BigFloat Huge = K.Ours(X2.withPrecision(4096), Y2.withPrecision(4096));
      EXPECT_EQ(Huge.precisionBits(), 4096u) << K.Name;
      EXPECT_TRUE(withinOneUlp(
          Half, Huge.isFinite() ? Huge.withPrecision(2048) : Huge))
          << K.Name << "(" << X << ", " << Y << ") at 2048 and 4096 bits";
    }
  }
}

TEST(RealMathOracle, SteadyStateKernelsAreAllocationFree) {
  std::vector<Kernel> Ks = kernels();
  auto Round = [&] {
    for (const Kernel &K : Ks)
      for (const auto &A : argumentsFor(K, 20, 256))
        K.Ours(A.first, A.second);
  };
  Round(); // warm-up: fills the constant caches and the limb cache
  limballoc::resetCounters();
  Round();
  EXPECT_EQ(limballoc::heapAllocs(), 0u)
      << "steady-state 256-bit kernels reached the heap";
}

TEST(RealMathOracle, TrigBeyondReductionCapIsNaN) {
  BigFloat Huge = BigFloat::scalb(BigFloat::fromInt64(3, 256), 1 << 21);
  EXPECT_TRUE(realmath::sin(Huge).isNaN());
  EXPECT_TRUE(realmath::cos(Huge).isNaN());
  EXPECT_TRUE(realmath::tan(Huge).isNaN());
}
