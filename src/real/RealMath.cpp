//===- real/RealMath.cpp - Transcendental functions on BigFloat -----------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Strategy: a public function widens its operands once to a working
// precision (input precision + 128 guard bits); nested kernels run at the
// caller's working precision through their *At forms. Each kernel reduces
// its argument into a small range and sums one series on the fixed-point
// core below: exp scales by 2^-16 and squares back, log seeds with the
// double logarithm so its atanh series needs a few terms. The result is
// rounded once back to the input precision. Constants (pi, ln2) come from
// Machin-style series on the same core, cached at the largest precision
// requested so far.
//
//===----------------------------------------------------------------------===//

#include "real/RealMath.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

using namespace herbgrind;
using realmath::pi;
using realmath::ln2;

/// Guard bits added to the working precision of every function.
static const size_t GuardBits = 128;

static size_t workPrec(const BigFloat &X) {
  return X.precisionBits() + GuardBits;
}

static BigFloat widened(const BigFloat &X, size_t WP) {
  return X.withPrecision(WP);
}

static BigFloat one(size_t WP) { return BigFloat::fromInt64(1, WP); }

//===----------------------------------------------------------------------===//
// The fixed-point series core.
//===----------------------------------------------------------------------===//

namespace {
/// The series the core sums, each as sum_k s_k P_k / Den(k) with
/// P_0 = |First|, P_k = P_{k-1} |Ratio| / Step(k), and s_k = (-1)^k for the
/// alternating ("alt") ones, else 1:
///   Expm1: Step = k+1                (First = x, Ratio = x)
///   Sin:   Step = 2k(2k+1), alt      (First = x, Ratio = x^2)
///   Vers:  Step = (2k+1)(2k+2), alt  (First = x^2/2, Ratio = x^2), 1-cos x
///   Atan:  Den = 2k+1, alt           (First = x, Ratio = x^2)
///   Atanh: Den = 2k+1                (First = x, Ratio = x^2)
/// Expm1 alternates when x < 0. Step and Den are 1 where not given.
enum class Series { Expm1, Sin, Vers, Atan, Atanh };

/// Limb scratch: inline up to the default precision's working width.
using Fixed = InlineLimbs<8>;

/// A value V = F * 2^Scale held as a WP-bit fraction F, relative to the
/// first term so tiny arguments keep their relative accuracy. A term costs
/// one truncated multiply, one or two single-limb divisions and one add,
/// with no normalize-and-round; value() converts back to a BigFloat once.
class FixedSeries {
public:
  explicit FixedSeries(size_t WP) : L(BigFloat::limbsForPrecision(WP)) {}

  /// Sums series K. A nonzero RatioDen replaces the multiply by Ratio with
  /// a divide by RatioDen: the constants' atan(1/M) series stay O(WP) per
  /// term at any precision.
  void sum(Series K, const BigFloat &First, const BigFloat &Ratio,
           uint64_t RatioDen = 0);
  /// V -> 2V + V^2, or 2V - V^2 when Minus: with V = |expm1(a)|,
  /// expm1(2a) = e(2 + e) gives |expm1(2a)| (Minus when a < 0).
  void twice(bool Minus);
  BigFloat value(size_t WP);

  bool Neg = false;

private:
  /// Dst = |X| * 2^-Shift as a fraction (truncated).
  void load(Fixed &Dst, const BigFloat &X, int64_t Shift) const;
  /// Dst = A * B, dropping the partial products below limb L-1 (an error
  /// under L units of the last limb). Dst may alias A or B.
  void mul(Fixed &Dst, const Fixed &A, const Fixed &B);

  size_t L;
  int64_t Scale = 0;
  Fixed F, P, M, T;
  InlineLimbs<16> Prod;
};
} // namespace

/// A /= D for a single-limb D.
static void divSmall(Fixed &A, uint64_t D) {
  uint64_t *V = A.data();
  unsigned __int128 Rem = 0;
  size_t I = A.size();
  while (I > 0 && V[I - 1] == 0)
    --I;
  while (I-- > 0) {
    unsigned __int128 Cur = Rem << 64 | V[I];
    V[I] = static_cast<uint64_t>(Cur / D);
    Rem = Cur - static_cast<unsigned __int128>(V[I]) * D;
  }
}

void FixedSeries::load(Fixed &Dst, const BigFloat &X, int64_t Shift) const {
  Dst.assignZeros(L);
  if (X.isZero() || Shift >= static_cast<int64_t>(64 * L))
    return;
  assert(Shift >= 0 && "series values must lie below one");
  size_t N = std::min(L, BigFloatBuilder::limbCount(X));
  std::memcpy(Dst.data() + L - N,
              BigFloatBuilder::limbs(X) + BigFloatBuilder::limbCount(X) - N,
              N * sizeof(uint64_t));
  bool Dropped = false;
  mpn::shiftRightVec(Dst.data(), L, static_cast<size_t>(Shift), Dropped);
}

void FixedSeries::mul(Fixed &Dst, const Fixed &A, const Fixed &B) {
  Prod.assignZeros(2 * L);
  uint64_t *R = Prod.data();
  // Only B's nonzero limbs [B0, NB) take part: a short ratio (a double's
  // logarithm, say) costs a short multiply.
  size_t NB = L, B0 = 0;
  while (NB > 0 && B[NB - 1] == 0)
    --NB;
  while (B0 < NB && B[B0] == 0)
    ++B0;
  for (size_t I = 0; I < L; ++I) {
    size_t J = std::max(L - 1 - I, B0);
    if (A[I] == 0 || J >= NB)
      continue;
    unsigned __int128 Carry = 0;
    for (; J < NB; ++J) {
      unsigned __int128 Cur =
          static_cast<unsigned __int128>(A[I]) * B[J] + R[I + J] + Carry;
      R[I + J] = static_cast<uint64_t>(Cur);
      Carry = Cur >> 64;
    }
    R[I + NB] += static_cast<uint64_t>(Carry);
  }
  Dst.assignCopy(R + L, L);
}

void FixedSeries::sum(Series K, const BigFloat &First, const BigFloat &Ratio,
                      uint64_t RatioDen) {
  Neg = First.isNegative();
  bool Alt = K == Series::Sin || K == Series::Vers || K == Series::Atan ||
             (K == Series::Expm1 && Neg);
  // F = frac(First) / 2 leaves a headroom bit for the growing series.
  Scale = First.exponent() + 1;
  load(F, First, 1);
  P = F;
  if (!RatioDen)
    load(M, Ratio, -Ratio.exponent());
  for (uint64_t I = 1;; ++I) {
    if (RatioDen)
      divSmall(P, RatioDen);
    else
      mul(P, P, M);
    if (K == Series::Expm1)
      divSmall(P, I + 1);
    else if (K == Series::Sin)
      divSmall(P, (2 * I) * (2 * I + 1));
    else if (K == Series::Vers)
      divSmall(P, (2 * I + 1) * (2 * I + 2));
    if (mpn::vecIsZero(P.data(), L))
      break;
    const Fixed *Term = &P;
    if (K == Series::Atan || K == Series::Atanh) {
      T = P;
      divSmall(T, 2 * I + 1);
      Term = &T;
    }
    if (Alt && (I & 1))
      mpn::subVecInPlace(F.data(), Term->data(), L);
    else
      mpn::addVecInPlace(F.data(), Term->data(), L);
  }
}

void FixedSeries::twice(bool Minus) {
  // Renormalize F into [1/4, 1/2); then V^2 = F^2 2^(2 Scale) is added at
  // scale Scale + 1 as F^2 >> (1 - Scale), which keeps F below one.
  bool Dropped = false;
  uint64_t Top = F[L - 1];
  if (Top >> 63) {
    mpn::shiftRightVec(F.data(), L, 1, Dropped);
    ++Scale;
  } else if (!(Top >> 62)) {
    mpn::shiftLeftVec(F.data(), L, 1);
    --Scale;
  }
  assert(Scale <= 0 && "doubling needs |V| < 1/2");
  if (1 - Scale < static_cast<int64_t>(64 * L)) {
    mul(P, F, F);
    mpn::shiftRightVec(P.data(), L, static_cast<size_t>(1 - Scale), Dropped);
    if (Minus)
      mpn::subVecInPlace(F.data(), P.data(), L);
    else
      mpn::addVecInPlace(F.data(), P.data(), L);
  }
  ++Scale;
}

BigFloat FixedSeries::value(size_t WP) {
  BigFloat R;
  BigFloatBuilder::normalizeAndRoundInto(R, Neg, Scale, F.data(), L, false,
                                         BigFloat::limbsForPrecision(WP));
  return R;
}

/// An odd series (Sin, Atan or Atanh) at T; |T| must be well below 1.
static BigFloat oddSeries(Series K, const BigFloat &T, size_t WP) {
  if (T.isZero())
    return T;
  FixedSeries S(WP);
  S.sum(K, T, BigFloat::mul(T, T));
  return S.value(WP);
}

/// atan(1/M) or atanh(1/M) for a small integer M.
static BigFloat reciprocalSeries(Series K, uint64_t M, size_t WP) {
  FixedSeries S(WP);
  S.sum(K, BigFloat::div(one(WP), BigFloat::fromInt64(M, WP)), BigFloat(),
        M * M);
  return S.value(WP);
}

/// expm1(R) for |R| < 1/2: the series on R/2^16, squared back 16 times.
static BigFloat expm1Reduced(const BigFloat &R, size_t WP) {
  if (R.isZero())
    return R;
  const int Halvings = 16;
  BigFloat A = BigFloat::scalb(R, -Halvings);
  FixedSeries S(WP);
  S.sum(Series::Expm1, A, A);
  for (int I = 0; I < Halvings; ++I)
    S.twice(S.Neg);
  return S.value(WP);
}

//===----------------------------------------------------------------------===//
// Constants.
//===----------------------------------------------------------------------===//

BigFloat realmath::pi(size_t PrecBits) {
  // thread_local: batch-engine workers evaluate shadow reals concurrently,
  // and a shared mutable cache would race.
  thread_local BigFloat Cached;
  thread_local size_t CachedPrec = 0;
  if (CachedPrec < PrecBits) {
    size_t P = PrecBits + 64;
    size_t WP = P + GuardBits;
    // Machin: pi = 16*atan(1/5) - 4*atan(1/239).
    BigFloat A = BigFloat::scalb(reciprocalSeries(Series::Atan, 5, WP), 4);
    BigFloat B = BigFloat::scalb(reciprocalSeries(Series::Atan, 239, WP), 2);
    Cached = BigFloat::sub(A, B).withPrecision(P);
    CachedPrec = P;
  }
  return Cached.withPrecision(PrecBits);
}

BigFloat realmath::ln2(size_t PrecBits) {
  // thread_local: batch-engine workers evaluate shadow reals concurrently,
  // and a shared mutable cache would race.
  thread_local BigFloat Cached;
  thread_local size_t CachedPrec = 0;
  if (CachedPrec < PrecBits) {
    size_t P = PrecBits + 64;
    size_t WP = P + GuardBits;
    // ln2 = 2*atanh(1/3).
    Cached = BigFloat::scalb(reciprocalSeries(Series::Atanh, 3, WP), 1)
                 .withPrecision(P);
    CachedPrec = P;
  }
  return Cached.withPrecision(PrecBits);
}

//===----------------------------------------------------------------------===//
// Exponentials and logarithms.
//
// The *At forms take the working precision WP from their caller, so nested
// kernels run at the caller's width instead of widening again; Prec is the
// precision of special results and of the final rounding, as in the public
// entry points (which pass their input precision and workPrec).
//===----------------------------------------------------------------------===//

static BigFloat expAt(const BigFloat &X, size_t Prec, size_t WP) {
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isInf())
    return X.isNegative() ? BigFloat::zero(false) : BigFloat::inf(false);
  if (X.isZero())
    return one(Prec);
  // Saturate absurd magnitudes: any |X| >= 2^50 overflows/underflows every
  // IEEE format the analysis rounds into.
  if (X.exponent() > 50)
    return X.isNegative() ? BigFloat::zero(false) : BigFloat::inf(false);

  // Range-reduce: X = K*ln2 + R with |R| <= ln2/2, exp(X) = 2^K * exp(R).
  // ln2 must carry extra bits to absorb |K| <= 2^51, and X stays exact.
  size_t WP2 = std::max(WP, X.precisionBits()) + 64;
  BigFloat XW = widened(X, WP2);
  BigFloat Ln2 = ln2(WP2);
  BigFloat K = BigFloat::div(XW, Ln2).roundNearest();
  int64_t KInt = K.toInt64Trunc();
  BigFloat R = BigFloat::sub(XW, BigFloat::mul(K, Ln2)).withPrecision(WP);
  BigFloat E = BigFloat::add(one(WP), expm1Reduced(R, WP));
  return BigFloat::scalb(E, KInt).withPrecision(Prec);
}

BigFloat realmath::exp(const BigFloat &X) {
  return expAt(X, X.precisionBits(), workPrec(X));
}

static BigFloat expm1At(const BigFloat &X, size_t Prec, size_t WP) {
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isInf())
    return X.isNegative() ? BigFloat::fromInt64(-1, Prec)
                          : BigFloat::inf(false);
  if (X.isZero())
    return X; // preserves the signed zero, like libm
  if (X.exponent() <= -1) // |X| < 1/2: no cancellation
    return expm1Reduced(X, WP).withPrecision(Prec);
  BigFloat E = expAt(X, WP, WP);
  return BigFloat::sub(E, one(WP)).withPrecision(Prec);
}

BigFloat realmath::expm1(const BigFloat &X) {
  return expm1At(X, X.precisionBits(), workPrec(X));
}

BigFloat realmath::exp2(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isInf())
    return X.isNegative() ? BigFloat::zero(false) : BigFloat::inf(false);
  if (X.isZero())
    return one(Prec);
  if (X.exponent() > 50)
    return X.isNegative() ? BigFloat::zero(false) : BigFloat::inf(false);
  // 2^X = 2^floor(X) * exp(frac * ln2); exact when X is an integer.
  BigFloat K = X.floor();
  BigFloat Frac = BigFloat::sub(X, K);
  int64_t KInt = K.toInt64Trunc();
  size_t WP = workPrec(X);
  BigFloat E = Frac.isZero() ? one(WP)
                             : expAt(BigFloat::mul(widened(Frac, WP), ln2(WP)),
                                     WP, WP);
  return BigFloat::scalb(E, KInt).withPrecision(Prec);
}

/// ln(1 + D) for |D| < 1/2, given Y0 ~ ln(1 + D) as a double: with
/// E = expm1(Y0), ln(1 + D) = Y0 + 2*atanh((D - E) / (2 + D + E)), whose
/// argument is O(2^-52), so the atanh series needs only a few terms.
static BigFloat log1pNear(const BigFloat &D, double Y0, size_t WP) {
  BigFloat Y = BigFloat::fromDouble(Y0, WP);
  BigFloat E = expm1Reduced(Y, WP);
  BigFloat T = BigFloat::div(
      BigFloat::sub(D, E),
      BigFloat::add(BigFloat::add(BigFloat::fromInt64(2, WP), D), E));
  return BigFloat::add(Y,
                       BigFloat::scalb(oddSeries(Series::Atanh, T, WP), 1));
}

static BigFloat logAt(const BigFloat &X, size_t Prec, size_t WP) {
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isZero())
    return BigFloat::inf(true);
  if (X.isNegative())
    return BigFloat::nan();
  if (X.isInf())
    return BigFloat::inf(false);

  // X = M * 2^K with M in (sqrt(1/2), sqrt(2)); M - 1 is exact.
  int64_t K = X.exponent();
  BigFloat M = BigFloat::scalb(widened(X, WP), -K);
  if (M.toDouble() < 0.70710678118654752) {
    M = BigFloat::scalb(M, 1);
    K -= 1;
  }
  BigFloat LnM =
      log1pNear(BigFloat::sub(M, one(WP)), std::log(M.toDouble()), WP);
  BigFloat Result =
      BigFloat::add(LnM, BigFloat::mul(BigFloat::fromInt64(K, WP), ln2(WP)));
  return Result.withPrecision(Prec);
}

BigFloat realmath::log(const BigFloat &X) {
  return logAt(X, X.precisionBits(), workPrec(X));
}

BigFloat realmath::log1p(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isZero())
    return X;
  if (X.isInf())
    return X.isNegative() ? BigFloat::nan() : BigFloat::inf(false);
  BigFloat One = one(WP);
  int MinusOneCmp = BigFloat::cmp(X, One.negated());
  if (MinusOneCmp == 0)
    return BigFloat::inf(true);
  if (MinusOneCmp < 0)
    return BigFloat::nan();
  if (X.exponent() <= -1) // |X| < 1/2: no cancellation
    return log1pNear(widened(X, WP), std::log1p(X.toDouble()), WP)
        .withPrecision(Prec);
  return logAt(BigFloat::add(widened(X, WP), One), WP, WP)
      .withPrecision(Prec);
}

BigFloat realmath::log2(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  BigFloat L = logAt(widened(X, WP), WP, WP);
  if (!L.isFinite())
    return L;
  return BigFloat::div(L, ln2(WP)).withPrecision(Prec);
}

BigFloat realmath::log10(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  BigFloat L = logAt(widened(X, WP), WP, WP);
  if (!L.isFinite())
    return L;
  return BigFloat::div(L, ln10(WP)).withPrecision(Prec);
}

BigFloat realmath::ln10(size_t PrecBits) {
  // thread_local: batch-engine workers evaluate shadow reals concurrently,
  // and a shared mutable cache would race.
  thread_local BigFloat Cached;
  thread_local size_t CachedPrec = 0;
  if (CachedPrec < PrecBits) {
    size_t P = PrecBits + 64;
    size_t WP = P + GuardBits;
    Cached = logAt(BigFloat::fromInt64(10, WP), WP, WP).withPrecision(P);
    CachedPrec = P;
  }
  return Cached.withPrecision(PrecBits);
}

BigFloat realmath::eulerE(size_t PrecBits) {
  // thread_local: batch-engine workers evaluate shadow reals concurrently,
  // and a shared mutable cache would race.
  thread_local BigFloat Cached;
  thread_local size_t CachedPrec = 0;
  if (CachedPrec < PrecBits) {
    size_t P = PrecBits + 64;
    size_t WP = P + GuardBits;
    Cached = expAt(one(WP), WP, WP).withPrecision(P);
    CachedPrec = P;
  }
  return Cached.withPrecision(PrecBits);
}

//===----------------------------------------------------------------------===//
// Trigonometry.
//===----------------------------------------------------------------------===//

namespace {
/// Result of circular argument reduction: X = (Quadrant + 4k)*(pi/2) + R
/// with |R| <= pi/4 (plus rounding slack).
struct CircularReduction {
  BigFloat R;
  int Quadrant;
};
} // namespace

/// Reducing an argument of exponent E costs ~E bits of pi (time and
/// memory both). Past ~1M bits that is unpayable -- and pointless for a
/// shadow: such magnitudes only arise from intermediates like
/// exp(exp(x)) whose rounded double is already +/-inf, so the trig
/// functions return NaN instead, matching what the concrete program
/// computes from the overflowed value.
static bool circularReductionFeasible(const BigFloat &X) {
  return X.exponent() <= (int64_t{1} << 20);
}

static CircularReduction reduceCircular(const BigFloat &X, size_t WP) {
  assert(X.isFinite() && !X.isZero() && "reduce of non-finite");
  if (X.exponent() <= -1) {
    // |X| < 1/2 < pi/4: already reduced.
    return {widened(X, WP), 0};
  }
  // Payne-Hanek in spirit: carry enough extra bits of pi to absorb the
  // argument's magnitude.
  size_t ExtP = WP + static_cast<size_t>(std::max<int64_t>(0, X.exponent())) +
                64;
  BigFloat PiHalf = BigFloat::scalb(pi(ExtP), -1);
  BigFloat XE = widened(X, ExtP);
  BigFloat K = BigFloat::div(XE, PiHalf).roundNearest();
  BigFloat R = BigFloat::sub(XE, BigFloat::mul(K, PiHalf));
  // Quadrant = K mod 4 (mathematical modulus).
  BigFloat KDiv4 = BigFloat::scalb(K, -2).floor();
  BigFloat KMod4 = BigFloat::sub(K, BigFloat::scalb(KDiv4, 2));
  int Quadrant = static_cast<int>(KMod4.toInt64Trunc()) & 3;
  return {R.withPrecision(WP), Quadrant};
}

/// sin on the reduced range |R| <= pi/4 + slack.
static BigFloat sinTaylor(const BigFloat &R, size_t WP) {
  return oddSeries(Series::Sin, R, WP);
}

/// cos on the reduced range, as 1 - (1 - cos R).
static BigFloat cosTaylor(const BigFloat &R, size_t WP) {
  if (R.isZero())
    return one(WP);
  BigFloat R2 = BigFloat::mul(R, R);
  FixedSeries S(WP);
  S.sum(Series::Vers, BigFloat::scalb(R2, -1), R2);
  return BigFloat::sub(one(WP), S.value(WP));
}

BigFloat realmath::sin(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN() || X.isInf())
    return BigFloat::nan();
  if (X.isZero())
    return X;
  if (!circularReductionFeasible(X))
    return BigFloat::nan();
  CircularReduction CR = reduceCircular(X, WP);
  BigFloat V;
  switch (CR.Quadrant) {
  case 0:
    V = sinTaylor(CR.R, WP);
    break;
  case 1:
    V = cosTaylor(CR.R, WP);
    break;
  case 2:
    V = sinTaylor(CR.R, WP).negated();
    break;
  default:
    V = cosTaylor(CR.R, WP).negated();
    break;
  }
  return V.withPrecision(Prec);
}

BigFloat realmath::cos(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN() || X.isInf())
    return BigFloat::nan();
  if (X.isZero())
    return one(Prec);
  if (!circularReductionFeasible(X))
    return BigFloat::nan();
  CircularReduction CR = reduceCircular(X, WP);
  BigFloat V;
  switch (CR.Quadrant) {
  case 0:
    V = cosTaylor(CR.R, WP);
    break;
  case 1:
    V = sinTaylor(CR.R, WP).negated();
    break;
  case 2:
    V = cosTaylor(CR.R, WP).negated();
    break;
  default:
    V = sinTaylor(CR.R, WP);
    break;
  }
  return V.withPrecision(Prec);
}

BigFloat realmath::tan(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN() || X.isInf())
    return BigFloat::nan();
  if (X.isZero())
    return X;
  if (!circularReductionFeasible(X))
    return BigFloat::nan();
  CircularReduction CR = reduceCircular(X, WP);
  BigFloat S = sinTaylor(CR.R, WP);
  BigFloat C = cosTaylor(CR.R, WP);
  BigFloat V = (CR.Quadrant & 1) ? BigFloat::div(C, S).negated()
                                 : BigFloat::div(S, C);
  return V.withPrecision(Prec);
}

static BigFloat atanAt(const BigFloat &X, size_t Prec, size_t WP) {
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isZero())
    return X;
  if (X.isInf()) {
    BigFloat PiHalf = BigFloat::scalb(pi(Prec), -1);
    return X.isNegative() ? PiHalf.negated() : PiHalf;
  }
  bool Negate = X.isNegative();
  BigFloat A = widened(X.abs(), WP);
  bool Reciprocal = false;
  if (A.exponent() > 0 && BigFloat::cmp(A, one(WP)) > 0) {
    A = BigFloat::div(one(WP), A);
    Reciprocal = true;
  }
  // Halve with atan(a) = 2*atan(a / (1 + sqrt(1 + a^2))) until a < 1/8.
  int Halvings = 0;
  while (!A.isZero() && A.exponent() > -3) {
    BigFloat Sq = BigFloat::sqrt(
        BigFloat::add(one(WP), BigFloat::mul(A, A)));
    A = BigFloat::div(A, BigFloat::add(one(WP), Sq));
    ++Halvings;
  }
  BigFloat Sum = oddSeries(Series::Atan, A, WP); // Gregory series
  BigFloat V = BigFloat::scalb(Sum, Halvings);
  if (Reciprocal)
    V = BigFloat::sub(BigFloat::scalb(pi(WP), -1), V);
  if (Negate)
    V = V.negated();
  return V.withPrecision(Prec);
}

BigFloat realmath::atan(const BigFloat &X) {
  return atanAt(X, X.precisionBits(), workPrec(X));
}

static BigFloat atan2At(const BigFloat &Y, const BigFloat &X, size_t Prec,
                        size_t WP) {
  if (Y.isNaN() || X.isNaN())
    return BigFloat::nan();
  bool YNeg = Y.isNegative();
  auto Signed = [&](const BigFloat &V) {
    return YNeg ? V.negated() : V;
  };
  BigFloat Pi = pi(Prec);
  BigFloat PiHalf = BigFloat::scalb(pi(Prec), -1);
  if (Y.isZero()) {
    // C99: the sign of the zero selects the branch.
    if (X.isZero())
      return X.isNegative() ? Signed(Pi) : Signed(BigFloat::zero(YNeg));
    if (X.isNegative())
      return Signed(Pi);
    return BigFloat::zero(YNeg);
  }
  if (X.isZero())
    return Signed(PiHalf);
  if (X.isInf() && Y.isInf()) {
    BigFloat PiQuarter = BigFloat::scalb(pi(Prec), -2);
    if (X.isNegative())
      return Signed(BigFloat::sub(Pi, PiQuarter)); // ±3pi/4
    return Signed(PiQuarter);
  }
  if (X.isInf())
    return X.isNegative() ? Signed(Pi) : BigFloat::zero(YNeg);
  if (Y.isInf())
    return Signed(PiHalf);

  BigFloat Base = atanAt(
      BigFloat::div(widened(Y.abs(), WP), widened(X.abs(), WP)), WP, WP);
  BigFloat V = X.isNegative() ? BigFloat::sub(pi(WP), Base) : Base;
  return Signed(V).withPrecision(Prec);
}

BigFloat realmath::atan2(const BigFloat &Y, const BigFloat &X) {
  size_t Prec = std::max(Y.precisionBits(), X.precisionBits());
  return atan2At(Y, X, Prec, Prec + GuardBits);
}

BigFloat realmath::asin(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isZero())
    return X;
  BigFloat AbsX = X.abs();
  BigFloat One = one(WP);
  int Cmp = X.isInf() ? 1 : BigFloat::cmp(widened(AbsX, WP), One);
  if (Cmp > 0)
    return BigFloat::nan();
  if (Cmp == 0) {
    BigFloat PiHalf = BigFloat::scalb(pi(Prec), -1);
    return X.isNegative() ? PiHalf.negated() : PiHalf;
  }
  BigFloat XW = widened(X, WP);
  BigFloat Denom = BigFloat::sqrt(BigFloat::sub(One, BigFloat::mul(XW, XW)));
  return atanAt(BigFloat::div(XW, Denom), WP, WP).withPrecision(Prec);
}

BigFloat realmath::acos(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN())
    return BigFloat::nan();
  BigFloat One = one(WP);
  BigFloat XW = widened(X, WP);
  if (X.isInf() || BigFloat::cmp(XW.abs(), One) > 0)
    return BigFloat::nan();
  // acos(x) = atan2(sqrt(1 - x^2), x): no cancellation anywhere.
  BigFloat S = BigFloat::sqrt(BigFloat::sub(One, BigFloat::mul(XW, XW)));
  return atan2At(S, XW, WP, WP).withPrecision(Prec);
}

//===----------------------------------------------------------------------===//
// Hyperbolics.
//===----------------------------------------------------------------------===//

BigFloat realmath::sinh(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (!X.isFinite() || X.isZero())
    return X; // NaN, ±inf, ±0 all map to themselves
  if (X.exponent() <= -1) {
    // |X| < 1/2: sinh = E(2 + E) / (2(1 + E)) with E = expm1(X) avoids the
    // exp(x) - exp(-x) cancellation.
    BigFloat E = expm1Reduced(X, WP);
    BigFloat V = BigFloat::div(
        BigFloat::mul(E, BigFloat::add(BigFloat::fromInt64(2, WP), E)),
        BigFloat::add(one(WP), E));
    return BigFloat::scalb(V, -1).withPrecision(Prec);
  }
  BigFloat E = expAt(X, WP, WP);
  BigFloat V = BigFloat::sub(E, BigFloat::div(one(WP), E));
  return BigFloat::scalb(V, -1).withPrecision(Prec);
}

BigFloat realmath::cosh(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isInf())
    return BigFloat::inf(false);
  if (X.isZero())
    return one(Prec);
  BigFloat E = expAt(X, WP, WP);
  if (E.isInf() || E.isZero())
    return BigFloat::inf(false);
  BigFloat V = BigFloat::add(E, BigFloat::div(one(WP), E));
  return BigFloat::scalb(V, -1).withPrecision(Prec);
}

BigFloat realmath::tanh(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN() || X.isZero())
    return X;
  if (X.isInf())
    return BigFloat::fromInt64(X.isNegative() ? -1 : 1, Prec);
  // tanh(|x|) = -expm1(-2|x|) / (2 + expm1(-2|x|)), then restore the sign.
  BigFloat A = widened(X.abs(), WP);
  BigFloat T = expm1At(BigFloat::scalb(A, 1).negated(), WP, WP);
  BigFloat V = BigFloat::div(T.negated(),
                             BigFloat::add(BigFloat::fromInt64(2, WP), T));
  if (X.isNegative())
    V = V.negated();
  return V.withPrecision(Prec);
}

//===----------------------------------------------------------------------===//
// Powers and roots.
//===----------------------------------------------------------------------===//

/// Integer power by squaring at working precision.
static BigFloat powInt(const BigFloat &X, int64_t N, size_t WP) {
  if (N == 0)
    return one(WP);
  bool Invert = N < 0;
  uint64_t E = Invert ? -static_cast<uint64_t>(N) : static_cast<uint64_t>(N);
  BigFloat Base = widened(X, WP);
  BigFloat Acc = one(WP);
  while (E) {
    if (E & 1)
      BigFloat::mulInto(Acc, Acc, Base);
    BigFloat::mulInto(Base, Base, Base);
    E >>= 1;
  }
  return Invert ? BigFloat::div(one(WP), Acc) : Acc;
}

BigFloat realmath::pow(const BigFloat &X, const BigFloat &Y) {
  size_t Prec = std::max(X.precisionBits(), Y.precisionBits());
  size_t WP = Prec + GuardBits;
  // C99 pow special-value ladder.
  if (Y.isZero())
    return one(Prec);
  if (!X.isNaN() && !X.isZero() && X.isFinite() && !X.isNegative() &&
      X.exponent() == 1 && BigFloat::cmp(X, one(WP)) == 0)
    return one(Prec); // pow(+1, anything) = 1
  if (X.isNaN() || Y.isNaN())
    return BigFloat::nan();
  bool YIsInt = Y.isInteger();
  bool YIsOdd = Y.isOddInteger();
  if (Y.isInf()) {
    int MagCmp = X.isInf() ? 1 : BigFloat::cmp(X.abs(), one(WP));
    if (MagCmp == 0)
      return one(Prec); // pow(-1, ±inf) = 1 as well
    bool GrowsToInf = (MagCmp > 0) == !Y.isNegative();
    return GrowsToInf ? BigFloat::inf(false) : BigFloat::zero(false);
  }
  if (X.isZero()) {
    bool ResultNeg = YIsOdd && X.isNegative();
    if (Y.isNegative())
      return BigFloat::inf(ResultNeg);
    return BigFloat::zero(ResultNeg);
  }
  if (X.isInf()) {
    bool ResultNeg = YIsOdd && X.isNegative();
    if (Y.isNegative())
      return BigFloat::zero(ResultNeg);
    return BigFloat::inf(ResultNeg);
  }
  if (X.isNegative() && !YIsInt)
    return BigFloat::nan();

  // Small integer exponents: exact-ish squaring (also covers negative X).
  if (YIsInt && Y.exponent() <= 32) {
    int64_t N = Y.toInt64Trunc();
    return powInt(X, N, WP).withPrecision(Prec);
  }

  // General case on |X|: exp(Y * log X), widening with the magnitude of
  // Y * log X (estimated in doubles) so exp's argument keeps WP bits below
  // the binary point. Past 2^60 exp saturates whatever the precision.
  int64_t EX = X.exponent();
  double LogX = std::log(BigFloat::scalb(X.abs(), -EX).toDouble()) +
                static_cast<double>(EX) * M_LN2;
  double TMag = std::fabs(Y.toDouble() * LogX);
  size_t ExtP = WP;
  if (TMag >= 1)
    ExtP += static_cast<size_t>(std::ilogb(std::min(TMag, 0x1p60))) + 65;
  BigFloat T =
      BigFloat::mul(widened(Y, ExtP), logAt(X.abs(), ExtP, ExtP));
  BigFloat V = expAt(T, T.precisionBits(), WP);
  if (X.isNegative() && YIsOdd)
    V = V.negated();
  return V.withPrecision(Prec);
}

BigFloat realmath::cbrt(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (!X.isFinite() || X.isZero())
    return X;
  // Newton on A = |X| * 2^-3K in [1/2, 4) from the double cube root:
  // R' = (2R + A/R^2) / 3 doubles the correct bits per step.
  int64_t EX = X.exponent();
  int64_t K = (EX >= 0 ? EX : EX - 2) / 3; // floor(EX / 3)
  BigFloat A = BigFloat::scalb(widened(X.abs(), WP), -3 * K);
  BigFloat R = BigFloat::fromDouble(std::cbrt(A.toDouble()), WP);
  BigFloat Three = BigFloat::fromInt64(3, WP);
  for (size_t Bits = 50; Bits < WP; Bits *= 2)
    R = BigFloat::div(BigFloat::add(BigFloat::scalb(R, 1),
                                    BigFloat::div(A, BigFloat::mul(R, R))),
                      Three);
  BigFloat V = BigFloat::scalb(R, K);
  if (X.isNegative())
    V = V.negated();
  return V.withPrecision(Prec);
}

BigFloat realmath::hypot(const BigFloat &X, const BigFloat &Y) {
  size_t Prec = std::max(X.precisionBits(), Y.precisionBits());
  size_t WP = Prec + GuardBits;
  if (X.isInf() || Y.isInf())
    return BigFloat::inf(false); // even when the other operand is NaN
  if (X.isNaN() || Y.isNaN())
    return BigFloat::nan();
  BigFloat XW = widened(X, WP);
  BigFloat YW = widened(Y, WP);
  BigFloat S = BigFloat::add(BigFloat::mul(XW, XW), BigFloat::mul(YW, YW));
  return BigFloat::sqrt(S).withPrecision(Prec);
}

//===----------------------------------------------------------------------===//
// Remainders.
//===----------------------------------------------------------------------===//

/// Shared fmod/remainder core: X - Q*Y where Q is an integer chosen by
/// \p RoundQ. Computed at enough precision to make the subtraction exact.
template <typename RoundFn>
static BigFloat moduloImpl(const BigFloat &X, const BigFloat &Y,
                           RoundFn RoundQ) {
  size_t Prec = std::max(X.precisionBits(), Y.precisionBits());
  if (X.isNaN() || Y.isNaN() || X.isInf() || Y.isZero())
    return BigFloat::nan();
  if (X.isZero() || Y.isInf())
    return X.withPrecision(Prec);

  int64_t ExpGap = X.exponent() - Y.exponent();
  size_t ExtP =
      Prec + GuardBits + static_cast<size_t>(std::max<int64_t>(0, ExpGap)) +
      64;
  BigFloat XW = X.withPrecision(ExtP);
  BigFloat YW = Y.withPrecision(ExtP);
  BigFloat Q = RoundQ(BigFloat::div(XW, YW));
  BigFloat R = BigFloat::sub(XW, BigFloat::mul(Q, YW));
  return R.withPrecision(Prec);
}

BigFloat realmath::fmod(const BigFloat &X, const BigFloat &Y) {
  BigFloat R = moduloImpl(X, Y, [](const BigFloat &Q) { return Q.trunc(); });
  if (R.isZero() && !R.isNaN())
    return BigFloat::zero(X.isNegative());
  return R;
}

BigFloat realmath::remainder(const BigFloat &X, const BigFloat &Y) {
  return moduloImpl(X, Y,
                    [](const BigFloat &Q) { return Q.roundNearestEven(); });
}
