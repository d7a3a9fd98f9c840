//===- tests/RealMathReference.h - Series-loop kernel oracle ---*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The BigFloat-accumulator series kernels that real/RealMath.cpp ran before
/// its fixed-point series core, kept verbatim (namespace aside) as an oracle:
/// every function here widens by 128 guard bits per call, sums term by term
/// with a full normalize-and-round per operation, and rounds once to the
/// input precision. The fixed-point kernels must reproduce these results
/// bit for bit at 256 bits.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_TESTS_REALMATHREFERENCE_H
#define HERBGRIND_TESTS_REALMATHREFERENCE_H

#include "real/BigFloat.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace herbgrind {
namespace seriesref {

inline BigFloat pi(size_t PrecBits);
inline BigFloat ln2(size_t PrecBits);
inline BigFloat log(const BigFloat &X);
inline BigFloat exp(const BigFloat &X);
inline BigFloat atan(const BigFloat &X);
inline BigFloat atan2(const BigFloat &Y, const BigFloat &X);
inline BigFloat expm1(const BigFloat &X);


/// Guard bits added to the working precision of every function.
const size_t GuardBits = 128;

//===----------------------------------------------------------------------===//
// Small helpers.
//===----------------------------------------------------------------------===//

/// Divides a finite nonzero BigFloat by a small positive integer with a
/// single limb pass (the workhorse of all the series below). Alias-safe
/// destination-passing: \p Dst may be \p X; the quotient is built in stack
/// scratch before Dst is written, so steady-state series loops never
/// allocate.
inline void divBySmallInto(BigFloat &Dst, const BigFloat &X, uint64_t D) {
  assert(D > 0 && "division by zero");
  if (!X.isFinite() || X.isZero()) {
    Dst = X;
    return;
  }
  const uint64_t *M = BigFloatBuilder::limbs(X);
  size_t N = BigFloatBuilder::limbCount(X);
  bool NegX = X.isNegative();
  int64_t ExpX = BigFloatBuilder::rawExp(X);
  InlineLimbs<16> Q;
  Q.assignZeros(N + 1);
  unsigned __int128 Rem = 0;
  for (size_t I = N; I-- > 0;) {
    unsigned __int128 Cur = (Rem << 64) | M[I];
    Q[I + 1] = static_cast<uint64_t>(Cur / D);
    Rem = Cur % D;
  }
  unsigned __int128 Cur = Rem << 64;
  Q[0] = static_cast<uint64_t>(Cur / D);
  bool Sticky = (Cur % D) != 0;
  BigFloatBuilder::normalizeAndRoundInto(Dst, NegX, ExpX, Q.data(), N + 1,
                                         Sticky, N);
}

inline BigFloat divBySmall(const BigFloat &X, uint64_t D) {
  BigFloat R;
  divBySmallInto(R, X, D);
  return R;
}

/// True when adding Term to a sum of magnitude ~Ref can no longer change
/// the top WorkBits bits.
inline bool negligible(const BigFloat &Term, const BigFloat &Ref,
                       size_t WorkBits) {
  if (Term.isZero())
    return true;
  if (Ref.isZero())
    return false;
  return Term.exponent() <
         Ref.exponent() - static_cast<int64_t>(WorkBits) - 16;
}

inline size_t workPrec(const BigFloat &X) {
  return X.precisionBits() + GuardBits;
}

inline BigFloat widened(const BigFloat &X, size_t WP) {
  return X.withPrecision(WP);
}

inline BigFloat one(size_t WP) { return BigFloat::fromInt64(1, WP); }

//===----------------------------------------------------------------------===//
// Constants.
//===----------------------------------------------------------------------===//

/// atan(1/M) for a small integer M via the Gregory series; all divisions
/// are by small integers. Converges log2(M^2) bits per term.
inline BigFloat atanReciprocal(uint64_t M, size_t PrecBits) {
  size_t WP = PrecBits + GuardBits;
  uint64_t MSquared = M * M; // callers keep M <= ~2^31
  BigFloat Pow = divBySmall(one(WP), M);
  BigFloat Sum = Pow;
  BigFloat Ref = Sum;
  BigFloat Term;
  bool Negate = true;
  for (uint64_t K = 1;; ++K, Negate = !Negate) {
    divBySmallInto(Pow, Pow, MSquared);
    divBySmallInto(Term, Pow, 2 * K + 1);
    if (negligible(Term, Ref, WP))
      break;
    BigFloat::addInto(Sum, Sum, Negate ? Term.negated() : Term);
  }
  return Sum;
}

inline BigFloat pi(size_t PrecBits) {
  // thread_local: batch-engine workers evaluate shadow reals concurrently,
  // and a shared mutable cache would race.
  thread_local BigFloat Cached;
  thread_local size_t CachedPrec = 0;
  if (CachedPrec < PrecBits) {
    size_t P = PrecBits + 64;
    // Machin: pi = 16*atan(1/5) - 4*atan(1/239).
    BigFloat A = BigFloat::scalb(atanReciprocal(5, P), 4);
    BigFloat B = BigFloat::scalb(atanReciprocal(239, P), 2);
    Cached = BigFloat::sub(A, B);
    CachedPrec = P;
  }
  return Cached.withPrecision(PrecBits);
}

inline BigFloat ln2(size_t PrecBits) {
  // thread_local: batch-engine workers evaluate shadow reals concurrently,
  // and a shared mutable cache would race.
  thread_local BigFloat Cached;
  thread_local size_t CachedPrec = 0;
  if (CachedPrec < PrecBits) {
    size_t P = PrecBits + 64;
    size_t WP = P + GuardBits;
    // ln2 = 2*atanh(1/3) = 2 * sum 1/((2k+1) 3^(2k+1)).
    BigFloat Pow = divBySmall(one(WP), 3);
    BigFloat Sum = Pow;
    BigFloat Term;
    for (uint64_t K = 1;; ++K) {
      divBySmallInto(Pow, Pow, 9);
      divBySmallInto(Term, Pow, 2 * K + 1);
      if (negligible(Term, Sum, WP))
        break;
      BigFloat::addInto(Sum, Sum, Term);
    }
    Cached = BigFloat::scalb(Sum, 1).withPrecision(P);
    CachedPrec = P;
  }
  return Cached.withPrecision(PrecBits);
}

inline BigFloat ln10(size_t PrecBits) {
  // thread_local: batch-engine workers evaluate shadow reals concurrently,
  // and a shared mutable cache would race.
  thread_local BigFloat Cached;
  thread_local size_t CachedPrec = 0;
  if (CachedPrec < PrecBits) {
    size_t P = PrecBits + 64;
    Cached = seriesref::log(BigFloat::fromInt64(10, P + GuardBits))
                 .withPrecision(P);
    CachedPrec = P;
  }
  return Cached.withPrecision(PrecBits);
}

inline BigFloat eulerE(size_t PrecBits) {
  // thread_local: batch-engine workers evaluate shadow reals concurrently,
  // and a shared mutable cache would race.
  thread_local BigFloat Cached;
  thread_local size_t CachedPrec = 0;
  if (CachedPrec < PrecBits) {
    size_t P = PrecBits + 64;
    Cached = seriesref::exp(one(P + GuardBits)).withPrecision(P);
    CachedPrec = P;
  }
  return Cached.withPrecision(PrecBits);
}

//===----------------------------------------------------------------------===//
// Exponentials.
//===----------------------------------------------------------------------===//

inline BigFloat exp(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
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
  // ln2 must carry extra bits to absorb |K| <= 2^51.
  size_t WP2 = WP + 64;
  BigFloat XW = widened(X, WP2);
  BigFloat Ln2 = ln2(WP2);
  BigFloat K = BigFloat::div(XW, Ln2).roundNearest();
  int64_t KInt = K.toInt64Trunc();
  BigFloat R = BigFloat::sub(XW, BigFloat::mul(K, Ln2)).withPrecision(WP);

  BigFloat Sum = one(WP);
  BigFloat Term = one(WP);
  for (uint64_t I = 1;; ++I) {
    BigFloat::mulInto(Term, Term, R);
    divBySmallInto(Term, Term, I);
    if (negligible(Term, Sum, WP))
      break;
    BigFloat::addInto(Sum, Sum, Term);
  }
  return BigFloat::scalb(Sum, KInt).withPrecision(Prec);
}

inline BigFloat expm1(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isInf())
    return X.isNegative() ? BigFloat::fromInt64(-1, Prec)
                          : BigFloat::inf(false);
  if (X.isZero())
    return X; // preserves the signed zero, like libm
  if (X.exponent() <= -1) {
    // |X| < 1/2: direct series sum_{k>=1} X^k / k! avoids cancellation.
    BigFloat R = widened(X, WP);
    BigFloat Sum = R;
    BigFloat Term = R;
    for (uint64_t I = 2;; ++I) {
      BigFloat::mulInto(Term, Term, R);
      divBySmallInto(Term, Term, I);
      if (negligible(Term, Sum, WP))
        break;
      BigFloat::addInto(Sum, Sum, Term);
    }
    return Sum.withPrecision(Prec);
  }
  BigFloat E = seriesref::exp(widened(X, WP));
  return BigFloat::sub(E, one(WP)).withPrecision(Prec);
}

inline BigFloat exp2(const BigFloat &X) {
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
  BigFloat E = Frac.isZero()
                   ? one(WP)
                   : seriesref::exp(BigFloat::mul(widened(Frac, WP), ln2(WP)));
  return BigFloat::scalb(E, KInt).withPrecision(Prec);
}

//===----------------------------------------------------------------------===//
// Logarithms.
//===----------------------------------------------------------------------===//

/// 2*atanh(T) via the odd series; |T| must be well below 1.
inline BigFloat atanhTimes2(const BigFloat &T, size_t WP) {
  if (T.isZero())
    return T;
  BigFloat T2 = BigFloat::mul(T, T);
  BigFloat Pow = T;
  BigFloat Sum = T;
  BigFloat Term;
  for (uint64_t K = 1;; ++K) {
    BigFloat::mulInto(Pow, Pow, T2);
    divBySmallInto(Term, Pow, 2 * K + 1);
    if (negligible(Term, Sum, WP))
      break;
    BigFloat::addInto(Sum, Sum, Term);
  }
  return BigFloat::scalb(Sum, 1);
}

inline BigFloat log(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isZero())
    return BigFloat::inf(true);
  if (X.isNegative())
    return BigFloat::nan();
  if (X.isInf())
    return BigFloat::inf(false);

  // X = M * 2^K with M in (sqrt(1/2), sqrt(2)).
  int64_t K = X.exponent();
  BigFloat M = BigFloat::scalb(widened(X, WP), -K);
  if (M.toDouble() < 0.70710678118654752) {
    M = BigFloat::scalb(M, 1);
    K -= 1;
  }
  // ln M = 2*atanh((M-1)/(M+1)).
  BigFloat T = BigFloat::div(BigFloat::sub(M, one(WP)),
                             BigFloat::add(M, one(WP)));
  BigFloat LnM = atanhTimes2(T, WP);
  BigFloat Result =
      BigFloat::add(LnM, BigFloat::mul(BigFloat::fromInt64(K, WP), ln2(WP)));
  return Result.withPrecision(Prec);
}

inline BigFloat log1p(const BigFloat &X) {
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
  if (X.exponent() <= -1) {
    // |X| < 1/2: log1p(X) = 2*atanh(X / (2 + X)), no cancellation.
    BigFloat XW = widened(X, WP);
    BigFloat T = BigFloat::div(XW, BigFloat::add(BigFloat::fromInt64(2, WP),
                                                 XW));
    return atanhTimes2(T, WP).withPrecision(Prec);
  }
  return seriesref::log(BigFloat::add(widened(X, WP), One))
      .withPrecision(Prec);
}

inline BigFloat log2(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  BigFloat L = seriesref::log(widened(X, WP));
  if (!L.isFinite())
    return L;
  return BigFloat::div(L, ln2(WP)).withPrecision(Prec);
}

inline BigFloat log10(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  BigFloat L = seriesref::log(widened(X, WP));
  if (!L.isFinite())
    return L;
  return BigFloat::div(L, ln10(WP)).withPrecision(Prec);
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
inline bool circularReductionFeasible(const BigFloat &X) {
  return X.exponent() <= (int64_t{1} << 20);
}

inline CircularReduction reduceCircular(const BigFloat &X, size_t WP) {
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
inline BigFloat sinTaylor(const BigFloat &R, size_t WP) {
  if (R.isZero())
    return R;
  BigFloat R2 = BigFloat::mul(R, R).negated();
  BigFloat Term = R;
  BigFloat Sum = R;
  for (uint64_t K = 1;; ++K) {
    BigFloat::mulInto(Term, Term, R2);
    divBySmallInto(Term, Term, (2 * K) * (2 * K + 1));
    if (negligible(Term, Sum, WP))
      break;
    BigFloat::addInto(Sum, Sum, Term);
  }
  return Sum;
}

/// cos on the reduced range.
inline BigFloat cosTaylor(const BigFloat &R, size_t WP) {
  BigFloat One = one(WP);
  if (R.isZero())
    return One;
  BigFloat R2 = BigFloat::mul(R, R).negated();
  BigFloat Term = One;
  BigFloat Sum = One;
  for (uint64_t K = 1;; ++K) {
    BigFloat::mulInto(Term, Term, R2);
    divBySmallInto(Term, Term, (2 * K - 1) * (2 * K));
    if (negligible(Term, Sum, WP))
      break;
    BigFloat::addInto(Sum, Sum, Term);
  }
  return Sum;
}

inline BigFloat sin(const BigFloat &X) {
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

inline BigFloat cos(const BigFloat &X) {
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

inline BigFloat tan(const BigFloat &X) {
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

inline BigFloat atan(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
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
  // Gregory series.
  BigFloat Sum = A;
  if (!A.isZero()) {
    BigFloat A2 = BigFloat::mul(A, A).negated();
    BigFloat Pow = A;
    BigFloat Term;
    for (uint64_t K = 1;; ++K) {
      BigFloat::mulInto(Pow, Pow, A2);
      divBySmallInto(Term, Pow, 2 * K + 1);
      if (negligible(Term, Sum, WP))
        break;
      BigFloat::addInto(Sum, Sum, Term);
    }
  }
  BigFloat V = BigFloat::scalb(Sum, Halvings);
  if (Reciprocal)
    V = BigFloat::sub(BigFloat::scalb(pi(WP), -1), V);
  if (Negate)
    V = V.negated();
  return V.withPrecision(Prec);
}

inline BigFloat atan2(const BigFloat &Y, const BigFloat &X) {
  size_t Prec = std::max(Y.precisionBits(), X.precisionBits());
  size_t WP = Prec + GuardBits;
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

  BigFloat Base = seriesref::atan(
      BigFloat::div(widened(Y.abs(), WP), widened(X.abs(), WP)));
  BigFloat V = X.isNegative() ? BigFloat::sub(pi(WP), Base) : Base;
  return Signed(V).withPrecision(Prec);
}

inline BigFloat asin(const BigFloat &X) {
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
  return seriesref::atan(BigFloat::div(XW, Denom)).withPrecision(Prec);
}

inline BigFloat acos(const BigFloat &X) {
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
  return seriesref::atan2(S, XW).withPrecision(Prec);
}

//===----------------------------------------------------------------------===//
// Hyperbolics.
//===----------------------------------------------------------------------===//

inline BigFloat sinh(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (!X.isFinite() || X.isZero())
    return X; // NaN, ±inf, ±0 all map to themselves
  if (X.exponent() <= -1) {
    // |X| < 1/2: odd series avoids the exp(x) - exp(-x) cancellation.
    BigFloat R = widened(X, WP);
    BigFloat R2 = BigFloat::mul(R, R);
    BigFloat Term = R;
    BigFloat Sum = R;
    for (uint64_t K = 1;; ++K) {
      BigFloat::mulInto(Term, Term, R2);
      divBySmallInto(Term, Term, (2 * K) * (2 * K + 1));
      if (negligible(Term, Sum, WP))
        break;
      BigFloat::addInto(Sum, Sum, Term);
    }
    return Sum.withPrecision(Prec);
  }
  BigFloat E = seriesref::exp(widened(X, WP));
  BigFloat V = BigFloat::sub(E, BigFloat::div(one(WP), E));
  return BigFloat::scalb(V, -1).withPrecision(Prec);
}

inline BigFloat cosh(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN())
    return BigFloat::nan();
  if (X.isInf())
    return BigFloat::inf(false);
  if (X.isZero())
    return one(Prec);
  BigFloat E = seriesref::exp(widened(X, WP));
  if (E.isInf() || E.isZero())
    return BigFloat::inf(false);
  BigFloat V = BigFloat::add(E, BigFloat::div(one(WP), E));
  return BigFloat::scalb(V, -1).withPrecision(Prec);
}

inline BigFloat tanh(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (X.isNaN() || X.isZero())
    return X;
  if (X.isInf())
    return BigFloat::fromInt64(X.isNegative() ? -1 : 1, Prec);
  // tanh(|x|) = -expm1(-2|x|) / (2 + expm1(-2|x|)), then restore the sign.
  BigFloat A = widened(X.abs(), WP);
  BigFloat T = seriesref::expm1(BigFloat::scalb(A, 1).negated());
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
inline BigFloat powInt(const BigFloat &X, int64_t N, size_t WP) {
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

inline BigFloat pow(const BigFloat &X, const BigFloat &Y) {
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

  // General case on |X|: exp(Y * log X), widening with the magnitude of the
  // intermediate product so the final result keeps full precision.
  BigFloat T0 = BigFloat::mul(widened(Y, WP), seriesref::log(widened(X.abs(),
                                                                    WP)));
  size_t ExtP = WP;
  if (!T0.isZero() && T0.isFinite() && T0.exponent() > 0)
    ExtP += static_cast<size_t>(T0.exponent()) + 64;
  BigFloat T = ExtP == WP
                   ? T0
                   : BigFloat::mul(widened(Y, ExtP),
                                   seriesref::log(widened(X.abs(), ExtP)));
  BigFloat V = seriesref::exp(T);
  if (X.isNegative() && YIsOdd)
    V = V.negated();
  return V.withPrecision(Prec);
}

inline BigFloat cbrt(const BigFloat &X) {
  size_t Prec = X.precisionBits();
  size_t WP = workPrec(X);
  if (!X.isFinite() || X.isZero())
    return X;
  BigFloat A = widened(X.abs(), WP);
  BigFloat V = seriesref::exp(divBySmall(seriesref::log(A), 3));
  if (X.isNegative())
    V = V.negated();
  return V.withPrecision(Prec);
}

inline BigFloat hypot(const BigFloat &X, const BigFloat &Y) {
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

} // namespace seriesref
} // namespace herbgrind

#endif // HERBGRIND_TESTS_REALMATHREFERENCE_H
