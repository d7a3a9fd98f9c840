//===- analysis/RealOps.h - Real-number semantics of float ops --*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The real-number shadow semantics [[.]]_R of every float opcode
/// (Figure 4): the same operation carried out on BigFloat shadows. For
/// wrapped library calls (Section 5.3) this is what makes the shadow exact:
/// the call is interpreted as the mathematical function, not as the
/// instruction soup inside libm.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_ANALYSIS_REALOPS_H
#define HERBGRIND_ANALYSIS_REALOPS_H

#include "ir/Opcode.h"
#include "real/BigFloat.h"

namespace herbgrind {

/// Evaluates a scalar float opcode over reals into \p Dst (which may alias
/// an argument). \p Args must have the opcode's arity. Works for every
/// opcode with a float result that evalScalarOp supports (including
/// conversions, whose real semantics is the identity). This is the shadow
/// hot path's entry point: with the core ops' destination-passing forms and
/// BigFloat's inline limb storage it performs no heap allocation at the
/// default precision.
void evalRealOpInto(BigFloat &Dst, Opcode Op, const BigFloat *Args,
                    unsigned NumArgs);

/// Value-returning convenience wrapper around evalRealOpInto.
BigFloat evalRealOp(Opcode Op, const BigFloat *Args, unsigned NumArgs);

/// Evaluates a float comparison opcode over reals (IEEE NaN semantics).
bool evalRealPredicate(Opcode Op, const BigFloat &A, const BigFloat &B);

} // namespace herbgrind

#endif // HERBGRIND_ANALYSIS_REALOPS_H
