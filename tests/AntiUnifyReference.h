//===- tests/AntiUnifyReference.h - Rebuilding anti-unification -*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The anti-unification that trace/SymExpr.cpp ran before it generalized
/// expressions in place, kept verbatim (namespaces aside) as an oracle:
/// every incremental round and every shard merge builds a fresh SymExpr
/// tree, with a hash map of (symbolic, concrete) class pairs and a hash set
/// of claimed variable indices. The in-place generalizer must reproduce its
/// expressions (sites included), bindings, promotions, variable counters
/// and merged-variable provenance exactly.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_TESTS_ANTIUNIFYREFERENCE_H
#define HERBGRIND_TESTS_ANTIUNIFYREFERENCE_H

#include "trace/SymExpr.h"

#include "support/FloatBits.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace herbgrind {
namespace auref {

namespace detail {

/// Bounded-depth structural fingerprint of a symbolic subtree.
inline uint64_t symFingerprint(const SymExpr *E, uint32_t DepthLeft) {
  auto Mix = [](uint64_t H, uint64_t X) {
    H ^= X + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
    return H;
  };
  switch (E->Kind) {
  case SymExpr::SEKind::Var:
    return Mix(0x7a1, E->VarIdx);
  case SymExpr::SEKind::Const:
    return Mix(0xc0, bitsOfDouble(E->ConstVal));
  case SymExpr::SEKind::Op: {
    uint64_t H = Mix(0x09, static_cast<uint64_t>(E->Op));
    if (DepthLeft == 0)
      return H;
    for (const auto &Kid : E->Kids)
      H = Mix(H, symFingerprint(Kid.get(), DepthLeft - 1));
    return H;
  }
  }
  return 0;
}

struct PairKey {
  uint64_t SymFP, ConcFP;
  bool operator==(const PairKey &O) const {
    return SymFP == O.SymFP && ConcFP == O.ConcFP;
  }
};
struct PairKeyHash {
  size_t operator()(const PairKey &K) const {
    return K.SymFP * 0x9e3779b97f4a7c15ULL ^ K.ConcFP;
  }
};

/// Shared state of one anti-unification round.
struct Generalizer {
  TraceArena &Arena;
  uint32_t &NextVarIdx;
  std::vector<VarBinding> &Bindings;
  std::vector<Promotion> *Promotions;
  std::unordered_map<PairKey, uint32_t, PairKeyHash> VarForPair;
  std::unordered_set<uint32_t> ReusedThisRound;

  std::unique_ptr<SymExpr> makeVariable(const SymExpr *S, TraceNode *T,
                                        uint32_t Budget) {
    PairKey Key{symFingerprint(S, Arena.equivDepth()),
                Arena.fingerprint(T, Budget)};
    auto It = VarForPair.find(Key);
    uint32_t Idx;
    if (It != VarForPair.end()) {
      Idx = It->second;
    } else {
      // Keep the old variable index alive when this is the first concrete
      // class paired with it this round, so summaries stay attached.
      if (S->Kind == SymExpr::SEKind::Var &&
          !ReusedThisRound.count(S->VarIdx)) {
        Idx = S->VarIdx;
      } else {
        Idx = NextVarIdx++;
      }
      ReusedThisRound.insert(Idx);
      VarForPair.emplace(Key, Idx);
      Bindings.push_back({Idx, T->Value});
      // A constant held this value on every earlier round; report the
      // promotion so summaries can credit that history to the variable.
      if (Promotions && S->Kind == SymExpr::SEKind::Const)
        Promotions->push_back({Idx, S->ConstVal});
    }
    return SymExpr::makeVar(Idx);
  }

  /// Generalizes \p S against the trace \p T as seen with \p Budget.
  std::unique_ptr<SymExpr> gen(const SymExpr *S, TraceNode *T,
                               uint32_t Budget) {
    bool TLeaf = T->leafAt(Budget);
    if (S->Kind == SymExpr::SEKind::Op && !TLeaf && S->Op == T->Op &&
        S->Kids.size() == T->NumKids) {
      auto E = SymExpr::makeOp(S->Op, T->Site);
      for (unsigned I = 0; I < T->NumKids; ++I)
        E->Kids.push_back(gen(S->Kids[I].get(), T->Kids[I], Budget - 1));
      return E;
    }
    if (S->Kind == SymExpr::SEKind::Const && TLeaf &&
        bitsOfDouble(S->ConstVal) == bitsOfDouble(T->Value))
      return SymExpr::makeConst(S->ConstVal);
    return makeVariable(S, T, Budget);
  }
};

} // namespace detail

inline std::unique_ptr<SymExpr>
antiUnify(TraceArena &Arena, const SymExpr *Expr, TraceNode *Trace,
          uint32_t &NextVarIdx, std::vector<VarBinding> &Bindings,
          std::vector<Promotion> *Promotions) {
  Bindings.clear();
  if (Promotions)
    Promotions->clear();
  detail::Generalizer G{Arena, NextVarIdx, Bindings, Promotions, {}, {}};
  return G.gen(Expr, Trace, Arena.rootBudget());
}

//===----------------------------------------------------------------------===//
// Anti-unification of two accumulated expressions (shard merging)
//===----------------------------------------------------------------------===//

namespace detail {

/// One generalization site of the A/B alignment: a unique (A-subtree,
/// B-subtree) equivalence-class pair that becomes one merged variable.
struct MergeSite {
  PairKey Key;
  const SymExpr *SA;
  const SymExpr *SB;
  uint32_t AssignedIdx = 0;
  bool Assigned = false;
  bool BTime = false; ///< Created when B generalized (vs on B's 1st round).
};

/// Shared state of one expression-vs-expression merge.
struct ExprMerger {
  uint32_t EquivDepth;
  const std::vector<std::pair<bool, double>> &BFirstValues;
  std::vector<MergeSite> Sites; ///< In first-visit traversal order.
  std::unordered_map<PairKey, size_t, PairKeyHash> SiteForPair;

  bool aligned(const SymExpr *SA, const SymExpr *SB) const {
    if (SA->Kind == SymExpr::SEKind::Op && SB->Kind == SymExpr::SEKind::Op)
      return SA->Op == SB->Op && SA->Kids.size() == SB->Kids.size();
    if (SA->Kind == SymExpr::SEKind::Const &&
        SB->Kind == SymExpr::SEKind::Const)
      return bitsOfDouble(SA->ConstVal) == bitsOfDouble(SB->ConstVal);
    return false;
  }

  void collect(const SymExpr *SA, const SymExpr *SB) {
    if (aligned(SA, SB) && SA->Kind == SymExpr::SEKind::Op) {
      for (size_t I = 0; I < SA->Kids.size(); ++I)
        collect(SA->Kids[I].get(), SB->Kids[I].get());
      return;
    }
    if (aligned(SA, SB))
      return; // equal constants stay concrete
    PairKey Key{symFingerprint(SA, EquivDepth), symFingerprint(SB, EquivDepth)};
    if (SiteForPair.count(Key))
      return;
    SiteForPair.emplace(Key, Sites.size());
    Sites.push_back({Key, SA, SB, 0, false, false});
  }

  /// Would sequential processing have generalized this site on B's very
  /// first round (making its index precede every variable B itself
  /// created), or only when B generalized it?
  bool isBTime(const MergeSite &S) const {
    if (S.SB->Kind != SymExpr::SEKind::Var)
      return false; // B ended concrete: the sides simply disagree -> round 1
    if (S.SA->Kind == SymExpr::SEKind::Const) {
      uint32_t J = S.SB->VarIdx;
      if (J < BFirstValues.size() && BFirstValues[J].first &&
          bitsOfDouble(BFirstValues[J].second) !=
              bitsOfDouble(S.SA->ConstVal))
        return false; // disagreed already on B's first observation
      return true;
    }
    if (S.SA->Kind == SymExpr::SEKind::Op)
      return false; // structural mismatch surfaces immediately
    return true;    // A variable splitting against a B variable
  }

  void assignIndices(uint32_t &NextVarIdx, std::vector<MergedVar> &Vars) {
    // Pass 1: A-side variables keep their index (first claim wins, exactly
    // like ReusedThisRound on the incremental path).
    std::unordered_set<uint32_t> ClaimedA;
    for (MergeSite &S : Sites)
      if (S.SA->Kind == SymExpr::SEKind::Var &&
          ClaimedA.insert(S.SA->VarIdx).second) {
        S.AssignedIdx = S.SA->VarIdx;
        S.Assigned = true;
      }
    // Pass 2: new variables. Sites that sequential processing would have
    // generalized on B's first round come first in traversal order; sites
    // created only when B generalized follow in B's creation order (B's
    // variable indices are monotone in creation time).
    std::vector<size_t> Fresh;
    for (size_t I = 0; I < Sites.size(); ++I)
      if (!Sites[I].Assigned) {
        Sites[I].BTime = isBTime(Sites[I]);
        Fresh.push_back(I);
      }
    std::stable_sort(Fresh.begin(), Fresh.end(), [&](size_t X, size_t Y) {
      const MergeSite &SX = Sites[X], &SY = Sites[Y];
      if (SX.BTime != SY.BTime)
        return !SX.BTime; // first-round sites precede B-created sites
      if (SX.BTime && SX.SB->VarIdx != SY.SB->VarIdx)
        return SX.SB->VarIdx < SY.SB->VarIdx;
      return false; // stable: traversal order breaks ties
    });
    for (size_t I : Fresh) {
      Sites[I].AssignedIdx = NextVarIdx++;
      Sites[I].Assigned = true;
    }
    // Report provenance.
    for (const MergeSite &S : Sites) {
      MergedVar V;
      V.Idx = S.AssignedIdx;
      auto Classify = [](const SymExpr *E, MergedVar::Source &Src,
                         uint32_t &Var, double &Const) {
        switch (E->Kind) {
        case SymExpr::SEKind::Var:
          Src = MergedVar::Source::Var;
          Var = E->VarIdx;
          break;
        case SymExpr::SEKind::Const:
          Src = MergedVar::Source::Const;
          Const = E->ConstVal;
          break;
        case SymExpr::SEKind::Op:
          Src = MergedVar::Source::Subtree;
          break;
        }
      };
      Classify(S.SA, V.A, V.AVar, V.AConst);
      Classify(S.SB, V.B, V.BVar, V.BConst);
      V.KeptA = V.A == MergedVar::Source::Var && V.Idx == V.AVar;
      Vars.push_back(V);
    }
  }

  std::unique_ptr<SymExpr> rebuild(const SymExpr *SA, const SymExpr *SB) {
    if (aligned(SA, SB) && SA->Kind == SymExpr::SEKind::Op) {
      auto E = SymExpr::makeOp(SA->Op, SA->Site);
      for (size_t I = 0; I < SA->Kids.size(); ++I)
        E->Kids.push_back(rebuild(SA->Kids[I].get(), SB->Kids[I].get()));
      return E;
    }
    if (aligned(SA, SB))
      return SymExpr::makeConst(SA->ConstVal);
    PairKey Key{symFingerprint(SA, EquivDepth), symFingerprint(SB, EquivDepth)};
    return SymExpr::makeVar(Sites[SiteForPair.at(Key)].AssignedIdx);
  }
};

} // namespace detail

inline std::unique_ptr<SymExpr> antiUnifyExprs(
    const SymExpr *A, const SymExpr *B, uint32_t EquivDepth,
    const std::vector<std::pair<bool, double>> &BFirstValues,
    uint32_t &NextVarIdx, std::vector<MergedVar> &Vars) {
  Vars.clear();
  detail::ExprMerger M{EquivDepth, BFirstValues, {}, {}};
  M.collect(A, B);
  M.assignIndices(NextVarIdx, Vars);
  return M.rebuild(A, B);
}

} // namespace auref
} // namespace herbgrind

#endif // HERBGRIND_TESTS_ANTIUNIFYREFERENCE_H
