//===- tests/test_trace.cpp - Trace and anti-unification tests ------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "trace/SymExpr.h"
#include "trace/TraceNode.h"

#include "support/FloatBits.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <tuple>

using namespace herbgrind;

//===----------------------------------------------------------------------===//
// TraceArena basics
//===----------------------------------------------------------------------===//

TEST(TraceArena, LeafAndNodeLifecycle) {
  TraceArena A;
  TraceNode *L1 = A.leaf(1.0);
  TraceNode *L2 = A.leaf(2.0);
  TraceNode *Kids[2] = {L1, L2};
  TraceNode *N = A.node(Opcode::AddF64, 3, 3.0, Kids, 2);
  EXPECT_EQ(N->Depth, 2u);
  EXPECT_EQ(N->Value, 3.0);
  EXPECT_EQ(A.liveNodes(), 3u);
  // Node holds its own refs; releasing ours keeps kids alive through N.
  A.release(L1);
  A.release(L2);
  EXPECT_EQ(A.liveNodes(), 3u);
  A.release(N);
  EXPECT_EQ(A.liveNodes(), 0u);
}

TEST(TraceArena, SharingKeepsOneCopy) {
  TraceArena A;
  TraceNode *L = A.leaf(5.0);
  TraceNode *Kids[2] = {L, L};
  TraceNode *N = A.node(Opcode::MulF64, 1, 25.0, Kids, 2);
  // x*x shares the kid node.
  EXPECT_EQ(N->Kids[0], N->Kids[1]);
  EXPECT_EQ(A.liveNodes(), 2u);
  A.release(L);
  A.release(N);
  EXPECT_EQ(A.liveNodes(), 0u);
}

TEST(TraceArena, DepthBoundTrimsDeepChains) {
  TraceArena A(/*MaxDepth=*/4);
  TraceNode *Cur = A.leaf(0.0);
  for (int I = 1; I <= 20; ++I) {
    TraceNode *Kids[1] = {Cur};
    TraceNode *Next = A.node(Opcode::SqrtF64, 1, double(I), Kids, 1);
    A.release(Cur);
    Cur = Next;
    EXPECT_LE(Cur->Depth, 4u);
  }
  A.release(Cur);
}

TEST(TraceArena, DepthOneKeepsOnlyTheOperation) {
  TraceArena A(/*MaxDepth=*/1);
  TraceNode *L1 = A.leaf(1.0);
  TraceNode *Kids1[1] = {L1};
  TraceNode *Inner = A.node(Opcode::ExpF64, 1, 2.7, Kids1, 1);
  TraceNode *Kids2[1] = {Inner};
  TraceNode *Outer = A.node(Opcode::LogF64, 2, 1.0, Kids2, 1);
  // Outer's child must be a leaf carrying Inner's value, not Inner itself.
  EXPECT_EQ(Outer->Kids[0]->Kind, TraceNode::TNKind::Leaf);
  EXPECT_EQ(Outer->Kids[0]->Value, 2.7);
  A.release(L1);
  A.release(Inner);
  A.release(Outer);
}

TEST(TraceArena, EquivalenceRespectsValuesAndStructure) {
  TraceArena A;
  TraceNode *L1 = A.leaf(1.0);
  TraceNode *L2 = A.leaf(1.0);
  TraceNode *L3 = A.leaf(2.0);
  EXPECT_TRUE(A.equivalent(L1, L2));
  EXPECT_FALSE(A.equivalent(L1, L3));
  TraceNode *KidsA[2] = {L1, L3};
  TraceNode *KidsB[2] = {L2, L3};
  TraceNode *NA = A.node(Opcode::AddF64, 1, 3.0, KidsA, 2);
  TraceNode *NB = A.node(Opcode::AddF64, 9, 3.0, KidsB, 2);
  TraceNode *NC = A.node(Opcode::SubF64, 9, 3.0, KidsB, 2);
  EXPECT_TRUE(A.equivalent(NA, NB)); // site does not matter
  EXPECT_FALSE(A.equivalent(NA, NC));
  for (TraceNode *N : {L1, L2, L3, NA, NB, NC})
    A.release(N);
}

//===----------------------------------------------------------------------===//
// Symbolize and anti-unify
//===----------------------------------------------------------------------===//

namespace {
struct AUFixture : ::testing::Test {
  TraceArena A{64, 5};
  uint32_t NextVar = 0;
  AntiUnifyScratch Scratch;
  const std::vector<VarBinding> &Bindings = Scratch.Bindings;

  /// trace of (x + 1) for a given x value.
  TraceNode *addOne(double X) {
    TraceNode *L = A.leaf(X);
    TraceNode *One = A.leaf(1.0);
    TraceNode *Kids[2] = {L, One};
    TraceNode *N = A.node(Opcode::AddF64, 11, X + 1, Kids, 2);
    A.release(L);
    A.release(One);
    return N;
  }
};
} // namespace

TEST_F(AUFixture, FirstTraceBecomesConstants) {
  TraceNode *T = addOne(2.0);
  auto E = symbolize(A, T);
  EXPECT_EQ(E->fpcoreBody(), "(+ 2 1)");
  EXPECT_EQ(E->numVars(), 0u);
  A.release(T);
}

TEST_F(AUFixture, VaryingLeafBecomesVariableConstantStays) {
  TraceNode *T1 = addOne(2.0);
  auto E = symbolize(A, T1);
  TraceNode *T2 = addOne(3.0);
  antiUnify(A, *E, T2, NextVar, Scratch);
  EXPECT_EQ(E->fpcoreBody(), "(+ x 1)");
  ASSERT_EQ(Bindings.size(), 1u);
  EXPECT_EQ(Bindings[0].Idx, 0u);
  EXPECT_EQ(Bindings[0].Value, 3.0);
  // Third round: variable stays stable.
  TraceNode *T3 = addOne(5.0);
  antiUnify(A, *E, T3, NextVar, Scratch);
  EXPECT_EQ(E->fpcoreBody(), "(+ x 1)");
  ASSERT_EQ(Bindings.size(), 1u);
  EXPECT_EQ(Bindings[0].Value, 5.0);
  A.release(T1);
  A.release(T2);
  A.release(T3);
}

TEST_F(AUFixture, EquivalentSubtreesShareOneVariable) {
  // x*x: both kids are the same value each round => one variable.
  auto Square = [&](double X) {
    TraceNode *L = A.leaf(X);
    TraceNode *Kids[2] = {L, L};
    TraceNode *N = A.node(Opcode::MulF64, 3, X * X, Kids, 2);
    A.release(L);
    return N;
  };
  TraceNode *T1 = Square(2.0);
  auto E = symbolize(A, T1);
  TraceNode *T2 = Square(3.0);
  antiUnify(A, *E, T2, NextVar, Scratch);
  EXPECT_EQ(E->fpcoreBody(), "(* x x)");
  EXPECT_EQ(E->numVars(), 1u);
  A.release(T1);
  A.release(T2);
}

TEST_F(AUFixture, IndependentLeavesGetDistinctVariables) {
  auto Mul = [&](double X, double Y) {
    TraceNode *L1 = A.leaf(X);
    TraceNode *L2 = A.leaf(Y);
    TraceNode *Kids[2] = {L1, L2};
    TraceNode *N = A.node(Opcode::MulF64, 3, X * Y, Kids, 2);
    A.release(L1);
    A.release(L2);
    return N;
  };
  TraceNode *T1 = Mul(2.0, 7.0);
  auto E = symbolize(A, T1);
  TraceNode *T2 = Mul(3.0, 8.0);
  antiUnify(A, *E, T2, NextVar, Scratch);
  EXPECT_EQ(E->fpcoreBody(), "(* x y)");
  EXPECT_EQ(E->numVars(), 2u);
  A.release(T1);
  A.release(T2);
}

TEST_F(AUFixture, StructuralMismatchGeneralizesToVariable) {
  // (x + 1) vs (sqrt(y) + 1): first kid generalizes to a variable.
  TraceNode *T1 = addOne(2.0);
  auto E = symbolize(A, T1);
  TraceNode *L = A.leaf(9.0);
  TraceNode *SqrtKids[1] = {L};
  TraceNode *Sq = A.node(Opcode::SqrtF64, 5, 3.0, SqrtKids, 1);
  TraceNode *One = A.leaf(1.0);
  TraceNode *AddKids[2] = {Sq, One};
  TraceNode *T2 = A.node(Opcode::AddF64, 11, 4.0, AddKids, 2);
  antiUnify(A, *E, T2, NextVar, Scratch);
  EXPECT_EQ(E->fpcoreBody(), "(+ x 1)");
  // The variable bound the sqrt subtree's VALUE this round.
  ASSERT_EQ(Bindings.size(), 1u);
  EXPECT_EQ(Bindings[0].Value, 3.0);
  for (TraceNode *N : {T1, L, Sq, One, T2})
    A.release(N);
}

TEST_F(AUFixture, DifferentOpsCollapseToVariable) {
  TraceNode *T1 = addOne(2.0);
  auto E = symbolize(A, T1);
  TraceNode *L1 = A.leaf(2.0);
  TraceNode *L2 = A.leaf(1.0);
  TraceNode *Kids[2] = {L1, L2};
  TraceNode *T2 = A.node(Opcode::SubF64, 11, 1.0, Kids, 2);
  antiUnify(A, *E, T2, NextVar, Scratch);
  EXPECT_EQ(E->Kind, SymExpr::SEKind::Var);
  for (TraceNode *N : {T1, L1, L2, T2})
    A.release(N);
}

TEST_F(AUFixture, SplitVariablesWhenValuesDiverge) {
  // Rounds 1-2 make (* x x); round 3 has different kid values, so the
  // variable must split.
  auto Mul = [&](double X, double Y) {
    TraceNode *L1 = A.leaf(X);
    TraceNode *L2 = A.leaf(Y);
    TraceNode *Kids[2] = {L1, L2};
    TraceNode *N = A.node(Opcode::MulF64, 3, X * Y, Kids, 2);
    A.release(L1);
    A.release(L2);
    return N;
  };
  TraceNode *T1 = Mul(2.0, 2.0);
  auto E = symbolize(A, T1);
  TraceNode *T2 = Mul(3.0, 3.0);
  antiUnify(A, *E, T2, NextVar, Scratch);
  EXPECT_EQ(E->numVars(), 1u);
  TraceNode *T3 = Mul(4.0, 5.0);
  antiUnify(A, *E, T3, NextVar, Scratch);
  EXPECT_EQ(E->numVars(), 2u);
  EXPECT_EQ(E->Kids[0]->Kind, SymExpr::SEKind::Var);
  EXPECT_EQ(E->Kids[1]->Kind, SymExpr::SEKind::Var);
  EXPECT_NE(E->Kids[0]->VarIdx, E->Kids[1]->VarIdx);
  for (TraceNode *N : {T1, T2, T3})
    A.release(N);
}

TEST_F(AUFixture, GeneralizationIsIdempotentOnRepeatedTraces) {
  TraceNode *T1 = addOne(2.0);
  auto E2 = symbolize(A, T1);
  TraceNode *T2 = addOne(3.0);
  antiUnify(A, *E2, T2, NextVar, Scratch);
  std::string Stable = E2->fpcoreBody();
  for (int I = 0; I < 5; ++I) {
    TraceNode *T = addOne(3.0);
    antiUnify(A, *E2, T, NextVar, Scratch);
    EXPECT_EQ(E2->fpcoreBody(), Stable);
    A.release(T);
  }
  A.release(T1);
  A.release(T2);
}

TEST(SymExpr, OpCountAndPrinting) {
  // (- (sqrt (+ (* x x) (* y y))) x): the paper's plotter root cause.
  auto X = SymExpr::makeVar(0);
  auto Y = SymExpr::makeVar(1);
  auto Sq1 = SymExpr::makeOp(Opcode::MulF64, 1);
  Sq1->Kids.push_back(X->clone());
  Sq1->Kids.push_back(X->clone());
  auto Sq2 = SymExpr::makeOp(Opcode::MulF64, 2);
  Sq2->Kids.push_back(Y->clone());
  Sq2->Kids.push_back(Y->clone());
  auto Add = SymExpr::makeOp(Opcode::AddF64, 3);
  Add->Kids.push_back(std::move(Sq1));
  Add->Kids.push_back(std::move(Sq2));
  auto Sqrt = SymExpr::makeOp(Opcode::SqrtF64, 4);
  Sqrt->Kids.push_back(std::move(Add));
  auto Sub = SymExpr::makeOp(Opcode::SubF64, 5);
  Sub->Kids.push_back(std::move(Sqrt));
  Sub->Kids.push_back(X->clone());
  EXPECT_EQ(Sub->fpcoreBody(), "(- (sqrt (+ (* x x) (* y y))) x)");
  EXPECT_EQ(Sub->opCount(), 5u);
  EXPECT_EQ(Sub->numVars(), 2u);
}

//===----------------------------------------------------------------------===//
// Depth-budgeted views against the eager trim
//===----------------------------------------------------------------------===//

namespace {

/// The eager construction the depth-budgeted views replaced: every kid
/// deeper than MaxDepth-1 is rebuilt at construction as a trimmed copy,
/// memoized per (node, depth). Nodes live until the arena dies, so a
/// stored tree is exactly what readers used to see, and reading it with
/// an unbounded budget is what the readers used to do.
class EagerArena {
public:
  explicit EagerArena(uint32_t MaxDepth) : MaxDepth(MaxDepth ? MaxDepth : 1) {}

  TraceNode *leaf(double Value) {
    TraceNode *N = make();
    N->Value = Value;
    return N;
  }

  TraceNode *node(Opcode Op, uint32_t Site, double Value,
                  TraceNode *const *Kids, unsigned NumKids) {
    TraceNode *N = make();
    N->Kind = TraceNode::TNKind::Op;
    N->Op = Op;
    N->Site = Site;
    N->Value = Value;
    N->NumKids = static_cast<uint8_t>(NumKids);
    uint32_t Depth = 1;
    for (unsigned I = 0; I < NumKids; ++I) {
      TraceNode *Kid = MaxDepth <= 1 ? leaf(Kids[I]->Value)
                                     : trim(Kids[I], MaxDepth - 1);
      N->Kids[I] = Kid;
      Depth = std::max(Depth, Kid->Depth + 1);
    }
    N->Depth = Depth;
    return N;
  }

private:
  TraceNode *make() {
    Nodes.push_back(std::make_unique<TraceNode>());
    return Nodes.back().get();
  }

  TraceNode *trim(TraceNode *N, uint32_t ToDepth) {
    if (N->Depth <= ToDepth)
      return N;
    auto It = Cache.find({N, ToDepth});
    if (It != Cache.end())
      return It->second;
    TraceNode *Result;
    if (ToDepth == 1 || N->Kind == TraceNode::TNKind::Leaf) {
      Result = leaf(N->Value);
    } else {
      Result = make();
      Result->Kind = TraceNode::TNKind::Op;
      Result->Op = N->Op;
      Result->Site = N->Site;
      Result->Value = N->Value;
      Result->NumKids = N->NumKids;
      uint32_t Depth = 1;
      for (unsigned I = 0; I < N->NumKids; ++I) {
        Result->Kids[I] = trim(N->Kids[I], ToDepth - 1);
        Depth = std::max(Depth, Result->Kids[I]->Depth + 1);
      }
      Result->Depth = Depth;
    }
    Cache[{N, ToDepth}] = Result;
    return Result;
  }

  uint32_t MaxDepth;
  std::map<std::pair<TraceNode *, uint32_t>, TraceNode *> Cache;
  std::vector<std::unique_ptr<TraceNode>> Nodes;
};

/// The fingerprint walk the readers used on eager trees.
uint64_t eagerFingerprint(const TraceNode *N, uint32_t DepthLeft) {
  auto Mix = [](uint64_t H, uint64_t X) {
    H ^= X + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
    return H;
  };
  uint64_t H = N->Kind == TraceNode::TNKind::Leaf
                   ? Mix(0x1eaf, bitsOfDouble(N->Value))
                   : Mix(0x0b5, static_cast<uint64_t>(N->Op));
  if (N->Kind == TraceNode::TNKind::Op) {
    if (DepthLeft == 0)
      return Mix(H, bitsOfDouble(N->Value));
    for (unsigned I = 0; I < N->NumKids; ++I)
      H = Mix(H, eagerFingerprint(N->Kids[I], DepthLeft - 1));
  }
  return H;
}

/// One statement of a loop body: Dst = Op(Args...), where an argument is
/// a slot index or, when negative, a fresh leaf.
struct Stmt {
  Opcode Op;
  unsigned NumKids;
  int Args[3];
  unsigned Dst;
};

double stmtValue(const Stmt &S, const double *Kids, double Fresh,
                 bool Coarse) {
  double V;
  switch (S.Op) {
  case Opcode::AddF64:
    V = Kids[0] + Kids[1];
    break;
  case Opcode::SubF64:
    V = Kids[0] - Kids[1];
    break;
  case Opcode::MulF64:
    V = Kids[0] * Kids[1];
    break;
  case Opcode::SqrtF64:
    V = std::sqrt(std::fabs(Kids[0]));
    break;
  case Opcode::MinF64:
    V = std::min(Kids[0], Kids[1]);
    break;
  case Opcode::MaxF64:
    V = std::max(Kids[0], Kids[1]);
    break;
  default:
    V = Kids[0] * Kids[1] + Kids[2];
    break;
  }
  // Keep values finite and varied; a repeat is fine, it is what makes
  // anti-unification keep constants. Coarse values repeat often, so that
  // subtrees which differ only below the depth bound share a variable.
  if (!std::isfinite(V) || std::fabs(V) >= 1e6)
    V = Fresh;
  return Coarse ? std::fmod(std::round(V), 3.0) : V;
}

/// Runs \p Body \p Iters times on both arenas and checks that every
/// reader sees the same thing: symbolize and the per-site anti-unification
/// results (rendered, with bindings and promotions), and the fingerprint
/// at every position of every new trace's view. Returns the number of
/// trimmed copies the run made, so callers can check trimming happened.
size_t checkViewsMatchEager(const std::vector<Stmt> &Body, unsigned NumSlots,
                            unsigned Iters, uint32_t MaxDepth,
                            uint32_t EquivDepth, uint64_t Seed,
                            bool Coarse = false) {
  SCOPED_TRACE(::testing::Message()
               << "MaxDepth " << MaxDepth << " EquivDepth " << EquivDepth
               << " seed " << Seed << (Coarse ? " coarse" : ""));
  TraceArena A(MaxDepth, EquivDepth);
  EagerArena Ref(MaxDepth);
  // Reads the eager trees with a budget they never reach.
  TraceArena Wide(1u << 20, EquivDepth);
  Rng R(Seed);
  const double Leaves[] = {0.5, 1.0, 2.0, 3.0};

  std::vector<TraceNode *> Slots(NumSlots), RefSlots(NumSlots);
  for (unsigned I = 0; I < NumSlots; ++I) {
    double V = 1.0 + I;
    Slots[I] = A.leaf(V);
    RefSlots[I] = Ref.leaf(V);
  }
  struct SiteState {
    std::unique_ptr<SymExpr> Expr, RefExpr;
    uint32_t Next = 0, RefNext = 0;
  };
  std::vector<SiteState> Sites(Body.size());
  AntiUnifyScratch S1, S2;
  const std::vector<VarBinding> &B1 = S1.Bindings, &B2 = S2.Bindings;
  const std::vector<Promotion> &P1 = S1.Promotions, &P2 = S2.Promotions;
  size_t Made = 0; // nodes and leaves this function asked for

  for (unsigned It = 0; It < Iters; ++It) {
    for (size_t SI = 0; SI < Body.size(); ++SI) {
      const Stmt &S = Body[SI];
      TraceNode *Kids[3], *RefKids[3];
      double KidVals[3];
      bool FreshKid[3] = {false, false, false};
      for (unsigned K = 0; K < S.NumKids; ++K) {
        if (S.Args[K] >= 0) {
          Kids[K] = Slots[S.Args[K]];
          RefKids[K] = RefSlots[S.Args[K]];
        } else {
          double V = Leaves[R.nextBelow(4)];
          Kids[K] = A.leaf(V);
          RefKids[K] = Ref.leaf(V);
          FreshKid[K] = true;
        }
        KidVals[K] = Kids[K]->Value;
      }
      double V = stmtValue(S, KidVals, 1.0 + It % 7, Coarse);
      uint32_t Site = static_cast<uint32_t>(SI);
      TraceNode *T = A.node(S.Op, Site, V, Kids, S.NumKids);
      Made += 1 + std::count(FreshKid, FreshKid + S.NumKids, true);
      TraceNode *RT = Ref.node(S.Op, Site, V, RefKids, S.NumKids);
      for (unsigned K = 0; K < S.NumKids; ++K)
        if (FreshKid[K])
          A.release(Kids[K]);
      EXPECT_EQ(T->Depth, RT->Depth);

      SiteState &St = Sites[SI];
      if (!St.Expr) {
        St.Expr = symbolize(A, T);
        St.RefExpr = symbolize(Wide, RT);
      } else {
        antiUnify(A, *St.Expr, T, St.Next, S1);
        antiUnify(Wide, *St.RefExpr, RT, St.RefNext, S2);
        EXPECT_EQ(B1.size(), B2.size());
        for (size_t I = 0; I < std::min(B1.size(), B2.size()); ++I) {
          EXPECT_EQ(B1[I].Idx, B2[I].Idx);
          EXPECT_EQ(bitsOfDouble(B1[I].Value), bitsOfDouble(B2[I].Value));
        }
        EXPECT_EQ(P1.size(), P2.size());
        for (size_t I = 0; I < std::min(P1.size(), P2.size()); ++I) {
          EXPECT_EQ(P1[I].Idx, P2[I].Idx);
          EXPECT_EQ(bitsOfDouble(P1[I].OldValue),
                    bitsOfDouble(P2[I].OldValue));
        }
      }
      EXPECT_EQ(St.Expr->fpcoreBody(), St.RefExpr->fpcoreBody());

      // Walk the view and the eager tree in lockstep; the visited set
      // keeps shared subtrees from being walked twice.
      std::set<std::tuple<TraceNode *, uint32_t, TraceNode *>> Seen;
      std::vector<std::tuple<TraceNode *, uint32_t, TraceNode *>> Work{
          {T, A.rootBudget(), RT}};
      while (!Work.empty()) {
        auto [N, Budget, RN] = Work.back();
        Work.pop_back();
        if (!Seen.insert({N, Budget, RN}).second)
          continue;
        bool Leaf = N->leafAt(Budget);
        EXPECT_EQ(Leaf, RN->Kind == TraceNode::TNKind::Leaf);
        EXPECT_EQ(bitsOfDouble(N->Value), bitsOfDouble(RN->Value));
        uint64_t Expected = eagerFingerprint(RN, EquivDepth);
        EXPECT_EQ(A.fingerprint(N, Budget), Expected);
        EXPECT_EQ(Wide.fingerprint(RN, Wide.rootBudget()), Expected);
        if (Leaf || RN->Kind == TraceNode::TNKind::Leaf || N->Op != RN->Op ||
            N->NumKids != RN->NumKids) {
          EXPECT_EQ(Leaf, RN->Kind == TraceNode::TNKind::Leaf);
          continue;
        }
        for (unsigned K = 0; K < N->NumKids; ++K)
          Work.push_back({N->Kids[K], Budget - 1, RN->Kids[K]});
      }

      A.release(Slots[S.Dst]);
      Slots[S.Dst] = T;
      RefSlots[S.Dst] = RT;
    }
  }
  size_t Copies = A.totalAllocated() - NumSlots - Made;
  for (TraceNode *N : Slots)
    A.release(N);
  EXPECT_EQ(A.liveNodes(), 0u);
  return Copies;
}

/// A random loop body over \p NumSlots slots: binary and ternary ops mix
/// slots, repeat one slot (x*x sharing) and take fresh leaves.
std::vector<Stmt> randomBody(Rng &R, unsigned NumSlots, unsigned Len) {
  const Opcode Ops[] = {Opcode::AddF64, Opcode::SubF64, Opcode::MulF64,
                        Opcode::SqrtF64, Opcode::FmaF64};
  std::vector<Stmt> Body;
  for (unsigned I = 0; I < Len; ++I) {
    Stmt S;
    S.Op = Ops[R.nextBelow(5)];
    S.NumKids = S.Op == Opcode::SqrtF64 ? 1 : S.Op == Opcode::FmaF64 ? 3 : 2;
    for (unsigned K = 0; K < 3; ++K)
      S.Args[K] = R.nextBelow(4) == 0 ? -1 : static_cast<int>(R.nextBelow(NumSlots));
    if (S.NumKids == 2 && R.nextBelow(4) == 0)
      S.Args[1] = S.Args[0]; // x*x: one kid shared twice
    S.Dst = static_cast<unsigned>(R.nextBelow(NumSlots));
    Body.push_back(S);
  }
  return Body;
}

} // namespace

TEST(TraceViews, RandomDagsMatchEagerTrim) {
  for (uint32_t MaxDepth : {1u, 2u, 3u, 5u, 24u})
    for (uint32_t EquivDepth : {1u, 5u}) {
      size_t Copies = 0;
      for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
        Rng R(Seed * 7919 + MaxDepth);
        std::vector<Stmt> Body = randomBody(R, 3, 3);
        for (bool Coarse : {false, true})
          Copies += checkViewsMatchEager(Body, 3, MaxDepth == 24 ? 60 : 120,
                                         MaxDepth, EquivDepth, Seed, Coarse);
      }
      EXPECT_GT(Copies, 0u) << "no trim at MaxDepth " << MaxDepth;
    }
}

TEST(TraceViews, LoopShapesMatchEagerTrim) {
  // x = x*x; s = s + fresh; the euler-oscillator's coupled update
  // x' = x + h*v, v' = v - h*x (h a fresh constant leaf); and min(s,s) *
  // max(s,s), whose kids differ only in ops the depth bound can hide.
  const std::vector<Stmt> Square = {{Opcode::MulF64, 2, {0, 0, 0}, 0}};
  const std::vector<Stmt> Accumulate = {{Opcode::AddF64, 2, {0, -1, 0}, 0}};
  const std::vector<Stmt> Coupled = {
      {Opcode::MulF64, 2, {-1, 1, 0}, 2}, {Opcode::MulF64, 2, {-1, 0, 0}, 3},
      {Opcode::AddF64, 2, {0, 2, 0}, 0},  {Opcode::SubF64, 2, {1, 3, 0}, 1}};
  const std::vector<Stmt> HiddenOps = {{Opcode::AddF64, 2, {0, -1, 0}, 0},
                                       {Opcode::MinF64, 2, {0, 0, 0}, 1},
                                       {Opcode::MaxF64, 2, {0, 0, 0}, 2},
                                       {Opcode::MulF64, 2, {1, 2, 0}, 3}};
  for (uint32_t MaxDepth : {1u, 2u, 3u, 5u, 24u})
    for (uint32_t EquivDepth : {1u, 5u}) {
      EXPECT_GT(
          checkViewsMatchEager(HiddenOps, 4, 100, MaxDepth, EquivDepth, 14),
          0u);
      EXPECT_GT(checkViewsMatchEager(Square, 1, 100, MaxDepth, EquivDepth, 11),
                0u);
      EXPECT_GT(
          checkViewsMatchEager(Accumulate, 1, 100, MaxDepth, EquivDepth, 12),
          0u);
      EXPECT_GT(checkViewsMatchEager(Coupled, 4, 60, MaxDepth, EquivDepth, 13),
                0u);
    }
}

//===----------------------------------------------------------------------===//
// Bounded memory however long a loop runs
//===----------------------------------------------------------------------===//

namespace {

/// liveNodes() high watermarks of one loop run: between statements, and
/// inside a statement, while the overwritten trace is still held.
struct Watermarks {
  size_t Between = 0, Within = 0;
  bool operator==(const Watermarks &O) const {
    return Between == O.Between && Within == O.Within;
  }
};

/// Runs \p Body for \p Iters iterations holding each slot's trace the way
/// a shadow value does. The arena must drain and reset afterwards.
Watermarks liveHighWatermarks(const std::vector<Stmt> &Body,
                              unsigned NumSlots, unsigned Iters,
                              uint32_t MaxDepth) {
  TraceArena A(MaxDepth);
  std::vector<TraceNode *> Slots(NumSlots);
  for (unsigned I = 0; I < NumSlots; ++I)
    Slots[I] = A.leaf(1.0 + I);
  Watermarks High;
  for (unsigned It = 0; It < Iters; ++It) {
    for (const Stmt &S : Body) {
      TraceNode *Kids[3];
      for (unsigned K = 0; K < S.NumKids; ++K)
        Kids[K] = S.Args[K] >= 0 ? Slots[S.Args[K]] : A.leaf(It * 0.25);
      TraceNode *T = A.node(S.Op, 0, It * 0.5, Kids, S.NumKids);
      for (unsigned K = 0; K < S.NumKids; ++K)
        if (S.Args[K] < 0)
          A.release(Kids[K]);
      High.Within = std::max(High.Within, A.liveNodes());
      A.release(Slots[S.Dst]);
      Slots[S.Dst] = T;
      High.Between = std::max(High.Between, A.liveNodes());
    }
  }
  for (TraceNode *N : Slots)
    A.release(N);
  EXPECT_EQ(A.liveNodes(), 0u);
  A.resetForReuse(); // aborts unless the pool drained
  return High;
}

} // namespace

TEST(TraceViews, LiveNodesStayBoundedInLongLoops) {
  const std::vector<Stmt> Unary = {{Opcode::SqrtF64, 1, {0, 0, 0}, 0}};
  const std::vector<Stmt> Binary = {{Opcode::AddF64, 2, {0, -1, 0}, 0}};
  const std::vector<Stmt> Square = {{Opcode::MulF64, 2, {0, 0, 0}, 0}};
  const std::vector<Stmt> Coupled = {
      {Opcode::MulF64, 2, {-1, 1, 0}, 2}, {Opcode::MulF64, 2, {-1, 0, 0}, 3},
      {Opcode::AddF64, 2, {0, 2, 0}, 0},  {Opcode::SubF64, 2, {1, 3, 0}, 1}};
  struct Shape {
    const char *Name;
    const std::vector<Stmt> &Body;
    unsigned Slots;
  };
  for (uint32_t MaxDepth : {4u, 24u})
    for (const Shape &S : {Shape{"unary chain", Unary, 1},
                           Shape{"binary chain", Binary, 1},
                           Shape{"x*x", Square, 1},
                           Shape{"coupled pair", Coupled, 4}}) {
      SCOPED_TRACE(::testing::Message() << S.Name << " at MaxDepth "
                                        << MaxDepth);
      Watermarks Short = liveHighWatermarks(S.Body, S.Slots, 1000, MaxDepth);
      Watermarks Long = liveHighWatermarks(S.Body, S.Slots, 100000, MaxDepth);
      EXPECT_TRUE(Short == Long);
      std::printf("%s, MaxDepth %u: at most %zu live nodes between "
                  "statements, %zu within one\n",
                  S.Name, MaxDepth, Long.Between, Long.Within);
      // A chain holds at most 2*MaxDepth stored levels; the statement that
      // trims it briefly holds the old chain and the MaxDepth-1 copy too.
      if (&S.Body == &Unary) {
        EXPECT_LE(Long.Between, 2 * MaxDepth + 2);
        EXPECT_LE(Long.Within, 3 * MaxDepth + 2);
      }
    }
}
