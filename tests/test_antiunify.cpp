//===- tests/test_antiunify.cpp - In-place anti-unification vs oracle -----===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// Differential tests of the in-place generalizer: every op's stream of
// concrete traces is fed both to antiUnify (which rewrites the record's
// expression in place) and to the rebuilding implementation it replaced
// (tests/AntiUnifyReference.h). After every round the two must agree on
// the expression -- every node's kind, opcode, constant bits, variable
// index and Site -- on the round's bindings and promotions, and on the
// record's next variable index. The same holds for shard merges
// (antiUnifyExprs), down to the merged-variable provenance list.
//
// Trace streams come from random FPCore cores, the whole compilable
// corpus (its loops give deep, depth-bounded chains), the native demo
// kernels' arithmetic and long loop chains.
//
//===----------------------------------------------------------------------===//

#include "AntiUnifyReference.h"
#include "DiffHarness.h"

#include "fpcore/Compile.h"
#include "fpcore/Corpus.h"
#include "ir/Interpreter.h"
#include "support/FloatBits.h"
#include "support/Rng.h"
#include "trace/SymExpr.h"
#include "trace/TraceNode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace herbgrind;

namespace {

/// Empty when \p A and \p B are the same tree field for field, else the
/// path and the first difference.
std::string treeDiff(const SymExpr &A, const SymExpr &B,
                     const std::string &Path = "root") {
  if (A.Kind != B.Kind)
    return Path + ": kind";
  if (A.Op != B.Op)
    return Path + ": opcode";
  if (bitsOfDouble(A.ConstVal) != bitsOfDouble(B.ConstVal))
    return Path + ": constant";
  if (A.VarIdx != B.VarIdx)
    return Path + ": variable index";
  if (A.Site != B.Site)
    return Path + ": site";
  if (A.Kids.size() != B.Kids.size())
    return Path + ": arity";
  for (size_t I = 0; I < A.Kids.size(); ++I) {
    std::string D =
        treeDiff(*A.Kids[I], *B.Kids[I], Path + "/" + std::to_string(I));
    if (!D.empty())
      return D;
  }
  return "";
}

/// Per-variable {known, first observed value} of one accumulated site,
/// the shape OpRecord::mergeFrom derives from its input summaries.
using FirstValues = std::vector<std::pair<bool, double>>;

void noteFirst(FirstValues &First, uint32_t Idx, double V) {
  if (First.size() <= Idx)
    First.resize(Idx + 1, {false, 0.0});
  if (!First[Idx].first)
    First[Idx] = {!std::isnan(V), V};
}

/// Every site's expression under both implementations. observe() feeds
/// one op's trace to both and compares them.
struct DualSites {
  TraceArena &Arena;
  struct Site {
    std::unique_ptr<SymExpr> Expr, Ref;
    uint32_t Next = 0, RefNext = 0;
    FirstValues First;
  };
  std::map<uint32_t, Site> Sites;
  AntiUnifyScratch Scratch;
  std::vector<VarBinding> RefBindings;
  std::vector<Promotion> RefPromotions;
  size_t Rounds = 0, Bindings = 0, Promotions = 0, Mismatches = 0;

  explicit DualSites(TraceArena &A) : Arena(A) {}

  void observe(uint32_t Pc, TraceNode *T) {
    Site &S = Sites[Pc];
    if (!S.Expr) {
      S.Expr = symbolize(Arena, T);
      S.Ref = symbolize(Arena, T);
      return;
    }
    ++Rounds;
    antiUnify(Arena, *S.Expr, T, S.Next, Scratch);
    S.Ref = auref::antiUnify(Arena, S.Ref.get(), T, S.RefNext, RefBindings,
                             &RefPromotions);
    Bindings += RefBindings.size();
    Promotions += RefPromotions.size();
    for (const Promotion &P : RefPromotions)
      noteFirst(S.First, P.Idx, P.OldValue);
    for (const VarBinding &B : RefBindings)
      noteFirst(S.First, B.Idx, B.Value);
    std::string Why = roundDiff(S);
    // One broken site repeats itself every round; keep the log readable.
    if (!Why.empty() && Mismatches++ < 5)
      ADD_FAILURE() << "site " << Pc << " round " << Rounds << ": " << Why
                    << " (reference " << S.Ref->fpcoreBody() << ")";
  }

  /// Empty when the last round left both implementations in the same
  /// state, else the first difference.
  std::string roundDiff(const Site &S) const {
    std::string D = treeDiff(*S.Expr, *S.Ref);
    if (!D.empty())
      return "expression " + S.Expr->fpcoreBody() + " differs at " + D;
    if (S.Next != S.RefNext)
      return "next variable index";
    const std::vector<VarBinding> &B = Scratch.Bindings;
    if (B.size() != RefBindings.size())
      return "binding count";
    for (size_t I = 0; I < B.size(); ++I)
      if (B[I].Idx != RefBindings[I].Idx ||
          bitsOfDouble(B[I].Value) != bitsOfDouble(RefBindings[I].Value))
        return "binding " + std::to_string(I);
    const std::vector<Promotion> &P = Scratch.Promotions;
    if (P.size() != RefPromotions.size())
      return "promotion count";
    for (size_t I = 0; I < P.size(); ++I)
      if (P[I].Idx != RefPromotions[I].Idx ||
          bitsOfDouble(P[I].OldValue) !=
              bitsOfDouble(RefPromotions[I].OldValue))
        return "promotion " + std::to_string(I);
    return "";
  }
};

double valueAsDouble(const Value &V) {
  return V.Ty == ValueType::F32 ? static_cast<double>(V.F32) : V.F64;
}

/// Runs \p P on \p In with the concrete interpreter, building a trace for
/// every scalar float op from its operands' traces (temps without one --
/// constants, inputs -- read as leaves), and feeds each to \p D under its
/// pc.
void traceRun(const Program &P, const std::vector<double> &In, DualSites &D,
              uint64_t MaxSteps = 20000) {
  TraceArena &A = D.Arena;
  MachineState St(P, In);
  std::vector<TraceNode *> Traces(P.numTemps(), nullptr);
  auto SetTrace = [&](uint32_t Temp, TraceNode *T) {
    if (Traces[Temp])
      A.release(Traces[Temp]);
    Traces[Temp] = T;
  };
  while (St.Steps < MaxSteps) {
    uint32_t Pc = St.PC;
    const Statement &S = P.stmt(Pc);
    Value ArgVals[3];
    for (unsigned I = 0; I < S.NumArgs; ++I)
      ArgVals[I] = St.Temps[S.Args[I]];
    if (!stepConcrete(P, St))
      break;
    if (!S.hasDst())
      continue;
    const OpInfo &Info = opInfo(S.Op);
    if (S.Kind == StmtKind::Copy) {
      TraceNode *T = Traces[S.Args[0]];
      if (T)
        A.retain(T);
      SetTrace(S.Dst, T);
    } else if (S.Kind == StmtKind::Op && Info.IsFloatOp && !Info.IsSIMD) {
      TraceNode *Kids[3];
      bool Fresh[3] = {false, false, false};
      for (unsigned I = 0; I < S.NumArgs; ++I) {
        Kids[I] = Traces[S.Args[I]];
        if (!Kids[I]) {
          Kids[I] = A.leaf(valueAsDouble(ArgVals[I]));
          Fresh[I] = true;
        }
      }
      TraceNode *T = A.node(S.Op, Pc, valueAsDouble(St.Temps[S.Dst]), Kids,
                            S.NumArgs);
      for (unsigned I = 0; I < S.NumArgs; ++I)
        if (Fresh[I])
          A.release(Kids[I]);
      D.observe(Pc, T);
      SetTrace(S.Dst, T);
    } else {
      SetTrace(S.Dst, nullptr);
    }
  }
  for (TraceNode *T : Traces)
    if (T)
      A.release(T);
}

/// Sampled inputs that often repeat small values, so leaves stay constant
/// for a while, equal subtrees share variables and then split. \p Coarse
/// draws from {1, 2} three times in four, so short shards keep constants
/// that the next shard generalizes.
std::vector<std::vector<double>> mixedInputs(const fpcore::Core &C,
                                             unsigned Count, uint64_t Seed,
                                             bool Coarse) {
  Rng R(Seed);
  std::vector<fpcore::VarRange> Ranges = fpcore::sampleRanges(C);
  const double Small[] = {1.0, 2.0, 0.5, 3.0};
  std::vector<std::vector<double>> Sets;
  for (unsigned I = 0; I < Count; ++I) {
    std::vector<double> In;
    for (const fpcore::VarRange &VR : Ranges)
      In.push_back(Coarse ? (R.chance(3, 4) ? Small[R.nextBelow(2)]
                                            : R.betweenOrdinals(VR.Lo, VR.Hi))
                          : (R.chance(1, 2) ? Small[R.nextBelow(4)]
                                            : R.betweenOrdinals(VR.Lo, VR.Hi)));
    Sets.push_back(std::move(In));
  }
  return Sets;
}

/// (MaxDepth, EquivDepth) pairs: the default, a shallow bound that cuts
/// most traces, and the floor.
const std::pair<uint32_t, uint32_t> Bounds[] = {{24, 5}, {4, 1}, {2, 2}};

/// Merges each site's per-shard expressions in shard order with both
/// implementations, comparing after every merge. Returns the number of
/// merged variables seen.
size_t checkMerges(std::vector<std::unique_ptr<DualSites>> &Shards,
                   uint32_t EquivDepth) {
  size_t MergedVars = 0;
  std::map<uint32_t, std::pair<std::unique_ptr<SymExpr>, uint32_t>> Acc;
  for (auto &Shard : Shards) {
    for (auto &[Pc, S] : Shard->Sites) {
      auto It = Acc.find(Pc);
      if (It == Acc.end()) {
        Acc.emplace(Pc, std::make_pair(S.Expr->clone(), S.Next));
        continue;
      }
      SymExpr &A = *It->second.first;
      uint32_t Next = It->second.second, RefNext = Next;
      std::vector<MergedVar> Vars, RefVars;
      std::unique_ptr<SymExpr> Ref = auref::antiUnifyExprs(
          &A, S.Expr.get(), EquivDepth, S.First, RefNext, RefVars);
      antiUnifyExprs(A, *S.Expr, EquivDepth, S.First, Next, Vars);
      It->second.second = Next;
      SCOPED_TRACE(::testing::Message()
                   << "site " << Pc << " merged " << Ref->fpcoreBody());
      EXPECT_EQ(treeDiff(A, *Ref), "");
      EXPECT_EQ(Next, RefNext);
      EXPECT_EQ(Vars.size(), RefVars.size());
      for (size_t I = 0; I < std::min(Vars.size(), RefVars.size()); ++I) {
        const MergedVar &V = Vars[I], &W = RefVars[I];
        EXPECT_EQ(V.Idx, W.Idx);
        EXPECT_EQ(V.A, W.A);
        EXPECT_EQ(V.B, W.B);
        EXPECT_EQ(V.AVar, W.AVar);
        EXPECT_EQ(V.BVar, W.BVar);
        EXPECT_EQ(bitsOfDouble(V.AConst), bitsOfDouble(W.AConst));
        EXPECT_EQ(bitsOfDouble(V.BConst), bitsOfDouble(W.BConst));
        EXPECT_EQ(V.KeptA, W.KeptA);
      }
      MergedVars += Vars.size();
    }
  }
  return MergedVars;
}

/// Traces \p Cores (shards of \p InputsPerShard inputs each) at every
/// bound and checks both the incremental and the merge paths. Returns
/// {incremental rounds, promotions, merged variables}.
std::array<size_t, 3> checkCores(const std::vector<fpcore::Core> &Cores,
                                 unsigned Shards, unsigned InputsPerShard,
                                 uint64_t Seed, bool Coarse) {
  std::array<size_t, 3> Totals{0, 0, 0};
  for (auto [MaxDepth, EquivDepth] : Bounds) {
    for (size_t CI = 0; CI < Cores.size(); ++CI) {
      const fpcore::Core &C = Cores[CI];
      SCOPED_TRACE(::testing::Message() << C.Name << " MaxDepth " << MaxDepth
                                        << " EquivDepth " << EquivDepth);
      Program P = fpcore::compile(C);
      std::vector<std::vector<double>> Inputs =
          mixedInputs(C, Shards * InputsPerShard, Seed + CI, Coarse);
      TraceArena A(MaxDepth, EquivDepth);
      std::vector<std::unique_ptr<DualSites>> PerShard;
      for (unsigned Sh = 0; Sh < Shards; ++Sh) {
        PerShard.push_back(std::make_unique<DualSites>(A));
        for (unsigned I = 0; I < InputsPerShard; ++I)
          traceRun(P, Inputs[Sh * InputsPerShard + I], *PerShard.back());
        Totals[0] += PerShard.back()->Rounds;
        Totals[1] += PerShard.back()->Promotions;
      }
      Totals[2] += checkMerges(PerShard, EquivDepth);
      EXPECT_EQ(A.liveNodes(), 0u);
      if (::testing::Test::HasFatalFailure())
        return Totals;
    }
  }
  return Totals;
}

} // namespace

TEST(AntiUnifyDiff, RandomCoresMatchRebuildingReference) {
  std::vector<fpcore::Core> Cores = diffharness::randomCores(0xa471, 48);
  // Long shards, then many short coarse ones whose merges meet constants.
  for (bool Coarse : {false, true}) {
    std::array<size_t, 3> T =
        Coarse ? checkCores(Cores, 6, 3, 78, true)
               : checkCores(Cores, 3, 16, 77, false);
    // Not vacuous: rounds ran, constants were promoted, merges made
    // variables.
    EXPECT_GT(T[0], 5000u);
    EXPECT_GT(T[1], 100u);
    EXPECT_GT(T[2], 100u);
  }
}

TEST(AntiUnifyDiff, CorpusMatchesRebuildingReference) {
  std::array<size_t, 3> T =
      checkCores(fpcore::compilableCorpus(), 3, 4, 0xc0de, true);
  EXPECT_GT(T[0], 10000u);
  EXPECT_GT(T[1], 100u);
  EXPECT_GT(T[2], 100u);
}

namespace {

/// The native demo kernels' arithmetic (src/native/Kernel.cpp), one site
/// per operation, as the native frontend traces it: unshadowed constants
/// and inputs enter as leaves.
struct KernelTracer {
  DualSites &D;
  TraceArena &A;

  TraceNode *leaf(double V) { return A.leaf(V); }

  /// One op at \p Site; consumes the caller's references to \p Kids and
  /// returns one to the result.
  TraceNode *op(uint32_t Site, Opcode Op, std::vector<TraceNode *> Kids,
                double V) {
    TraceNode *T =
        A.node(Op, Site, V, Kids.data(), static_cast<unsigned>(Kids.size()));
    for (TraceNode *K : Kids)
      A.release(K);
    D.observe(Site, T);
    return T;
  }
  TraceNode *share(TraceNode *T) {
    A.retain(T);
    return T;
  }

  void cancel(double X) {
    TraceNode *XT = leaf(X);
    double S = X + 1.0;
    TraceNode *Sum = op(1, Opcode::AddF64, {share(XT), leaf(1.0)}, S);
    A.release(op(2, Opcode::SubF64, {Sum, XT}, S - X));
  }

  void quadratic(double Av, double Bv, double Cv) {
    TraceNode *AT = leaf(Av), *BT = leaf(Bv), *CT = leaf(Cv);
    double BB = Bv * Bv, FourA = 4.0 * Av, FourAC = FourA * Cv;
    double Disc = BB - FourAC;
    TraceNode *BBT = op(10, Opcode::MulF64, {share(BT), share(BT)}, BB);
    TraceNode *FourAT = op(11, Opcode::MulF64, {leaf(4.0), share(AT)}, FourA);
    TraceNode *FourACT = op(12, Opcode::MulF64, {FourAT, CT}, FourAC);
    TraceNode *DiscT = op(13, Opcode::SubF64, {BBT, FourACT}, Disc);
    TraceNode *NegB = op(14, Opcode::NegF64, {BT}, -Bv);
    TraceNode *Sq = op(15, Opcode::SqrtF64, {DiscT}, std::sqrt(Disc));
    double Num = -Bv + std::sqrt(Disc), TwoA = 2.0 * Av;
    TraceNode *NumT = op(16, Opcode::AddF64, {NegB, Sq}, Num);
    TraceNode *TwoAT = op(17, Opcode::MulF64, {leaf(2.0), AT}, TwoA);
    A.release(op(18, Opcode::DivF64, {NumT, TwoAT}, Num / TwoA));
  }

  /// Two producers of one opcode feed one consumer (the consumer's
  /// expression must take each round's Site), and two opcodes take turns
  /// at one position (an operation subtree becomes a variable):
  ///   v = flag1 ? (x + 1) : (x + 1)   at sites 44 / 45
  ///   w = v * 2                        at 46
  ///   u = flag2 ? sqrt(x) : x * x      at 41 / 42
  ///   z = u + c                        at 43
  void branchy(double X, double C, bool Flag1, bool Flag2) {
    TraceNode *XT = leaf(X);
    TraceNode *V = op(Flag1 ? 44 : 45, Opcode::AddF64,
                      {share(XT), leaf(1.0)}, X + 1.0);
    A.release(op(46, Opcode::MulF64, {V, leaf(2.0)}, (X + 1.0) * 2.0));
    double U = Flag2 ? std::sqrt(X) : X * X;
    TraceNode *UT = Flag2 ? op(41, Opcode::SqrtF64, {XT}, U)
                          : op(42, Opcode::MulF64, {share(XT), XT}, U);
    A.release(op(43, Opcode::AddF64, {UT, leaf(C)}, U + C));
  }

  void stepLoop(double Bound) {
    double T = 0.0, Steps = 0.0;
    TraceNode *TT = leaf(T), *ST = leaf(Steps);
    while (T < Bound) {
      T += 0.1;
      TT = op(20, Opcode::AddF64, {TT, leaf(0.1)}, T);
      Steps += 1.0;
      ST = op(21, Opcode::AddF64, {ST, leaf(1.0)}, Steps);
    }
    A.release(TT);
    A.release(ST);
  }
};

} // namespace

TEST(AntiUnifyDiff, DemoKernelsMatchRebuildingReference) {
  size_t Rounds = 0, Promotions = 0, MergedVars = 0;
  for (auto [MaxDepth, EquivDepth] : Bounds) {
    SCOPED_TRACE(::testing::Message() << "MaxDepth " << MaxDepth
                                      << " EquivDepth " << EquivDepth);
    TraceArena A(MaxDepth, EquivDepth);
    Rng R(5150 + MaxDepth);
    std::vector<std::unique_ptr<DualSites>> Shards;
    for (unsigned Sh = 0; Sh < 3; ++Sh) {
      Shards.push_back(std::make_unique<DualSites>(A));
      KernelTracer K{*Shards.back(), A};
      for (unsigned I = 0; I < 24; ++I) {
        bool Repeat = R.chance(1, 3);
        K.cancel(Repeat ? 4.0 : R.betweenOrdinals(1.0, 1e18));
        K.quadratic(Repeat ? 2.0 : R.betweenOrdinals(1.0, 10.0),
                    R.betweenOrdinals(100.0, 1e6),
                    Repeat ? 3.0 : R.betweenOrdinals(1.0, 10.0));
        K.stepLoop(Repeat ? 2.0 : R.betweenOrdinals(1.0, 30.0));
      }
      Rounds += Shards.back()->Rounds;
      Promotions += Shards.back()->Promotions;
    }
    MergedVars += checkMerges(Shards, EquivDepth);
    EXPECT_EQ(A.liveNodes(), 0u);
  }
  EXPECT_GT(Rounds, 10000u);
  EXPECT_GT(Promotions, 20u);
  EXPECT_GT(MergedVars, 20u);
}

TEST(AntiUnifyDiff, BranchesRefreshSitesAndMergeInCreationOrder) {
  // Shard 0 always takes sqrt and sees c = 1; shard 1 alternates the
  // opcode and sees c = 1 first, then other values; shard 2 varies c from
  // its first round. Merging shard 1 into shard 0 makes two new variables
  // at z = u + c: u (an operation subtree against a variable, numbered on
  // B's first round) and c (a constant B generalized later, numbered
  // after it).
  for (auto [MaxDepth, EquivDepth] : Bounds) {
    SCOPED_TRACE(::testing::Message() << "MaxDepth " << MaxDepth
                                      << " EquivDepth " << EquivDepth);
    TraceArena A(MaxDepth, EquivDepth);
    Rng R(31 + MaxDepth);
    std::vector<std::unique_ptr<DualSites>> Shards;
    for (unsigned Sh = 0; Sh < 3; ++Sh) {
      Shards.push_back(std::make_unique<DualSites>(A));
      KernelTracer K{*Shards.back(), A};
      for (unsigned I = 0; I < 8; ++I) {
        double C = Sh == 0 || (Sh == 1 && I < 2) ? 1.0 : 1.0 + I;
        K.branchy(R.betweenOrdinals(1.0, 100.0), C, R.chance(1, 2),
                  Sh == 0 || I % 2 == 0);
      }
    }
    EXPECT_GT(checkMerges(Shards, EquivDepth), 0u);
    EXPECT_EQ(A.liveNodes(), 0u);
  }
}

TEST(AntiUnifyDiff, LongLoopChainsMatchRebuildingReference) {
  // s = s + x over fresh x (the bench's trace probe), and a coupled pair
  // a' = a + b, b' = a * c whose coarse values keep repeating, so
  // variables keep being shared and split deep in the chain.
  for (auto [MaxDepth, EquivDepth] : Bounds) {
    SCOPED_TRACE(::testing::Message() << "MaxDepth " << MaxDepth
                                      << " EquivDepth " << EquivDepth);
    TraceArena A(MaxDepth, EquivDepth);
    DualSites D(A);
    KernelTracer K{D, A};
    TraceNode *Sum = K.leaf(0.0);
    double S = 0.0;
    for (unsigned I = 1; I <= 20000; ++I) {
      double X = 1.0 / I;
      S += X;
      Sum = K.op(1, Opcode::AddF64, {Sum, K.leaf(X)}, S);
    }
    A.release(Sum);
    TraceNode *AT = K.leaf(1.0), *BT = K.leaf(2.0);
    double Av = 1.0, Bv = 2.0;
    for (unsigned I = 0; I < 5000; ++I) {
      double C = static_cast<double>(I % 3);
      double NA = std::fmod(Av + Bv, 4.0), NB = std::fmod(Av * C, 4.0);
      TraceNode *NAT = K.op(2, Opcode::AddF64, {K.share(AT), K.share(BT)}, NA);
      TraceNode *NBT = K.op(3, Opcode::MulF64, {AT, K.leaf(C)}, NB);
      A.release(BT);
      AT = NAT;
      BT = NBT;
      Av = NA;
      Bv = NB;
    }
    A.release(AT);
    A.release(BT);
    EXPECT_EQ(D.Rounds, 20000u + 2 * 5000u - 3);
    EXPECT_GT(D.Bindings, 20000u);
    EXPECT_EQ(A.liveNodes(), 0u);
  }
}
