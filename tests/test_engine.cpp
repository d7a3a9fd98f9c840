//===- tests/test_engine.cpp - Batch engine & record merging --------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The batch engine's contract: (1) merging per-shard records in shard
// order reproduces what one analysis running every round sequentially
// records -- exactly, for programs whose shards disagree only at trace
// leaves; (2) expression merging is associative, and commutative up to
// variable renaming; (3) empty and single-operation shards merge
// correctly; (4) the engine's output is byte-identical at any worker
// count and shard size.
//
//===----------------------------------------------------------------------===//

#include "DiffHarness.h"

#include "engine/Engine.h"
#include "engine/ThreadPool.h"
#include "fpcore/Compile.h"
#include "fpcore/Corpus.h"
#include "herbgrind/Herbgrind.h"
#include "support/FloatBits.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <set>

using namespace herbgrind;
using namespace herbgrind::engine;

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

namespace {

/// (x + 1) - x: the canonical catastrophic-cancellation kernel.
Program cancellationKernel() {
  ProgramBuilder B;
  auto X = B.input(0);
  auto T = B.op(Opcode::SubF64, B.op(Opcode::AddF64, X, B.constF64(1.0)), X);
  B.out(T);
  B.halt();
  return B.finish();
}

/// (a + 1) - b on two inputs.
Program twoInputKernel() {
  ProgramBuilder B;
  auto A = B.input(0);
  auto C = B.input(1);
  auto T = B.op(Opcode::SubF64, B.op(Opcode::AddF64, A, B.constF64(1.0)), C);
  B.out(T);
  B.halt();
  return B.finish();
}

AnalysisResult analyzeChunk(const Program &P,
                            const std::vector<std::vector<double>> &Inputs,
                            size_t Begin, size_t End) {
  Herbgrind HG(P);
  for (size_t I = Begin; I < End; ++I)
    HG.runOnInput(Inputs[I]);
  return HG.snapshot();
}

/// Variable-order-independent rendering: variables renamed in DFS
/// first-occurrence order.
std::string canonicalBody(const SymExpr *E,
                          std::map<uint32_t, uint32_t> &Renaming) {
  switch (E->Kind) {
  case SymExpr::SEKind::Var: {
    auto It = Renaming.emplace(E->VarIdx,
                               static_cast<uint32_t>(Renaming.size()));
    return format("v%u", It.first->second);
  }
  case SymExpr::SEKind::Const:
    return formatDoubleShortest(E->ConstVal);
  case SymExpr::SEKind::Op: {
    std::string S = "(" + std::to_string(static_cast<unsigned>(E->Op));
    for (const auto &Kid : E->Kids)
      S += " " + canonicalBody(Kid.get(), Renaming);
    return S + ")";
  }
  }
  return "?";
}

std::string canonicalBody(const SymExpr *E) {
  std::map<uint32_t, uint32_t> Renaming;
  return canonicalBody(E, Renaming);
}

void expectSummariesEqual(const VarSummary &A, const VarSummary &B,
                          const std::string &Ctx) {
  EXPECT_EQ(A.Count, B.Count) << Ctx;
  EXPECT_EQ(A.SawNaN, B.SawNaN) << Ctx;
  EXPECT_EQ(A.SawZero, B.SawZero) << Ctx;
  EXPECT_EQ(A.HasRange, B.HasRange) << Ctx;
  if (A.HasRange && B.HasRange) {
    EXPECT_EQ(bitsOfDouble(A.Lo), bitsOfDouble(B.Lo)) << Ctx;
    EXPECT_EQ(bitsOfDouble(A.Hi), bitsOfDouble(B.Hi)) << Ctx;
    EXPECT_EQ(bitsOfDouble(A.Example), bitsOfDouble(B.Example)) << Ctx;
  }
}

/// Strict equality of a merged result against the sequential reference:
/// identical expressions (including variable numbering), counters, input
/// summaries, and rendered reports. Statistic sums may differ in the last
/// ulp because merging adds per-shard subtotals.
void expectMatchesSequential(const AnalysisResult &Merged,
                             const Herbgrind &Seq, const std::string &Ctx) {
  const auto &SeqOps = Seq.opRecords();
  ASSERT_EQ(Merged.Ops.size(), SeqOps.size()) << Ctx;
  for (const auto &[PC, SeqRec] : SeqOps) {
    ASSERT_TRUE(Merged.Ops.count(PC)) << Ctx << " pc " << PC;
    const OpRecord &M = Merged.Ops.at(PC);
    std::string OpCtx = Ctx + " pc " + std::to_string(PC);
    EXPECT_EQ(M.Executions, SeqRec.Executions) << OpCtx;
    EXPECT_EQ(M.Flagged, SeqRec.Flagged) << OpCtx;
    EXPECT_EQ(M.LocalError.count(), SeqRec.LocalError.count()) << OpCtx;
    EXPECT_EQ(M.LocalError.max(), SeqRec.LocalError.max()) << OpCtx;
    EXPECT_NEAR(M.LocalError.mean(), SeqRec.LocalError.mean(),
                1e-9 * (1.0 + std::fabs(SeqRec.LocalError.mean())))
        << OpCtx;
    ASSERT_TRUE(M.Expr && SeqRec.Expr) << OpCtx;
    EXPECT_EQ(M.Expr->fpcoreBody(), SeqRec.Expr->fpcoreBody()) << OpCtx;
    uint32_t NumVars = SeqRec.Expr->numVars();
    for (uint32_t V = 0; V < NumVars; ++V) {
      expectSummariesEqual(M.TotalInputs.var(V), SeqRec.TotalInputs.var(V),
                           OpCtx + " total v" + std::to_string(V));
      expectSummariesEqual(M.ProblematicInputs.var(V),
                           SeqRec.ProblematicInputs.var(V),
                           OpCtx + " prob v" + std::to_string(V));
    }
  }
  ASSERT_EQ(Merged.Spots.size(), Seq.spotRecords().size()) << Ctx;
  for (const auto &[PC, SeqSpot] : Seq.spotRecords()) {
    ASSERT_TRUE(Merged.Spots.count(PC)) << Ctx;
    const SpotRecord &M = Merged.Spots.at(PC);
    EXPECT_EQ(M.Executions, SeqSpot.Executions) << Ctx;
    EXPECT_EQ(M.Erroneous, SeqSpot.Erroneous) << Ctx;
    EXPECT_EQ(M.InfluencingOps, SeqSpot.InfluencingOps) << Ctx;
  }
  EXPECT_EQ(buildReport(Merged).render(), buildReport(Seq).render()) << Ctx;
}

/// Loop- and branch-free cores have one trace shape per site, which is
/// the regime where shard merging is exactly lossless.
bool isStraightLineCore(const fpcore::Expr &E) {
  if (E.K == fpcore::Expr::Kind::While || E.K == fpcore::Expr::Kind::If)
    return false;
  for (const auto &A : E.Args)
    if (!isStraightLineCore(*A))
      return false;
  for (const auto &A : E.Inits)
    if (!isStraightLineCore(*A))
      return false;
  return true;
}

std::vector<std::vector<double>> sampleFor(const fpcore::Core &C, int Count,
                                           uint64_t Seed) {
  Rng R(Seed);
  std::vector<fpcore::VarRange> Ranges = fpcore::sampleRanges(C);
  std::vector<std::vector<double>> Sets;
  for (int I = 0; I < Count; ++I) {
    std::vector<double> In;
    for (const fpcore::VarRange &VR : Ranges)
      In.push_back(R.betweenOrdinals(VR.Lo, VR.Hi));
    Sets.push_back(std::move(In));
  }
  return Sets;
}

} // namespace

//===----------------------------------------------------------------------===//
// Summaries
//===----------------------------------------------------------------------===//

TEST(VarSummary, AddRepeatedMatchesRepeatedAdd) {
  for (double V : {3.25, -7.5, 0.0, std::nan("")}) {
    VarSummary Bulk, Loop;
    Bulk.add(1.0);
    Loop.add(1.0);
    Bulk.addRepeated(V, 5);
    for (int I = 0; I < 5; ++I)
      Loop.add(V);
    EXPECT_EQ(Bulk.Count, Loop.Count);
    EXPECT_EQ(Bulk.SawNaN, Loop.SawNaN);
    EXPECT_EQ(Bulk.SawZero, Loop.SawZero);
    EXPECT_EQ(Bulk.Lo, Loop.Lo);
    EXPECT_EQ(Bulk.Hi, Loop.Hi);
  }
  VarSummary Empty;
  Empty.addRepeated(2.0, 0);
  EXPECT_EQ(Empty.Count, 0u);
}

//===----------------------------------------------------------------------===//
// Shard merging reproduces sequential analysis
//===----------------------------------------------------------------------===//

TEST(RecordMerge, TwoShardsMatchSequential) {
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs;
  Rng R(0xbeef);
  for (int I = 0; I < 8; ++I)
    Inputs.push_back({R.betweenOrdinals(1.0, 1e16)});

  Herbgrind Seq(P);
  for (const auto &In : Inputs)
    Seq.runOnInput(In);

  AnalysisResult Merged = analyzeChunk(P, Inputs, 0, 4);
  Merged.mergeFrom(analyzeChunk(P, Inputs, 4, 8));
  expectMatchesSequential(Merged, Seq, "cancellation");
}

TEST(RecordMerge, ConstantPromotionOrderMatchesSequential) {
  // Shard A sees a single round (everything constant). In shard B the
  // second input varies from its first round on, while the first input
  // only varies later. Sequential processing therefore numbers the second
  // input's variable before the first's; the merge must reproduce that
  // from the records alone.
  Program P = twoInputKernel();
  std::vector<std::vector<double>> Inputs = {
      {4.0e15, 7.0}, // shard A
      {4.0e15, 9.0}, // shard B: b varies immediately...
      {4.0e15, 11.0},
      {6.0e15, 13.0}, // ...a only on B's third round
  };
  Herbgrind Seq(P);
  for (const auto &In : Inputs)
    Seq.runOnInput(In);

  AnalysisResult Merged = analyzeChunk(P, Inputs, 0, 1);
  Merged.mergeFrom(analyzeChunk(P, Inputs, 1, 4));
  expectMatchesSequential(Merged, Seq, "promotion-order");
}

TEST(RecordMerge, UnevenShardsMatchSequential) {
  Program P = twoInputKernel();
  std::vector<std::vector<double>> Inputs;
  Rng R(0x5eed);
  for (int I = 0; I < 9; ++I)
    Inputs.push_back({R.betweenOrdinals(1e10, 1e16),
                      R.betweenOrdinals(-100.0, 100.0)});
  Herbgrind Seq(P);
  for (const auto &In : Inputs)
    Seq.runOnInput(In);

  // 1 + 5 + 3 rounds.
  AnalysisResult Merged = analyzeChunk(P, Inputs, 0, 1);
  Merged.mergeFrom(analyzeChunk(P, Inputs, 1, 6));
  Merged.mergeFrom(analyzeChunk(P, Inputs, 6, 9));
  expectMatchesSequential(Merged, Seq, "uneven");
}

TEST(RecordMerge, StraightLineCorpusShardsMatchSequential) {
  int Tested = 0;
  for (size_t BI = 0; BI < fpcore::corpus().size() && Tested < 12; ++BI) {
    const fpcore::Core &C = fpcore::corpus()[BI];
    if (!fpcore::isCompilable(C) || !isStraightLineCore(*C.Body))
      continue;
    ++Tested;
    Program P = fpcore::compile(C);
    auto Inputs = sampleFor(C, 12, 0x1234 + BI);

    Herbgrind Seq(P);
    for (const auto &In : Inputs)
      Seq.runOnInput(In);

    AnalysisResult Merged = analyzeChunk(P, Inputs, 0, 4);
    Merged.mergeFrom(analyzeChunk(P, Inputs, 4, 8));
    Merged.mergeFrom(analyzeChunk(P, Inputs, 8, 12));
    expectMatchesSequential(Merged, Seq, C.Name);
  }
  EXPECT_GE(Tested, 8);
}

//===----------------------------------------------------------------------===//
// Algebraic properties of the merge
//===----------------------------------------------------------------------===//

TEST(RecordMerge, MergeIsAssociative) {
  Program P = twoInputKernel();
  std::vector<std::vector<double>> Inputs;
  Rng R(0xa550c);
  for (int I = 0; I < 12; ++I)
    Inputs.push_back({R.betweenOrdinals(1e12, 1e16),
                      R.betweenOrdinals(-10.0, 10.0)});

  AnalysisResult S1 = analyzeChunk(P, Inputs, 0, 4);
  AnalysisResult S2 = analyzeChunk(P, Inputs, 4, 8);
  AnalysisResult S3 = analyzeChunk(P, Inputs, 8, 12);

  AnalysisResult Left = S1.clone();
  Left.mergeFrom(S2);
  Left.mergeFrom(S3);

  AnalysisResult RightTail = S2.clone();
  RightTail.mergeFrom(S3);
  AnalysisResult Right = S1.clone();
  Right.mergeFrom(RightTail);

  EXPECT_EQ(buildReport(Left).renderJson(), buildReport(Right).renderJson());
  for (const auto &[PC, Rec] : Left.Ops) {
    ASSERT_TRUE(Right.Ops.count(PC));
    EXPECT_EQ(Rec.Expr->fpcoreBody(), Right.Ops.at(PC).Expr->fpcoreBody());
    EXPECT_EQ(Rec.Executions, Right.Ops.at(PC).Executions);
    EXPECT_EQ(Rec.Flagged, Right.Ops.at(PC).Flagged);
  }
}

TEST(RecordMerge, MergeIsCommutativeUpToRenaming) {
  Program P = twoInputKernel();
  std::vector<std::vector<double>> Inputs;
  Rng R(0xc0ffee);
  for (int I = 0; I < 8; ++I)
    Inputs.push_back({R.betweenOrdinals(1e12, 1e16),
                      R.betweenOrdinals(-10.0, 10.0)});

  AnalysisResult S1 = analyzeChunk(P, Inputs, 0, 4);
  AnalysisResult S2 = analyzeChunk(P, Inputs, 4, 8);

  AnalysisResult AB = S1.clone();
  AB.mergeFrom(S2);
  AnalysisResult BA = S2.clone();
  BA.mergeFrom(S1);

  ASSERT_EQ(AB.Ops.size(), BA.Ops.size());
  for (const auto &[PC, Rec] : AB.Ops) {
    ASSERT_TRUE(BA.Ops.count(PC));
    const OpRecord &Other = BA.Ops.at(PC);
    // Same structure modulo variable names, same aggregates.
    EXPECT_EQ(canonicalBody(Rec.Expr.get()),
              canonicalBody(Other.Expr.get()));
    EXPECT_EQ(Rec.Executions, Other.Executions);
    EXPECT_EQ(Rec.Flagged, Other.Flagged);
    EXPECT_EQ(Rec.LocalError.max(), Other.LocalError.max());
  }
}

//===----------------------------------------------------------------------===//
// Edge cases
//===----------------------------------------------------------------------===//

TEST(RecordMerge, EmptyShardIsIdentity) {
  Program P = cancellationKernel();
  std::vector<std::vector<double>> Inputs = {{1e15}, {2e15}};
  AnalysisResult Full = analyzeChunk(P, Inputs, 0, 2);
  std::string Before = buildReport(Full).renderJson();

  Herbgrind Idle(P); // constructed but never run
  AnalysisResult Empty = Idle.snapshot();
  EXPECT_TRUE(Empty.Ops.empty());
  EXPECT_TRUE(Empty.Spots.empty());

  // empty . full == full
  AnalysisResult Left = Empty.clone();
  Left.mergeFrom(Full);
  EXPECT_EQ(buildReport(Left).renderJson(), Before);

  // full . empty == full
  AnalysisResult Right = Full.clone();
  Right.mergeFrom(Empty);
  EXPECT_EQ(buildReport(Right).renderJson(), Before);
}

TEST(RecordMerge, SingleOpSingleRoundShards) {
  // One operation, one round per shard: the smallest nontrivial merge.
  ProgramBuilder B;
  auto X = B.input(0);
  B.out(B.op(Opcode::AddF64, X, B.constF64(1.0)));
  B.halt();
  Program P = B.finish();

  std::vector<std::vector<double>> Inputs = {{2.0}, {3.0}, {5.0}};
  Herbgrind Seq(P);
  for (const auto &In : Inputs)
    Seq.runOnInput(In);

  AnalysisResult Merged = analyzeChunk(P, Inputs, 0, 1);
  Merged.mergeFrom(analyzeChunk(P, Inputs, 1, 2));
  Merged.mergeFrom(analyzeChunk(P, Inputs, 2, 3));
  expectMatchesSequential(Merged, Seq, "single-op");

  // The lone add's expression generalized its varying leaf.
  bool SawAdd = false;
  for (const auto &[PC, Rec] : Merged.Ops)
    if (Rec.Op == Opcode::AddF64) {
      SawAdd = true;
      EXPECT_EQ(Rec.Executions, 3u);
      EXPECT_EQ(Rec.Expr->numVars(), 1u);
      EXPECT_EQ(Rec.TotalInputs.var(0).Count, 3u);
    }
  EXPECT_TRUE(SawAdd);
}

//===----------------------------------------------------------------------===//
// The thread pool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTaskAcrossWorkers) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(4);
    EXPECT_EQ(Pool.workers(), 4u);
    for (int I = 0; I < 200; ++I)
      Pool.submit([&Count] { ++Count; });
    Pool.waitAll();
    EXPECT_EQ(Count.load(), 200);
    // Reusable after a drain.
    for (int I = 0; I < 10; ++I)
      Pool.submit([&Count] { ++Count; });
    Pool.waitAll();
  }
  EXPECT_EQ(Count.load(), 210);
}

//===----------------------------------------------------------------------===//
// The engine
//===----------------------------------------------------------------------===//

namespace {

/// Replaces every "avgLocalError":<number> with a placeholder (see
/// ShardSizeDoesNotChangeStraightLineReports for why).
std::string stripAverages(const std::string &Json) {
  std::string Out;
  size_t Pos = 0;
  const std::string Key = "\"avgLocalError\":";
  for (;;) {
    size_t Hit = Json.find(Key, Pos);
    if (Hit == std::string::npos) {
      Out += Json.substr(Pos);
      return Out;
    }
    Hit += Key.size();
    Out += Json.substr(Pos, Hit - Pos);
    Out += "<avg>";
    Pos = Json.find_first_of(",}", Hit);
  }
}

std::vector<fpcore::Core> smallCorpusSubset(size_t MaxBenchmarks) {
  std::vector<fpcore::Core> Cores;
  for (const fpcore::Core &C : fpcore::corpus()) {
    if (!fpcore::isCompilable(C))
      continue;
    Cores.push_back(C.clone());
    if (Cores.size() >= MaxBenchmarks)
      break;
  }
  return Cores;
}

} // namespace

TEST(Engine, OutputIsIdenticalAtAnyWorkerCount) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(10);
  EngineConfig Cfg;
  Cfg.SamplesPerBenchmark = 8;
  Cfg.ShardSize = 3;

  Cfg.Jobs = 1;
  std::string One = Engine(Cfg).run(Cores).renderJson();
  Cfg.Jobs = 4;
  std::string Four = Engine(Cfg).run(Cores).renderJson();
  Cfg.Jobs = 7;
  std::string Seven = Engine(Cfg).run(Cores).renderJson();

  EXPECT_EQ(One, Four);
  EXPECT_EQ(One, Seven);

  // And repeated runs are stable.
  Cfg.Jobs = 4;
  EXPECT_EQ(Four, Engine(Cfg).run(Cores).renderJson());
}

TEST(Engine, ShardSizeDoesNotChangeStraightLineReports) {
  // For loop-free benchmarks shard merging is lossless, so the shard
  // granularity must not be observable either: many small shards produce
  // the same report as one big shard per benchmark.
  std::vector<fpcore::Core> Cores;
  for (const fpcore::Core &C : fpcore::corpus()) {
    if (!fpcore::isCompilable(C) || !isStraightLineCore(*C.Body))
      continue;
    Cores.push_back(C.clone());
    if (Cores.size() >= 8)
      break;
  }
  ASSERT_GE(Cores.size(), 4u);

  EngineConfig Cfg;
  Cfg.SamplesPerBenchmark = 10;
  Cfg.Jobs = 2;

  Cfg.ShardSize = 2;
  BatchResult Fine = Engine(Cfg).run(Cores);
  Cfg.ShardSize = 10;
  BatchResult Coarse = Engine(Cfg).run(Cores);

  ASSERT_EQ(Fine.Benchmarks.size(), Coarse.Benchmarks.size());
  for (size_t I = 0; I < Fine.Benchmarks.size(); ++I) {
    // Averages are sums of per-round errors; regrouping the rounds may
    // reassociate the addition and move the last ulp, so compare them
    // numerically and everything else byte-for-byte.
    EXPECT_EQ(stripAverages(Fine.Benchmarks[I].Rep.renderJson()),
              stripAverages(Coarse.Benchmarks[I].Rep.renderJson()))
        << Fine.Benchmarks[I].Name;
    const Report &FR = Fine.Benchmarks[I].Rep;
    const Report &CR = Coarse.Benchmarks[I].Rep;
    ASSERT_EQ(FR.Spots.size(), CR.Spots.size());
    for (size_t S = 0; S < FR.Spots.size(); ++S) {
      ASSERT_EQ(FR.Spots[S].RootCauses.size(), CR.Spots[S].RootCauses.size());
      for (size_t C = 0; C < FR.Spots[S].RootCauses.size(); ++C)
        EXPECT_NEAR(FR.Spots[S].RootCauses[C].AvgLocalError,
                    CR.Spots[S].RootCauses[C].AvgLocalError, 1e-9);
    }
    EXPECT_EQ(Fine.Benchmarks[I].Shards, 5u);
    EXPECT_EQ(Coarse.Benchmarks[I].Shards, 1u);
  }
}

TEST(Engine, ProgramCacheCompilesEachBenchmarkOnce) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(6);
  EngineConfig Cfg;
  Cfg.SamplesPerBenchmark = 8;
  Cfg.ShardSize = 2; // 4 shards per benchmark
  Cfg.Jobs = 3;
  Engine Eng(Cfg);
  // One program lookup per shard analysis: every shard once, plus, per
  // benchmark that reports a root cause, the flipping shard's traced
  // rerun and the replays of its other shards.
  auto Analyses = [](const EngineStats &S) {
    return S.Shards + S.TracedBenchmarks + S.ReplayedShards;
  };
  BatchResult R = Eng.run(Cores);
  EXPECT_EQ(R.Stats.CacheMisses, Cores.size());
  EXPECT_EQ(R.Stats.CacheHits, Analyses(R.Stats) - Cores.size());

  // A second run over the same cores hits the cache for every analysis.
  BatchResult R2 = Eng.run(Cores);
  EXPECT_EQ(R2.Stats.CacheMisses, 0u);
  EXPECT_EQ(R2.Stats.CacheHits, Analyses(R2.Stats));
}

TEST(Engine, StatsAndStructureAreConsistent) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(5);
  EngineConfig Cfg;
  Cfg.SamplesPerBenchmark = 7;
  Cfg.ShardSize = 3;
  Cfg.Jobs = 2;
  BatchResult R = Engine(Cfg).run(Cores);

  EXPECT_EQ(R.Stats.Benchmarks, Cores.size());
  EXPECT_EQ(R.Benchmarks.size(), Cores.size());
  for (const BenchmarkResult &BR : R.Benchmarks) {
    EXPECT_EQ(BR.Runs, 7u);
    EXPECT_EQ(BR.Shards, 3u); // 3 + 3 + 1
    EXPECT_FALSE(BR.Rep.render().empty());
  }
  EXPECT_EQ(R.Stats.Runs, 7u * Cores.size());
  // The corpus-wide fold renders.
  EXPECT_FALSE(R.merged().render().empty());
  EXPECT_FALSE(R.renderJson().empty());
}

//===----------------------------------------------------------------------===//
// Presentation-level report merging
//===----------------------------------------------------------------------===//

TEST(ReportMerge, CombinesSpotsAndKeepsStrongestCauses) {
  Report A, B;
  SpotReport SA;
  SA.PC = 3;
  SA.Loc = SourceLoc("bench.fpcore", 1, "");
  SA.Executions = 10;
  SA.Erroneous = 2;
  SA.MaxErrorBits = 12.0;
  RootCauseReport RC1;
  RC1.PC = 7;
  RC1.Flagged = 5;
  RC1.FPCore = "(FPCore (x) (- (+ x 1) x))";
  SA.RootCauses.push_back(RC1);
  A.Spots.push_back(SA);

  SpotReport SB = SA;
  SB.Executions = 6;
  SB.Erroneous = 4;
  SB.MaxErrorBits = 20.0;
  SB.RootCauses[0].Flagged = 9; // stronger observation of the same cause
  RootCauseReport RC2;
  RC2.PC = 9;
  RC2.Flagged = 1;
  SB.RootCauses.push_back(RC2);
  B.Spots.push_back(SB);
  SpotReport Other;
  Other.PC = 3; // same pc, different benchmark location: stays separate
  Other.Loc = SourceLoc("other.fpcore", 2, "");
  Other.Executions = 1;
  B.Spots.push_back(Other);

  A.mergeFrom(B);
  ASSERT_EQ(A.Spots.size(), 2u);
  EXPECT_EQ(A.Spots[0].Executions, 16u);
  EXPECT_EQ(A.Spots[0].Erroneous, 6u);
  EXPECT_EQ(A.Spots[0].MaxErrorBits, 20.0);
  ASSERT_EQ(A.Spots[0].RootCauses.size(), 2u);
  EXPECT_EQ(A.Spots[0].RootCauses[0].PC, 7u);
  EXPECT_EQ(A.Spots[0].RootCauses[0].Flagged, 9u);
  EXPECT_EQ(A.Spots[1].Loc.File, "other.fpcore");
}

//===----------------------------------------------------------------------===//
// The trace ladder: a trace-free pass, traced replay where a root cause is
//===----------------------------------------------------------------------===//

namespace {

EngineConfig ladderConfig(unsigned Jobs) {
  EngineConfig Cfg;
  Cfg.Jobs = Jobs;
  Cfg.SamplesPerBenchmark = 12;
  Cfg.ShardSize = 3; // 4 shards per benchmark
  return Cfg;
}

/// Every fourth compilable corpus benchmark: a mix of benchmarks with and
/// without root causes.
std::vector<fpcore::Core> mixedCorpusSubset() {
  std::vector<fpcore::Core> Cores;
  size_t I = 0;
  for (const fpcore::Core &C : fpcore::corpus())
    if (fpcore::isCompilable(C) && I++ % 4 == 0)
      Cores.push_back(C.clone());
  return Cores;
}

std::set<uint32_t> rootCauseSet(const AnalysisResult &R) {
  std::vector<uint32_t> RC = reportedRootCausesFromRecords(R.Ops, R.Spots);
  return std::set<uint32_t>(RC.begin(), RC.end());
}

/// Field-by-field agreement of a trace-free run's records with a traced
/// run's over the same inputs: every counter and statistic equal, and the
/// trace-free side without expression or input summaries.
void expectCountersAgree(const std::map<uint32_t, OpRecord> &Traced,
                         const std::map<uint32_t, SpotRecord> &TracedSpots,
                         const std::map<uint32_t, OpRecord> &Free,
                         const std::map<uint32_t, SpotRecord> &FreeSpots,
                         const std::string &Ctx) {
  ASSERT_EQ(Free.size(), Traced.size()) << Ctx;
  for (const auto &[PC, T] : Traced) {
    ASSERT_TRUE(Free.count(PC)) << Ctx << " pc " << PC;
    const OpRecord &F = Free.at(PC);
    std::string OpCtx = Ctx + " pc " + std::to_string(PC);
    EXPECT_EQ(F.Op, T.Op) << OpCtx;
    EXPECT_TRUE(F.Loc == T.Loc) << OpCtx;
    EXPECT_EQ(F.Executions, T.Executions) << OpCtx;
    EXPECT_EQ(F.Flagged, T.Flagged) << OpCtx;
    EXPECT_EQ(F.CompensationsDetected, T.CompensationsDetected) << OpCtx;
    EXPECT_EQ(F.LocalError.count(), T.LocalError.count()) << OpCtx;
    EXPECT_EQ(bitsOfDouble(F.LocalError.sum()), bitsOfDouble(T.LocalError.sum()))
        << OpCtx;
    EXPECT_EQ(bitsOfDouble(F.LocalError.max()), bitsOfDouble(T.LocalError.max()))
        << OpCtx;
    EXPECT_EQ(bitsOfDouble(F.MaxFlaggedLocalError),
              bitsOfDouble(T.MaxFlaggedLocalError))
        << OpCtx;
    EXPECT_TRUE(T.Expr != nullptr) << OpCtx;
    EXPECT_TRUE(F.traceFree()) << OpCtx;
    EXPECT_EQ(F.NextVarIdx, 0u) << OpCtx;
    EXPECT_TRUE(F.TotalInputs.Vars.empty()) << OpCtx;
    EXPECT_TRUE(F.ProblematicInputs.Vars.empty()) << OpCtx;
    EXPECT_TRUE(F.ExampleProblematic.empty()) << OpCtx;
  }
  ASSERT_EQ(FreeSpots.size(), TracedSpots.size()) << Ctx;
  for (const auto &[PC, T] : TracedSpots) {
    ASSERT_TRUE(FreeSpots.count(PC)) << Ctx << " spot " << PC;
    const SpotRecord &F = FreeSpots.at(PC);
    EXPECT_EQ(F.Kind, T.Kind) << Ctx;
    EXPECT_TRUE(F.Loc == T.Loc) << Ctx;
    EXPECT_EQ(F.Executions, T.Executions) << Ctx;
    EXPECT_EQ(F.Erroneous, T.Erroneous) << Ctx;
    EXPECT_EQ(F.ErrorBits.count(), T.ErrorBits.count()) << Ctx;
    EXPECT_EQ(bitsOfDouble(F.ErrorBits.sum()), bitsOfDouble(T.ErrorBits.sum()))
        << Ctx;
    EXPECT_EQ(bitsOfDouble(F.ErrorBits.max()), bitsOfDouble(T.ErrorBits.max()))
        << Ctx;
    EXPECT_EQ(F.InfluencingOps, T.InfluencingOps) << Ctx;
  }
}

} // namespace

TEST(TraceLadder, TraceFreeCountersMatchTracedFieldByField) {
  AnalysisConfig FreeCfg;
  FreeCfg.TraceFree = true;
  size_t Nonempty = 0;
  for (const fpcore::Core &C : diffharness::randomCores(0x5201, 10)) {
    Program P = fpcore::compile(C);
    Herbgrind Traced(P), Free(P, FreeCfg);
    for (const std::vector<double> &In : sampleFor(C, 24, 0x5202)) {
      Traced.runOnInput(In);
      Free.runOnInput(In);
    }
    expectCountersAgree(Traced.opRecords(), Traced.spotRecords(),
                        Free.opRecords(), Free.spotRecords(), C.Name);
    EXPECT_EQ(Free.stats().TraceNodesAllocated, 0u) << C.Name;
    EXPECT_EQ(Free.reportedRootCauses(), Traced.reportedRootCauses());
    EXPECT_EQ(Free.snapshot().namesRootCause(),
              Traced.snapshot().namesRootCause());
    Nonempty += Traced.opRecords().empty() ? 0 : 1;
  }
  EXPECT_GT(Nonempty, 0u);

  std::vector<native::Kernel> Kernels = diffharness::randomKernels(0x5203, 4);
  for (const native::Kernel &K : native::demoKernels())
    Kernels.push_back(K);
  for (const native::Kernel &K : Kernels) {
    native::Context Traced, Free(FreeCfg);
    Rng R(0x5204);
    for (int I = 0; I < 24; ++I) {
      std::vector<double> In;
      for (const native::Kernel::InputRange &IR : K.Inputs)
        In.push_back(R.betweenOrdinals(IR.Lo, IR.Hi));
      Traced.run(K, In);
      Free.run(K, In);
    }
    expectCountersAgree(Traced.opRecords(), Traced.spotRecords(),
                        Free.opRecords(), Free.spotRecords(), K.Name);
    EXPECT_EQ(Free.stats().TraceNodesAllocated, 0u) << K.Name;
  }
}

TEST(TraceLadder, RootCausesAreTheUnionOfPerShardRootCauses) {
  size_t WithRootCause = 0, Without = 0;
  for (uint64_t Seed : {0x5101ULL, 0x5102ULL, 0x5103ULL}) {
    std::vector<fpcore::Core> Cores = diffharness::randomCores(Seed, 8);
    EngineConfig Cfg = ladderConfig(2);
    diffharness::ScratchDir Dir("union");
    std::vector<ShardDoc> Docs =
        diffharness::tracedSliceDocs(Cores, {}, Cfg, Dir.Path);
    std::map<uint64_t, std::set<uint32_t>> Union;
    for (const ShardDoc &D : Docs) {
      std::set<uint32_t> RC = rootCauseSet(D.Result);
      EXPECT_EQ(!RC.empty(), D.Result.namesRootCause());
      EXPECT_FALSE(D.Result.traceFree());
      Union[D.BenchIndex].insert(RC.begin(), RC.end());
    }
    BatchResult Merged;
    std::string Err;
    ASSERT_TRUE(mergeShards(std::move(Docs), Merged, Err)) << Err;
    BatchResult Ladder = Engine(Cfg).run(Cores);
    ASSERT_EQ(Merged.Benchmarks.size(), Cores.size());
    for (size_t B = 0; B < Cores.size(); ++B) {
      EXPECT_EQ(rootCauseSet(Merged.Benchmarks[B].Records), Union[B]);
      // The ladder traces exactly the benchmarks the union names, and its
      // report shows exactly those root causes.
      EXPECT_EQ(Ladder.Benchmarks[B].Traced, !Union[B].empty());
      std::set<uint32_t> Reported;
      for (const RootCauseReport &RC : Ladder.Benchmarks[B].Rep.allRootCauses())
        Reported.insert(RC.PC);
      EXPECT_EQ(Reported, Union[B]);
      (Union[B].empty() ? Without : WithRootCause) += 1;
    }
    EXPECT_EQ(Ladder.renderJson(), Merged.renderJson()) << "seed " << Seed;
  }
  // Both sides of the invariant were exercised.
  EXPECT_GT(WithRootCause, 0u);
  EXPECT_GT(Without, 0u);
}

TEST(TraceLadder, ColdRunStoresTraceFreeDocumentsAndWarmRunAnalyzesNone) {
  std::vector<fpcore::Core> Cores = mixedCorpusSubset();
  diffharness::ScratchDir Cache("ladder-cache");
  EngineConfig Cfg = ladderConfig(3);
  Cfg.CacheDir = Cache.Path;
  BatchResult Cold = Engine(Cfg).run(Cores);
  EXPECT_EQ(Cold.Stats.AnalyzedShards, Cold.Stats.Shards);

  std::string Errors;
  size_t TraceFreeDocs = 0;
  for (const ShardDoc &D : diffharness::readShardDocs(Cache.Path, &Errors)) {
    // Only a benchmark with no root cause keeps trace-free documents; a
    // replay overwrote every document of the others.
    ASSERT_LT(D.BenchIndex, Cold.Benchmarks.size());
    if (Cold.Benchmarks[D.BenchIndex].Traced)
      EXPECT_FALSE(D.Result.traceFree()) << D.Benchmark;
    TraceFreeDocs += D.Result.traceFree() ? 1 : 0;
  }
  EXPECT_TRUE(Errors.empty()) << Errors;
  EXPECT_GT(TraceFreeDocs, 0u);
  EXPECT_GT(Cold.Stats.TracedBenchmarks, 0u);

  BatchResult Warm = Engine(Cfg).run(Cores);
  EXPECT_EQ(Warm.Stats.AnalyzedShards, 0u);
  EXPECT_EQ(Warm.Stats.CachedShards, Warm.Stats.Shards);
  EXPECT_EQ(Warm.Stats.ReplayedShards, 0u);
  EXPECT_EQ(Warm.Stats.TraceNodes, 0u);
  EXPECT_EQ(Warm.renderJson(), Cold.renderJson());
  EXPECT_EQ(Cold.renderJson(),
            diffharness::tracedOracleJson(Cores, {}, ladderConfig(1)));
}

TEST(TraceLadder, SliceReplaysTraceFreeDocumentsTraced) {
  std::vector<fpcore::Core> Cores = mixedCorpusSubset();
  diffharness::ScratchDir Cache("ladder-slice");
  EngineConfig Cfg = ladderConfig(2);
  Cfg.CacheDir = Cache.Path;
  Engine(Cfg).run(Cores);
  auto TraceFreeShardZero = [&] {
    size_t N = 0;
    for (const ShardDoc &D : diffharness::readShardDocs(Cache.Path))
      N += D.ShardIndex == 0 && D.Result.traceFree() ? 1 : 0;
    return N;
  };
  size_t Stale = TraceFreeShardZero();
  ASSERT_GT(Stale, 0u);

  // The slice cannot use a trace-free document: it analyzes those shards
  // traced (overwriting them) and takes the traced ones from the cache.
  EngineConfig Slice = Cfg;
  Slice.ShardEnd = 1;
  BatchResult R = Engine(Slice).run(Cores);
  EXPECT_EQ(R.Stats.AnalyzedShards, Stale);
  EXPECT_EQ(R.Stats.CachedShards, R.Stats.Shards - Stale);
  EXPECT_EQ(R.Stats.TraceFreeShards, 0u);
  EXPECT_EQ(TraceFreeShardZero(), 0u);
  EngineConfig Plain = Slice;
  Plain.CacheDir.clear();
  EXPECT_EQ(R.renderJson(), Engine(Plain).run(Cores).renderJson());
}

TEST(TraceLadder, MergeShardsRejectsStrippedTracedDocuments) {
  std::vector<fpcore::Core> Cores = mixedCorpusSubset();
  diffharness::ScratchDir Dir("ladder-strip");
  std::vector<ShardDoc> Docs =
      diffharness::tracedSliceDocs(Cores, {}, ladderConfig(2), Dir.Path);
  std::set<uint64_t> RootCauseBenches;
  for (const ShardDoc &D : Docs)
    if (D.Result.namesRootCause())
      RootCauseBenches.insert(D.BenchIndex);
  ASSERT_FALSE(RootCauseBenches.empty());

  // Strip the expressions from one document of a benchmark that reports a
  // root cause: the merge must refuse rather than drop the root cause.
  size_t Victim = 0;
  while (!RootCauseBenches.count(Docs[Victim].BenchIndex))
    ++Victim;
  Docs[Victim].Result.dropTraces();
  ASSERT_TRUE(Docs[Victim].Result.traceFree());
  std::string StrippedJson = renderShardJson(Docs[Victim]);
  BatchResult Out;
  std::string Err;
  EXPECT_FALSE(mergeShards(std::move(Docs), Out, Err));
  EXPECT_NE(Err.find("trace-free"), std::string::npos) << Err;

  // On the wire, a stripped document that lost its mark is corrupt.
  const std::string Mark = ",\"traceFree\":true";
  size_t At = StrippedJson.find(Mark);
  ASSERT_NE(At, std::string::npos);
  ShardDoc Back;
  EXPECT_TRUE(parseShard(StrippedJson, Back, Err)) << Err;
  StrippedJson.erase(At, Mark.size());
  ShardDoc Unmarked;
  EXPECT_FALSE(parseShard(StrippedJson, Unmarked, Err));
  EXPECT_NE(Err.find("not marked trace-free"), std::string::npos) << Err;
}

TEST(TraceLadder, MixingTraceFreeAndTracedRecordsIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Program P = cancellationKernel();
  AnalysisConfig FreeCfg;
  FreeCfg.TraceFree = true;
  Herbgrind Traced(P), Free(P, FreeCfg);
  for (double X : {1e16, 2e16, 3.5}) {
    Traced.runOnInput({X});
    Free.runOnInput({X});
  }
  AnalysisResult T = Traced.snapshot(), F = Free.snapshot();
  ASSERT_TRUE(F.namesRootCause());
  EXPECT_DEATH(T.mergeFrom(F), "trace-free");
  // The report would have to drop the root cause it cannot render.
  EXPECT_DEATH(buildReport(F), "trace-free");
  // Two trace-free results fold counter-wise; a root-cause-free one
  // builds the traced report's bytes.
  AnalysisResult F2 = Free.snapshot();
  F2.mergeFrom(F);
  EXPECT_EQ(F2.Ops.begin()->second.Executions,
            2 * F.Ops.begin()->second.Executions);
}
