//===- tests/test_tiered.cpp - Tiered shadowing differential tests --------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The tiered-shadowing contract, checked differentially against the full
// shadow on seeded random programs (DiffHarness.h) and real benchmarks:
//
//   1. Confirm tier reports are BYTE-identical to full-tier reports --
//      across random FPCore cores, random native kernels, worker counts,
//      cold and warm result caches, the emit/merge-shards path, and
//      merged shard-range slices.
//   2. Tier 0 is sound run by run: every input whose full-shadow run
//      observes an erroneous spot is a suspect run of the predicate-only
//      analyzer, and a benign program has no suspect run.
//   3. The tier accounting holds: clean benchmarks never touch the full
//      shadow in confirm mode, escalation stays below 100% on mixed
//      workloads, and full mode keeps every tier counter at zero.
//
//===----------------------------------------------------------------------===//

#include "DiffHarness.h"

#include "engine/ResultCache.h"
#include "fpcore/Corpus.h"
#include "native/Kernel.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

using namespace herbgrind;
using namespace herbgrind::engine;
using namespace herbgrind::diffharness;

namespace {

/// A scoped temp directory under the system temp root.
struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Tag) {
    Path = (std::filesystem::temp_directory_path() /
            ("herbgrind-tiered-" + Tag + "-" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
};

EngineConfig smallConfig(unsigned Jobs, TierMode Tier) {
  EngineConfig Cfg;
  Cfg.Jobs = Jobs;
  Cfg.SamplesPerBenchmark = 8;
  Cfg.ShardSize = 3;
  Cfg.Tier = Tier;
  return Cfg;
}

/// A benchmark whose spots are clean on every input: well-conditioned
/// addition over a tight range. Tier 0 must never escalate it.
fpcore::Core benignCore() {
  fpcore::ParseResult P = fpcore::parse(
      "(FPCore (x) :name \"benign add\" :pre (<= 1 x 2) (+ x 1))");
  EXPECT_TRUE(P.Ok);
  return std::move(P.Value);
}

/// The canonical erroneous benchmark (catastrophic cancellation).
fpcore::Core cancellingCore() {
  for (const fpcore::Core &C : fpcore::corpus())
    if (C.Name == "NMSE example 3.1")
      return C.clone();
  ADD_FAILURE() << "corpus benchmark missing";
  return benignCore();
}

/// Runs \p Runs sampled inputs through a full-shadow analyzer and a
/// predicate-only one, one run at a time, and checks the per-run
/// soundness contract: a run whose full shadow observes an erroneous spot
/// is suspect at tier 0. Returns the number of suspect runs.
template <typename Analyzer, typename MakeFn, typename RunFn>
int expectTier0FlagsErroneousRuns(
    MakeFn Make, RunFn Run,
    const std::vector<std::pair<double, double>> &Ranges, uint64_t Seed,
    int Runs, const std::string &Ctx) {
  AnalysisConfig PredCfg;
  PredCfg.PredicateOnly = true;
  std::unique_ptr<Analyzer> Full = Make(AnalysisConfig());
  std::unique_ptr<Analyzer> T0 = Make(PredCfg);
  Rng R(Seed);
  int Suspect = 0;
  for (int I = 0; I < Runs; ++I) {
    std::vector<double> In;
    for (const auto &[Lo, Hi] : Ranges)
      In.push_back(R.betweenOrdinals(Lo, Hi));
    Full->reset();
    Run(*Full, In);
    Run(*T0, In);
    Suspect += T0->lastRunSuspect() ? 1 : 0;
    for (const auto &[PC, Spot] : Full->spotRecords())
      EXPECT_TRUE(Spot.Erroneous == 0 || T0->lastRunSuspect())
          << Ctx << " run " << I << ": spot " << PC
          << " is erroneous under the full shadow but tier 0 cleared "
             "the run";
  }
  return Suspect;
}

int expectTier0FlagsErroneousRuns(const fpcore::Core &C, uint64_t Seed,
                                  int Runs) {
  Program P = fpcore::compile(C);
  std::vector<std::pair<double, double>> Ranges;
  for (const fpcore::VarRange &VR : fpcore::sampleRanges(C))
    Ranges.push_back({VR.Lo, VR.Hi});
  return expectTier0FlagsErroneousRuns<Herbgrind>(
      [&P](const AnalysisConfig &A) {
        return std::make_unique<Herbgrind>(P, A);
      },
      [](Herbgrind &HG, const std::vector<double> &In) { HG.runOnInput(In); },
      Ranges, Seed, Runs, C.Name);
}

int expectTier0FlagsErroneousRuns(const native::Kernel &K, uint64_t Seed,
                                  int Runs) {
  std::vector<std::pair<double, double>> Ranges;
  for (const native::Kernel::InputRange &VR : K.Inputs)
    Ranges.push_back({VR.Lo, VR.Hi});
  return expectTier0FlagsErroneousRuns<native::Context>(
      [](const AnalysisConfig &A) {
        return std::make_unique<native::Context>(A);
      },
      [&K](native::Context &C, const std::vector<double> &In) {
        C.run(K, In);
      },
      Ranges, Seed, Runs, K.Name);
}

} // namespace

//===----------------------------------------------------------------------===//
// Confirm tier: byte identity
//===----------------------------------------------------------------------===//

TEST(TieredDiff, ConfirmMatchesFullOnRandomPrograms) {
  for (uint64_t Seed : {0x7001ULL, 0x7002ULL, 0x7003ULL}) {
    std::vector<fpcore::Core> Cores = randomCores(Seed, 6);
    std::vector<native::Kernel> Kernels = randomKernels(Seed, 3);
    std::string Full =
        sweepJson(Cores, Kernels, smallConfig(2, TierMode::Full));
    std::string Confirm =
        sweepJson(Cores, Kernels, smallConfig(2, TierMode::Confirm));
    EXPECT_EQ(Full, Confirm) << "seed " << Seed;
  }
}

TEST(TieredDiff, ConfirmMatchesFullAcrossWorkerCounts) {
  std::vector<fpcore::Core> Cores = randomCores(0x7010, 5);
  std::vector<native::Kernel> Kernels = randomKernels(0x7010, 2);
  std::string Full = sweepJson(Cores, Kernels, smallConfig(1, TierMode::Full));
  for (unsigned Jobs : {1u, 4u, 7u})
    EXPECT_EQ(Full,
              sweepJson(Cores, Kernels, smallConfig(Jobs, TierMode::Confirm)))
        << "jobs " << Jobs;
}

TEST(TieredDiff, ConfirmMatchesFullOnRealBenchmarks) {
  std::vector<fpcore::Core> Cores;
  Cores.push_back(benignCore());
  Cores.push_back(cancellingCore());
  for (const fpcore::Core &C : fpcore::corpus()) {
    if (!fpcore::isCompilable(C))
      continue;
    Cores.push_back(C.clone());
    if (Cores.size() >= 10)
      break;
  }
  const std::vector<native::Kernel> &Kernels = native::demoKernels();
  EXPECT_EQ(sweepJson(Cores, Kernels, smallConfig(3, TierMode::Full)),
            sweepJson(Cores, Kernels, smallConfig(3, TierMode::Confirm)));
}

TEST(TieredDiff, ConfirmSharesFullsCacheBothWays) {
  // Confirm and Full share one config hash: a cold Full sweep warms the
  // cache for a Confirm sweep and vice versa, and the reports stay
  // byte-identical in all four legs.
  std::vector<fpcore::Core> Cores = randomCores(0x7020, 4);
  TempDir Cache("sharedcache");

  EngineConfig FullCfg = smallConfig(2, TierMode::Full);
  FullCfg.CacheDir = Cache.Path;
  EngineConfig ConfCfg = smallConfig(2, TierMode::Confirm);
  ConfCfg.CacheDir = Cache.Path;
  ASSERT_EQ(configHash(FullCfg), configHash(ConfCfg));

  BatchResult FullCold = Engine(FullCfg).run(Cores);
  BatchResult ConfWarm = Engine(ConfCfg).run(Cores);
  EXPECT_EQ(FullCold.renderJson(), ConfWarm.renderJson());
  // Every suspect benchmark's shard came from the cache the Full sweep
  // stored; clean benchmarks skip the cache by design.
  EXPECT_EQ(ConfWarm.Stats.AnalyzedShards, 0u);

  TempDir Cache2("sharedcache2");
  ConfCfg.CacheDir = Cache2.Path;
  FullCfg.CacheDir = Cache2.Path;
  BatchResult ConfCold = Engine(ConfCfg).run(Cores);
  BatchResult FullWarm = Engine(FullCfg).run(Cores);
  EXPECT_EQ(ConfCold.renderJson(), FullWarm.renderJson());
  EXPECT_EQ(FullWarm.renderJson(), FullCold.renderJson());
}

TEST(TieredDiff, ConfirmEmittedShardsMergeToFullReport) {
  std::vector<fpcore::Core> Cores = randomCores(0x7030, 4);
  std::vector<native::Kernel> Kernels = randomKernels(0x7030, 2);
  TempDir Emit("emit");

  EngineConfig Cfg = smallConfig(2, TierMode::Confirm);
  Cfg.EmitShardDir = Emit.Path;
  BatchResult Swept = Engine(Cfg).run(Cores, Kernels);
  ASSERT_EQ(Swept.Stats.EmitFailures, 0u);

  std::vector<ShardDoc> Docs;
  std::vector<std::string> Paths;
  for (const auto &E : std::filesystem::directory_iterator(Emit.Path))
    Paths.push_back(E.path().string());
  std::sort(Paths.begin(), Paths.end());
  for (const std::string &P : Paths) {
    std::string Text, Err;
    ASSERT_TRUE(readFile(P, Text)) << P;
    ShardDoc Doc;
    ASSERT_TRUE(parseShardJson(Text, Doc, Err)) << P << ": " << Err;
    Docs.push_back(std::move(Doc));
  }
  ASSERT_EQ(Docs.size(), Swept.Stats.Shards);

  BatchResult Merged;
  std::string Err, Warnings;
  ASSERT_TRUE(mergeShards(std::move(Docs), Merged, Err, &Warnings)) << Err;
  EXPECT_TRUE(Warnings.empty()) << Warnings;
  EXPECT_EQ(Merged.renderJson(), Swept.renderJson());
  EXPECT_EQ(Merged.renderJson(),
            sweepJson(Cores, Kernels, smallConfig(1, TierMode::Full)));
}

TEST(TieredDiff, ConfirmSlicesMergeToWholeConfirmReport) {
  // Every slice takes its tier-0 verdict from the whole layout, so a
  // benchmark that only one slice's own shards would confirm is
  // confirmed (and analyzed) by every slice alike.
  std::vector<fpcore::Core> Cores = randomCores(0x7035, 6);
  for (const fpcore::Core &C : fpcore::corpus())
    if (fpcore::isCompilable(C))
      Cores.push_back(C.clone());
  std::vector<native::Kernel> Kernels = randomKernels(0x7035, 3);
  EngineConfig Cfg = smallConfig(2, TierMode::Confirm);
  Cfg.SamplesPerBenchmark = 16;
  Cfg.ShardSize = 4;
  ScratchDir Dir("confirm-slices");
  BatchResult Merged;
  std::string Err;
  ASSERT_TRUE(mergeShards(tracedSliceDocs(Cores, Kernels, Cfg, Dir.Path),
                          Merged, Err))
      << Err;
  EXPECT_EQ(Merged.renderJson(), sweepJson(Cores, Kernels, Cfg));
}

//===----------------------------------------------------------------------===//
// Tier 0, run by run
//===----------------------------------------------------------------------===//

TEST(Tier0Runs, FlagsEveryRunWithAnErroneousSpot) {
  // Predicate soundness at the run level: every input on which the full
  // shadow observes an erroneous spot is a suspect tier-0 run.
  EXPECT_GT(expectTier0FlagsErroneousRuns(cancellingCore(), 0x7041, 32), 0);
  for (uint64_t Seed : {0x7050ULL, 0x7051ULL}) {
    for (const fpcore::Core &C : randomCores(Seed, 6))
      expectTier0FlagsErroneousRuns(C, Seed, 16);
    for (const native::Kernel &K : randomKernels(Seed, 3))
      expectTier0FlagsErroneousRuns(K, Seed, 16);
  }
}

TEST(Tier0Runs, BenignCoreHasNoSuspectRun) {
  EXPECT_EQ(expectTier0FlagsErroneousRuns(benignCore(), 0x7042, 32), 0);
}

//===----------------------------------------------------------------------===//
// Tier accounting
//===----------------------------------------------------------------------===//

TEST(TieredStats, CleanBenchmarkNeverTouchesTheFullShadow) {
  std::vector<fpcore::Core> Cores;
  Cores.push_back(benignCore());
  BatchResult R = Engine(smallConfig(2, TierMode::Confirm)).run(Cores);
  EXPECT_EQ(R.Stats.ConfirmedBenchmarks, 0u);
  EXPECT_EQ(R.Stats.AnalyzedShards, 0u);
  EXPECT_EQ(R.Stats.EscalatedRuns, 0u);
  EXPECT_GT(R.Stats.Tier0Runs, 0u);
  EXPECT_GT(R.Stats.Tier0Ops, 0u);
  // The skipped benchmark still reports its full layout...
  ASSERT_EQ(R.Benchmarks.size(), 1u);
  EXPECT_EQ(R.Benchmarks[0].Runs, 8u);
  EXPECT_EQ(R.Benchmarks[0].Shards, 3u);
  // ...and an empty report, exactly like the full sweep's.
  EXPECT_TRUE(R.Benchmarks[0].Rep.Spots.empty());
  EXPECT_EQ(R.renderJson(),
            Engine(smallConfig(2, TierMode::Full)).run(Cores).renderJson());
}

TEST(TieredStats, ErroneousBenchmarkConfirms) {
  std::vector<fpcore::Core> Cores;
  Cores.push_back(cancellingCore());
  Cores.push_back(benignCore());
  BatchResult R = Engine(smallConfig(2, TierMode::Confirm)).run(Cores);
  EXPECT_EQ(R.Stats.ConfirmedBenchmarks, 1u);
  EXPECT_GT(R.Stats.EscalatedRuns, 0u);
  // Escalation stays strictly below the sweep: the benign benchmark's
  // runs never replay.
  EXPECT_LT(R.Stats.EscalatedRuns, R.Stats.Runs);
}

TEST(TieredStats, FullModeKeepsTierCountersAtZero) {
  std::vector<fpcore::Core> Cores;
  Cores.push_back(cancellingCore());
  BatchResult R = Engine(smallConfig(2, TierMode::Full)).run(Cores);
  EXPECT_EQ(R.Stats.Tier0Runs, 0u);
  EXPECT_EQ(R.Stats.Tier0Ops, 0u);
  EXPECT_EQ(R.Stats.EscalatedRuns, 0u);
  EXPECT_EQ(R.Stats.ConfirmedBenchmarks, 0u);
}

//===----------------------------------------------------------------------===//
// The trace ladder under every tier: byte identity with the traced oracle
//===----------------------------------------------------------------------===//

namespace {

/// Checks \p Cores + \p Kernels at every tier and at jobs 1 and 4: the
/// whole-layout sweep (trace-free pass, traced replay) renders the bytes
/// the traced oracle folds, traces exactly the benchmarks that report a
/// root cause, and builds no trace node for the others.
void expectLadderMatchesTracedOracle(
    const std::vector<fpcore::Core> &Cores,
    const std::vector<native::Kernel> &Kernels, const std::string &Ctx) {
  for (TierMode Tier : {TierMode::Full, TierMode::Confirm}) {
    std::string Oracle =
        tracedOracleJson(Cores, Kernels, smallConfig(1, Tier));
    for (unsigned Jobs : {1u, 4u}) {
      std::string Where = Ctx + " tier " +
                          std::to_string(static_cast<int>(Tier)) + " jobs " +
                          std::to_string(Jobs);
      BatchResult R = Engine(smallConfig(Jobs, Tier)).run(Cores, Kernels);
      EXPECT_EQ(R.renderJson(), Oracle) << Where;
      EXPECT_GT(R.Stats.TraceFreeShards, 0u) << Where;
      for (const BenchmarkResult &BR : R.Benchmarks) {
        EXPECT_EQ(BR.Traced, !BR.Rep.allRootCauses().empty())
            << Where << " " << BR.Name;
        if (!BR.Traced)
          EXPECT_EQ(BR.TraceNodes, 0u) << Where << " " << BR.Name;
      }
    }
  }
}

} // namespace

TEST(TraceLadder, MatchesTracedOracleOnRandomPrograms) {
  for (uint64_t Seed : {0x7101ULL, 0x7102ULL}) {
    std::vector<fpcore::Core> Cores = randomCores(Seed, 6);
    std::vector<native::Kernel> Kernels = randomKernels(Seed, 3);
    expectLadderMatchesTracedOracle(Cores, Kernels,
                                    "seed " + std::to_string(Seed));
  }
}

TEST(TraceLadder, MatchesTracedOracleOnCorpusAndDemoKernels) {
  std::vector<fpcore::Core> Cores;
  for (const fpcore::Core &C : fpcore::corpus())
    if (fpcore::isCompilable(C))
      Cores.push_back(C.clone());
  expectLadderMatchesTracedOracle(Cores, native::demoKernels(), "corpus");
}
