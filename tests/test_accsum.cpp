//===- tests/test_accsum.cpp - Tier-0 clears Kahan, escalates naive -------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The accurate-summation split from examples/accsum.cpp, asserted: a
// naive running sum that drops a thousand sub-ulp addends must trip the
// tier-0 output predicate and escalate to the BigFloat shadow, while
// Kahan's compensated loop -- whose *interval* bound would grow exactly
// as fast as the naive one's -- must be cleared by the running-error
// (Delta, Noise) estimate without a single BigFloat operation. The same
// split is then checked run by run on sampled inputs, and through the
// batch engine's confirm tier, including report byte-identity against the
// full tier.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "herbgrind/Herbgrind.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace herbgrind;
using native::Real;

namespace {

const int Addends = 1000;

void kernelNaiveSum(native::Context &C, const double *, size_t) {
  Real Sum = C.input(0);
  Real X = C.input(1);
  for (int I = 0; I < Addends; ++I) {
    HG_LOC(C);
    Sum += X;
  }
  HG_LOC(C);
  C.output(Sum);
}

void kernelKahanSum(native::Context &C, const double *, size_t) {
  Real Sum = C.input(0);
  Real X = C.input(1);
  Real Comp = 0.0;
  for (int I = 0; I < Addends; ++I) {
    HG_LOC(C);
    Real Y = X - Comp;
    Real T = Sum + Y;
    Comp = (T - Sum) - Y;
    Sum = T;
  }
  HG_LOC(C);
  C.output(Sum);
}

native::Kernel makeKernel(const char *Name, const char *Tag,
                          void (*Fn)(native::Context &, const double *,
                                     size_t)) {
  native::Kernel K;
  K.Name = Name;
  K.Identity = std::string("accsum-test|v1|") + Tag;
  K.Inputs.push_back({1e15, 1e16});
  K.Inputs.push_back({0.5, 1.5});
  K.Fn = Fn;
  return K;
}

/// Benchmark names whose reports contain at least one spot.
std::set<std::string> flaggedBenchmarks(const engine::BatchResult &R) {
  std::set<std::string> Out;
  for (const engine::BenchmarkResult &BR : R.Benchmarks)
    if (!BR.Rep.Spots.empty())
      Out.insert(BR.Name);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// The tier-0 verdict itself, on the canonical inputs
//===----------------------------------------------------------------------===//

TEST(AccSum, NaiveEscalatesKahanClears) {
  native::Kernel Naive = makeKernel("naive", "naive", kernelNaiveSum);
  native::Kernel Kahan = makeKernel("kahan", "kahan", kernelKahanSum);
  const std::vector<double> In = {1e16, 1.0};

  AnalysisConfig PredCfg;
  PredCfg.PredicateOnly = true;

  native::Context CN(PredCfg);
  CN.run(Naive, In);
  EXPECT_TRUE(CN.lastRunSuspect())
      << "naive summation drops ~1000 ulps; tier 0 must escalate it";

  native::Context CK(PredCfg);
  CK.run(Kahan, In);
  EXPECT_FALSE(CK.lastRunSuspect())
      << "Kahan's compensation re-injects every residual tier 0 tracked; "
         "the running-error estimate must clear it";
}

TEST(AccSum, FullShadowAgreesWithTheVerdicts) {
  // What escalation would find: the full analysis flags naive's output
  // and stays quiet on Kahan -- tier 0's verdicts are not just cheap,
  // they point the same way.
  native::Kernel Naive = makeKernel("naive", "naive", kernelNaiveSum);
  native::Kernel Kahan = makeKernel("kahan", "kahan", kernelKahanSum);
  const std::vector<double> In = {1e16, 1.0};

  native::Context Full((AnalysisConfig()));
  Full.run(Naive, In);
  Full.run(Kahan, In);
  Report Rep = buildReport(Full);
  ASSERT_EQ(Rep.Spots.size(), 1u);
  EXPECT_EQ(Rep.Spots[0].Loc.Function, "kernelNaiveSum");
}

//===----------------------------------------------------------------------===//
// Through the batch engine's tiers
//===----------------------------------------------------------------------===//

TEST(AccSum, ConfirmTierSplitsTheBenchmarks) {
  std::vector<native::Kernel> Kernels;
  Kernels.push_back(makeKernel("accsum naive", "naive", kernelNaiveSum));
  Kernels.push_back(makeKernel("accsum kahan", "kahan", kernelKahanSum));
  std::vector<fpcore::Core> NoCores;

  engine::EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 8;
  Cfg.Tier = engine::TierMode::Confirm;
  engine::BatchResult Confirm = engine::Engine(Cfg).run(NoCores, Kernels);

  // Naive must be confirmed (its random runs drop hundreds of ulps);
  // Kahan may occasionally false-positive on unlucky inputs, but a
  // confirmation of a clean benchmark still reports nothing.
  EXPECT_GE(Confirm.Stats.ConfirmedBenchmarks, 1u);
  EXPECT_GT(Confirm.Stats.Tier0Runs, 0u);
  std::set<std::string> Flagged = flaggedBenchmarks(Confirm);
  EXPECT_EQ(Flagged.count("accsum naive"), 1u);
  EXPECT_EQ(Flagged.count("accsum kahan"), 0u);

  // The headline contract, on this workload too: confirm-tier reports
  // are byte-identical to full-tier reports.
  Cfg.Tier = engine::TierMode::Full;
  engine::BatchResult Full = engine::Engine(Cfg).run(NoCores, Kernels);
  EXPECT_EQ(Full.renderJson(), Confirm.renderJson());
  EXPECT_EQ(Full.Stats.ConfirmedBenchmarks, 0u);
}

TEST(AccSum, Tier0EscalatesOnlyWhatItMust) {
  // Per run, on the sampled inputs the engine would draw from: every
  // naive run is suspect; Kahan runs overwhelmingly clear.
  native::Kernel Naive = makeKernel("accsum naive", "naive", kernelNaiveSum);
  native::Kernel Kahan = makeKernel("accsum kahan", "kahan", kernelKahanSum);
  AnalysisConfig PredCfg;
  PredCfg.PredicateOnly = true;
  native::Context CN(PredCfg), CK(PredCfg);
  Rng R(0xacc5u);
  const int Runs = 16;
  int KahanSuspect = 0;
  for (int I = 0; I < Runs; ++I) {
    std::vector<double> In;
    for (const native::Kernel::InputRange &VR : Naive.Inputs)
      In.push_back(R.betweenOrdinals(VR.Lo, VR.Hi));
    CN.run(Naive, In);
    EXPECT_TRUE(CN.lastRunSuspect()) << "naive run " << I;
    CK.run(Kahan, In);
    KahanSuspect += CK.lastRunSuspect() ? 1 : 0;
  }
  EXPECT_LT(KahanSuspect, Runs / 4);
}
