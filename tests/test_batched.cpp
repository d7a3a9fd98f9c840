//===- tests/test_batched.cpp - Sample-batched evaluation -----------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The batched path's contract (docs/ARCHITECTURE.md, "Batched
// evaluation"): processing N sample points per analyzer call is purely a
// scheduling change. (1) Herbgrind::runOnBatch leaves records, verdicts,
// and outputs byte-for-byte equal to N sequential runOnInput calls, both
// in full mode (the scalar fallback) and in predicate-only mode (the
// struct-of-arrays tier-0 runner); (2) engine sweeps render identical
// JSON at every --batch value, across jobs counts, tiers, frontends, and
// non-divisor batch/shard remainders.
//
//===----------------------------------------------------------------------===//

#include "DiffHarness.h"
#include "herbgrind/Herbgrind.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace herbgrind;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// Sampled input tuples for a compiled core, matching the engine's
/// deterministic per-benchmark sampling shape (the exact stream does not
/// matter here -- only that batch and scalar legs see the same one).
std::vector<std::vector<double>> sampleInputs(const fpcore::Core &C,
                                              size_t Count, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<double>> Sets;
  for (size_t I = 0; I < Count; ++I) {
    std::vector<double> In;
    for (const fpcore::VarRange &VR : fpcore::sampleRanges(C))
      In.push_back(R.betweenOrdinals(VR.Lo, VR.Hi));
    Sets.push_back(std::move(In));
  }
  return Sets;
}

/// Renders the analyzer's accumulated records as the comparison string.
std::string reportOf(const Herbgrind &HG) {
  return buildReport(HG.snapshot()).renderJson();
}

//===----------------------------------------------------------------------===//
// runOnBatch vs. sequential runOnInput
//===----------------------------------------------------------------------===//

/// Every corpus benchmark, full shadow: batched records, final verdict,
/// and final outputs must equal the sequential loop's, at lane counts
/// that divide the sample count and ones that do not.
TEST(Batched, FullShadowMatchesScalarOnCorpus) {
  AnalysisConfig Cfg;
  for (const fpcore::Core &C : fpcore::compilableCorpus()) {
    Program P = fpcore::compile(C);
    std::vector<std::vector<double>> Inputs = sampleInputs(C, 10, 0xbadc0de);
    Herbgrind Scalar(P, Cfg);
    for (const std::vector<double> &In : Inputs)
      Scalar.runOnInput(In);
    for (size_t Lanes : {size_t(1), size_t(3), size_t(8), size_t(32)}) {
      Herbgrind Batched(P, Cfg);
      for (size_t I = 0; I < Inputs.size(); I += Lanes)
        Batched.runOnBatch(&Inputs[I],
                           std::min(Lanes, Inputs.size() - I));
      ASSERT_EQ(reportOf(Scalar), reportOf(Batched))
          << C.Name << " lanes=" << Lanes;
      ASSERT_EQ(Scalar.lastRunSuspect(), Batched.lastRunSuspect()) << C.Name;
      ASSERT_EQ(Scalar.lastOutputs().size(), Batched.lastOutputs().size());
      for (size_t I = 0; I < Scalar.lastOutputs().size(); ++I) {
        uint64_t WantBits, GotBits;
        std::memcpy(&WantBits, &Scalar.lastOutputs()[I].F64, sizeof WantBits);
        std::memcpy(&GotBits, &Batched.lastOutputs()[I].F64, sizeof GotBits);
        ASSERT_EQ(WantBits, GotBits) << C.Name;
      }
      // The cost mirror: a batch executes exactly the scalar loop's
      // shadow ops, just grouped (and its step ceiling per lane).
      ASSERT_EQ(Scalar.stats().ShadowOpsExecuted,
                Batched.stats().ShadowOpsExecuted)
          << C.Name << " lanes=" << Lanes;
    }
  }
}

/// Predicate-only mode takes the SoA fast path on straight-line F64
/// programs; per-lane verdicts must equal each input's scalar verdict.
TEST(Batched, PredicateSoAVerdictsMatchScalar) {
  AnalysisConfig Cfg;
  Cfg.PredicateOnly = true;
  size_t SoACovered = 0;
  for (const fpcore::Core &C : fpcore::compilableCorpus()) {
    Program P = fpcore::compile(C);
    std::vector<std::vector<double>> Inputs = sampleInputs(C, 10, 0xfeed);
    Herbgrind Scalar(P, Cfg);
    std::vector<uint8_t> Want;
    for (const std::vector<double> &In : Inputs) {
      Scalar.runOnInput(In);
      Want.push_back(Scalar.lastRunSuspect() ? 1 : 0);
    }
    Herbgrind Batched(P, Cfg);
    // Loop benchmarks are not SoA-batchable (runOnBatch falls back to the
    // sequential path for them); straight-line F64 ones take the SoA fast
    // path, and both must produce identical verdicts.
    if (Batched.soaBatchable())
      ++SoACovered;
    for (size_t I = 0; I < Inputs.size(); I += 3) {
      size_t N = std::min<size_t>(3, Inputs.size() - I);
      Batched.runOnBatch(&Inputs[I], N);
      ASSERT_EQ(Batched.laneSuspects().size(), N) << C.Name;
      for (size_t L = 0; L < N; ++L)
        ASSERT_EQ(Want[I + L] != 0, Batched.laneSuspects()[L] != 0)
            << C.Name << " lane " << L;
    }
    ASSERT_EQ(reportOf(Scalar), reportOf(Batched)) << C.Name;
  }
  // The corpus is straight-line F64 throughout; if nothing took the SoA
  // path this test stopped covering the tentpole.
  EXPECT_GT(SoACovered, 0u);
}

//===----------------------------------------------------------------------===//
// Engine sweeps: --batch is invisible in the report bytes
//===----------------------------------------------------------------------===//

TEST(Batched, EngineSweepByteIdenticalAcrossLanesJobsTiers) {
  std::vector<fpcore::Core> Cores = diffharness::randomCores(0x77, 4);
  std::vector<native::Kernel> Kernels = diffharness::randomKernels(0x77, 2);
  engine::EngineConfig Base;
  Base.SamplesPerBenchmark = 10; // 3 shards of 4,4,2: remainders everywhere
  Base.ShardSize = 4;
  Base.Jobs = 1;
  for (engine::TierMode Tier : {engine::TierMode::Full,
                                engine::TierMode::Confirm,
                                engine::TierMode::Fast}) {
    engine::EngineConfig Cfg = Base;
    Cfg.Tier = Tier;
    std::string Want = diffharness::sweepJson(Cores, Kernels, Cfg);
    for (unsigned Lanes : {1u, 3u, 8u, 32u}) {
      for (unsigned Jobs : {1u, 4u}) {
        Cfg.BatchLanes = Lanes;
        Cfg.Jobs = Jobs;
        ASSERT_EQ(Want, diffharness::sweepJson(Cores, Kernels, Cfg))
            << "tier=" << static_cast<int>(Tier) << " lanes=" << Lanes
            << " jobs=" << Jobs;
      }
    }
  }
}

} // namespace
