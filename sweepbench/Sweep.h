//===- sweepbench/Sweep.h - Sweep benchmark workloads -----------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sweep benchmark's shared pieces: the four named workloads, their
/// set-up (parse, compile, Engine construction, cache fill), one timed
/// sweep through the public engine::Engine API, and the check of every
/// report against the pinned per-benchmark digests in
/// sweepbench/reference/digests.tsv.
///
//===----------------------------------------------------------------------===//

#ifndef SWEEPBENCH_SWEEP_H
#define SWEEPBENCH_SWEEP_H

#include "engine/Engine.h"
#include "fpcore/FPCore.h"
#include "native/Kernel.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace sweepbench {

using namespace herbgrind;

/// Which benchmarks a workload sweeps.
enum class Pick {
  Loops,    ///< FPCore benchmarks with a while loop, plus the step loop.
  Straight, ///< Loop-free FPCore benchmarks, cancellation and quadratic.
  All,      ///< The whole corpus plus every native kernel.
};

/// One named workload. Every field that changes report bytes is fixed
/// here; the run's seed only selects the sampled input set.
struct Workload {
  const char *Name;
  /// Pinned digest set the reports are checked against. corpus-confirm
  /// checks against full-tier digests, because confirm must equal full.
  const char *Reference;
  Pick Benchmarks;
  engine::TierMode Tier;
  unsigned Jobs;
  int Samples;
  /// Input sets per round: each round sweeps every set once, so a run's
  /// figures average over Sets * Samples inputs per benchmark.
  int Sets;
  /// Fill a result cache during set-up (half JSON, half HGB) and sweep
  /// against it.
  bool WarmCache;
};

const std::vector<Workload> &workloads();
const Workload *findWorkload(const std::string &Name);

/// Pinned input sets: `--seed N` selects seed N mod PinnedSeeds, so every
/// run is checked against reference bytes.
constexpr uint64_t PinnedSeeds = 16;

/// EngineConfig::Seed of input set \p Set under run seed \p Seed.
uint64_t engineSeed(uint64_t Seed, int Set);

/// Everything a workload needs before its first timed sweep.
struct Setup {
  std::vector<fpcore::Core> Cores;
  std::vector<native::Kernel> Kernels;
  /// One engine per input set (the seed is part of EngineConfig).
  std::vector<std::unique_ptr<engine::Engine>> Engines;
  /// Sources that failed to parse or compile (each is a failed benchmark).
  uint64_t SourceFailures = 0;
  /// Cache-fill store failures (warm-cache only).
  uint64_t StoreFailures = 0;
  double ParseSeconds = 0.0;
  double CompileSeconds = 0.0;
  double Seconds = 0.0; ///< The whole set-up, cache fill included.
};

/// Builds the workload's set-up. \p CacheDir (warm-cache only) is emptied
/// and refilled.
Setup makeSetup(const Workload &W, uint64_t Seed, const std::string &CacheDir);

/// One timed sweep: Engine::run to rendered report bytes.
struct SweepOutcome {
  engine::BatchResult Result;
  std::string Doc;
  double Seconds = 0.0;
};

SweepOutcome sweep(Setup &S, int Set);

/// 64-bit FNV-1a, printed as 16 hex digits.
std::string digest(const std::string &Bytes);

/// One benchmark's report section rendered alone (a one-entry batch
/// document), the unit the pinned digests cover.
std::string sectionDigest(const engine::BenchmarkResult &BR);

/// The pinned reference of one (digest set, seed, input set).
struct Reference {
  int Samples = 0;
  std::string DocDigest;
  struct Bench {
    std::string Name;
    std::string Digest;
    bool Erroneous = false; ///< The full-tier report lists an erroneous spot.
  };
  std::vector<Bench> Benchmarks;
};

/// Pinned references by referenceKey.
using References = std::map<std::string, Reference>;

/// Reads the pinned digests; returns false (with \p Err) when the file is
/// missing or malformed.
bool loadReferences(const std::string &Path, References &Out,
                    std::string &Err);

std::string referenceKey(const std::string &DigestSet, uint64_t Seed, int Set);

/// The reference of a workload's input set, or nullptr when none is
/// pinned for it (every benchmark then counts as failed).
const Reference *findReference(const References &Refs, const Workload &W,
                               uint64_t Seed, int Set);

/// What a sweep is checked on: its report digests and I/O failures.
struct Digests {
  std::vector<std::string> Names;
  std::vector<std::string> Sections; ///< sectionDigest per benchmark.
  std::string Doc;                   ///< digest of the whole document.
  uint64_t IoFailures = 0;           ///< Emit and store failures.
};

Digests digestsOf(const SweepOutcome &O);

/// Result of checking sweeps against the reference.
struct Check {
  uint64_t Attempted = 0; ///< Benchmarks checked (summed over sweeps).
  uint64_t Failed = 0;
  bool DocMismatch = false; ///< A whole document differed.
  std::string FirstProblem;

  bool correct() const { return Failed == 0 && !DocMismatch; }
  void fail(uint64_t N, const std::string &Why);
};

/// Checks one sweep against the pinned reference and, when \p Own is
/// given, against another report of the same configuration. A mismatch
/// counts the benchmark as failed; it never aborts the run.
void checkSweep(const Digests &D, const Reference *Ref, const Digests *Own,
                Check &C);

/// warm-cache: folds the shard documents the set-up stored in \p CacheDir
/// (mergeShards) into the report the set-up sweeps produced.
bool reportFromCache(const std::string &CacheDir, SweepOutcome &Out,
                     std::string &Err);

/// Writes the reference file for every digest set and pinned seed.
int pinReferences(const std::string &Path);

/// Seconds on the steady clock since an arbitrary epoch.
double now();

/// Removes a directory tree, ignoring errors.
void removeTree(const std::string &Dir);

/// Heap allocations (global operator new calls) made by this thread.
uint64_t threadHeapAllocs();

} // namespace sweepbench

#endif // SWEEPBENCH_SWEEP_H
