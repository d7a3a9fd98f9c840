//===- bench/bench_engine_scaling.cpp - Batch engine thread scaling -------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// Measures the batch engine's throughput as worker count grows: the whole
// compilable corpus is analyzed at --jobs 1, 2, 4, ... up to (at least) 8
// and the hardware concurrency, reporting wall time, speedup, and
// parallel efficiency. Every configuration's report is checked to be
// byte-identical to the single-worker report, so the table doubles as a
// determinism audit.
//
// The run also probes the allocation-free shadow hot path: a steady-state
// single-benchmark analysis is timed against the uninstrumented
// interpreter (the Table 1 "Herbgrind overhead" shape) while the
// per-thread limb allocator's counters verify that shadowed operations
// perform zero heap allocations.
//
// Everything is recorded to a machine-readable JSON file (default
// BENCH_engine.json, or --json-out FILE) so the perf trajectory is
// tracked commit over commit. Each sweep-shaped section additionally
// appends a run-ledger entry (default BENCH_ledger/, or
// --ledger-dir DIR) so `herbgrind_batch ledger compare` can judge the
// trajectory without re-parsing bench JSON.
//
// With a cache directory argument, a cold/warm pair of runs at the top
// jobs count additionally measures the result cache: the warm sweep must
// analyze zero shards and emit the same bytes.
//
// A trace-arena probe runs a 10^5-iteration loop chain through the arena
// and anti-unification and gates its trace nodes per op, its live-node
// high watermark and its steady-state heap allocations per op (counted by
// the global operator new in CountingNew.cpp), which do not depend on the
// hardware, under fixed ceilings.
//
// A kernel probe times the 256-bit shadow-real kernels (ns per call) and
// gates each against mul (sqrt against div) timed in the same process, so
// the ceilings are ratios that hold on any machine.
//
// Usage: bench_engine_scaling [--json-out FILE] [--ledger-dir DIR]
//                             [samples-per-benchmark] [shard-size]
//                             [cache-dir]
// --help prints the usage and runs nothing; an unknown flag or a
// non-numeric count exits with status 2.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/OpProfile.h"
#include "engine/Engine.h"
#include "engine/ResultCache.h"
#include "engine/RunLedger.h"
#include "improve/BatchImprove.h"
#include "native/Context.h"
#include "native/Kernel.h"
#include "real/RealMath.h"
#include "support/Format.h"
#include "support/LimbAlloc.h"
#include "support/Metrics.h"
#include "trace/SymExpr.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace herbgrind;
using namespace herbgrind::bench;
using namespace herbgrind::engine;

namespace herbgrind::bench {
/// Heap allocations made so far on the calling thread (CountingNew.cpp).
uint64_t threadHeapAllocs();
} // namespace herbgrind::bench

namespace {

/// Steady-state shadow hot path probe: analyze one transcendental-free
/// corpus benchmark repeatedly with one reused Herbgrind instance, and
/// count limb-cache heap allocations once the caches are warm.
struct HotPathProbe {
  double NativeSeconds = 0.0;
  double HerbgrindSeconds = 0.0;
  uint64_t ShadowOps = 0;
  uint64_t SteadyHeapAllocs = 0;
  uint64_t SteadyCacheHits = 0;
  bool Ok = false;
};

HotPathProbe runHotPathProbe() {
  HotPathProbe Probe;
  const int Samples = 64;
  for (const fpcore::Core &C : fpcore::corpus()) {
    if (!isStraightLine(*C.Body) || !fpcore::isCompilable(C))
      continue;
    Program P = fpcore::compile(C);
    std::vector<std::vector<double>> Inputs = sampleInputs(C, Samples);

    // Warm the native baseline the same way the instrumented run is
    // warmed below, so the recorded overhead factor compares steady
    // state to steady state.
    for (const auto &In : Inputs)
      interpret(P, In);
    Probe.NativeSeconds += timeIt([&] {
      for (const auto &In : Inputs)
        interpret(P, In);
    });

    Herbgrind HG(P);
    // Warm-up pass: populates the limb cache, pool slabs, and constant
    // caches; its allocations are one-time setup, not per-op cost.
    for (const auto &In : Inputs)
      HG.runOnInput(In);
    uint64_t Ops0 = HG.stats().ShadowOpsExecuted;
    limballoc::resetCounters();
    Probe.HerbgrindSeconds += timeIt([&] {
      for (const auto &In : Inputs)
        HG.runOnInput(In);
    });
    Probe.SteadyHeapAllocs += limballoc::heapAllocs();
    Probe.SteadyCacheHits += limballoc::cacheHits();
    Probe.ShadowOps += HG.stats().ShadowOpsExecuted - Ops0;
  }
  Probe.Ok = Probe.ShadowOps > 0;
  return Probe;
}

/// Native-frontend overhead probe: the same quadratic-root kernel run
/// four ways -- raw doubles, native::Real under a Context, the
/// uninstrumented interpreter, and the instrumented interpreter -- so the
/// per-op cost of the operator-overloading frontend is tracked against
/// both the hardware floor and the IR path it bypasses.
struct NativeProbe {
  double RawSeconds = 0.0;
  double NativeSeconds = 0.0;
  double InterpSeconds = 0.0;
  double HerbgrindSeconds = 0.0;
  uint64_t ShadowOps = 0;
};

NativeProbe runNativeProbe() {
  using herbgrind::native::Real;
  const int Samples = 512;
  const int Reps = 4;

  // One input set for all four implementations.
  Rng R(0x5eed);
  std::vector<std::array<double, 3>> Inputs;
  Inputs.reserve(Samples);
  for (int I = 0; I < Samples; ++I)
    Inputs.push_back({R.betweenOrdinals(1.0, 10.0),
                      R.betweenOrdinals(100.0, 1e6),
                      R.betweenOrdinals(1.0, 10.0)});

  NativeProbe Probe;

  // Raw doubles: the hardware floor. The accumulated sink keeps the
  // optimizer honest.
  volatile double Sink = 0.0;
  for (const auto &In : Inputs) // warm
    Sink += (-In[1] + std::sqrt(In[1] * In[1] - 4.0 * In[0] * In[2])) /
            (2.0 * In[0]);
  Probe.RawSeconds = timeIt([&] {
    for (int Rep = 0; Rep < Reps; ++Rep)
      for (const auto &In : Inputs)
        Sink += (-In[1] + std::sqrt(In[1] * In[1] - 4.0 * In[0] * In[2])) /
                (2.0 * In[0]);
  });

  // native::Real under a steady-state context, running the *registered*
  // quadratic kernel so the bench times exactly the code the engine
  // sweeps (one definition, no drift).
  const herbgrind::native::Kernel *QK = nullptr;
  for (const herbgrind::native::Kernel &K : herbgrind::native::demoKernels())
    if (K.Name == "native quadratic root")
      QK = &K;
  if (!QK) {
    std::fprintf(stderr, "native probe: quadratic demo kernel missing\n");
    return Probe;
  }
  herbgrind::native::Context Ctx;
  auto NativeOnce = [&](const std::array<double, 3> &In) {
    Ctx.run(*QK, In.data(), In.size());
  };
  for (const auto &In : Inputs) // warm-up: pools, caches, site table
    NativeOnce(In);
  uint64_t Ops0 = Ctx.stats().ShadowOpsExecuted;
  Probe.NativeSeconds = timeIt([&] {
    for (int Rep = 0; Rep < Reps; ++Rep)
      for (const auto &In : Inputs)
        NativeOnce(In);
  });
  Probe.ShadowOps = Ctx.stats().ShadowOpsExecuted - Ops0;

  // The same math as hand-built IR, uninstrumented and instrumented.
  ProgramBuilder PB;
  auto A = PB.input(0);
  auto B = PB.input(1);
  auto Cc = PB.input(2);
  auto Disc = PB.op(Opcode::SubF64, PB.op(Opcode::MulF64, B, B),
                    PB.op(Opcode::MulF64,
                          PB.op(Opcode::MulF64, PB.constF64(4.0), A), Cc));
  auto Root = PB.op(
      Opcode::DivF64,
      PB.op(Opcode::AddF64, PB.op(Opcode::NegF64, B),
            PB.op(Opcode::SqrtF64, Disc)),
      PB.op(Opcode::MulF64, PB.constF64(2.0), A));
  PB.out(Root);
  PB.halt();
  Program P = PB.finish();

  std::vector<std::vector<double>> InputVecs;
  InputVecs.reserve(Inputs.size());
  for (const auto &In : Inputs)
    InputVecs.push_back({In[0], In[1], In[2]});

  for (const auto &In : InputVecs)
    interpret(P, In);
  Probe.InterpSeconds = timeIt([&] {
    for (int Rep = 0; Rep < Reps; ++Rep)
      for (const auto &In : InputVecs)
        interpret(P, In);
  });

  Herbgrind HG(P);
  for (const auto &In : InputVecs)
    HG.runOnInput(In);
  Probe.HerbgrindSeconds = timeIt([&] {
    for (int Rep = 0; Rep < Reps; ++Rep)
      for (const auto &In : InputVecs)
        HG.runOnInput(In);
  });
  return Probe;
}

/// Trace-arena probe: the accumulation chain s = s + x_i of the loop
/// benchmarks, run through the arena the way one shadowed op uses it --
/// build the node, anti-unify it into the site's symbolic expression,
/// drop the overwritten trace. Nodes per op, the live-node high watermark
/// and heap allocations per op over the second half of the chain (its
/// steady state) are exact counts, so they are gated; ns per op is
/// recorded.
struct TraceProbe {
  static constexpr uint64_t Iterations = 100000;
  uint32_t MaxDepth = AnalysisConfig().MaxExprDepth;
  double NodesPerOp = 0.0;
  size_t LiveHigh = 0;
  double HeapAllocsPerOp = 0.0;
  double NsPerOp = 0.0;

  /// Ceilings: a bounded arena allocates the op node, its fresh leaf and
  /// an amortized trimmed copy per op, and holds at most a few chain
  /// lengths of nodes at once; a steady-state round never reaches the heap.
  double nodesPerOpCeiling() const { return 4.0; }
  size_t liveHighCeiling() const { return 6 * size_t(MaxDepth); }
  bool bounded() const {
    return NodesPerOp <= nodesPerOpCeiling() && LiveHigh <= liveHighCeiling();
  }
  bool allocationFree() const { return HeapAllocsPerOp == 0.0; }
};

TraceProbe runTraceProbe() {
  TraceProbe Probe;
  TraceArena Arena(Probe.MaxDepth, AnalysisConfig().EquivDepth);
  TraceNode *Sum = Arena.leaf(0.0);
  std::unique_ptr<SymExpr> Expr;
  uint32_t NextVar = 0;
  AntiUnifyScratch Scratch;
  double S = 0.0;
  uint64_t SteadyAllocs0 = 0;
  double Seconds = timeIt([&] {
    for (uint64_t I = 1; I <= TraceProbe::Iterations; ++I) {
      if (I == TraceProbe::Iterations / 2 + 1)
        SteadyAllocs0 = threadHeapAllocs();
      double X = 1.0 / static_cast<double>(I);
      S += X;
      TraceNode *Kids[2] = {Sum, Arena.leaf(X)};
      TraceNode *Next = Arena.node(Opcode::AddF64, 0, S, Kids, 2);
      Arena.release(Kids[1]);
      if (Expr)
        antiUnify(Arena, *Expr, Next, NextVar, Scratch);
      else
        Expr = symbolize(Arena, Next);
      // Sampled while the overwritten trace is still held: the peak.
      Probe.LiveHigh = std::max(Probe.LiveHigh, Arena.liveNodes());
      Arena.release(Sum);
      Sum = Next;
    }
  });
  Probe.HeapAllocsPerOp =
      static_cast<double>(threadHeapAllocs() - SteadyAllocs0) /
      static_cast<double>(TraceProbe::Iterations / 2);
  Arena.release(Sum);
  Probe.NodesPerOp = static_cast<double>(Arena.totalAllocated()) /
                     static_cast<double>(TraceProbe::Iterations);
  Probe.NsPerOp = 1e9 * Seconds / static_cast<double>(TraceProbe::Iterations);
  return Probe;
}

/// Shadow-real kernel probe: ns per call at the default 256-bit precision
/// on full-mantissa arguments. Each kernel but mul is gated by a ceiling
/// on its cost relative to a base kernel timed in the same process.
struct KernelProbe {
  struct Row {
    const char *Name;
    double Ns;
    const char *Base; ///< Null for mul itself.
    double Ceiling;   ///< Ceiling on Ns / ns(Base).
    double ratio(const KernelProbe &P) const { return Ns / P.ns(Base); }
  };
  std::vector<Row> Rows;

  double ns(const char *Name) const {
    for (const Row &R : Rows)
      if (std::strcmp(R.Name, Name) == 0)
        return R.Ns;
    return 0.0;
  }
  bool withinCeilings() const {
    for (const Row &R : Rows)
      if (R.Base && !(R.ratio(*this) <= R.Ceiling))
        return false;
    return !Rows.empty();
  }
};

KernelProbe runKernelProbe() {
  const size_t Prec = 256;
  Rng R(1414);
  // Quotients of doubles fill all 256 mantissa bits, like shadow values.
  auto Full = [&](double Lo, double Hi) {
    return BigFloat::div(BigFloat::fromDouble(R.uniformReal(Lo, Hi), Prec),
                         BigFloat::fromDouble(R.uniformReal(1.0, 3.0), Prec));
  };
  std::vector<BigFloat> A, B, Pos;
  for (int I = 0; I < 64; ++I) {
    A.push_back(Full(-8.0, 8.0));
    B.push_back(Full(-8.0, 8.0));
    Pos.push_back(Full(0.5, 8.0));
  }
  struct Spec {
    const char *Name;
    std::function<BigFloat(size_t)> Fn;
    const char *Base;
    double Ceiling;
  };
  const Spec Specs[] = {
      {"mul", [&](size_t I) { return BigFloat::mul(A[I], B[I]); }, nullptr,
       0.0},
      {"add", [&](size_t I) { return BigFloat::add(A[I], B[I]); }, "mul", 4},
      {"div", [&](size_t I) { return BigFloat::div(A[I], Pos[I]); }, "mul",
       8},
      {"sqrt", [&](size_t I) { return BigFloat::sqrt(Pos[I]); }, "div", 16},
      {"exp", [&](size_t I) { return realmath::exp(A[I]); }, "mul", 150},
      {"log", [&](size_t I) { return realmath::log(Pos[I]); }, "mul", 150},
      {"sin", [&](size_t I) { return realmath::sin(A[I]); }, "mul", 150},
      {"atan", [&](size_t I) { return realmath::atan(A[I]); }, "mul", 400},
      {"pow", [&](size_t I) { return realmath::pow(Pos[I], A[I]); }, "mul",
       500},
  };
  KernelProbe Probe;
  for (const Spec &S : Specs) {
    const int Passes = 8;
    double Best = 1e30;
    for (int Rep = 0; Rep < 6; ++Rep) { // the first round warms the caches
      double Seconds = timeIt([&] {
        for (int P = 0; P < Passes; ++P)
          for (size_t I = 0; I < A.size(); ++I)
            if (S.Fn(I).isNaN())
              std::abort();
      });
      if (Rep > 0)
        Best = std::min(Best, Seconds);
    }
    Probe.Rows.push_back(
        {S.Name, 1e9 * Best / (Passes * static_cast<double>(A.size())),
         S.Base, S.Ceiling});
  }
  return Probe;
}

void printUsage(std::FILE *Out, const char *Argv0) {
  std::fprintf(Out,
               "usage: %s [--json-out FILE] [--ledger-dir DIR]\n"
               "         [samples-per-benchmark] [shard-size] [cache-dir]\n"
               "  --json-out FILE   perf record (default BENCH_engine.json)\n"
               "  --ledger-dir DIR  run-ledger directory (default "
               "BENCH_ledger)\n"
               "  samples-per-benchmark (default 32) and shard-size "
               "(default 4) are\n"
               "  non-negative integers; a cache-dir adds the cold/warm "
               "cache pair\n",
               Argv0);
}

/// Parses a non-negative decimal count that fits an int.
bool parseCount(const char *S, int &Out) {
  if (!*S)
    return false;
  long long V = 0;
  for (const char *P = S; *P; ++P) {
    if (*P < '0' || *P > '9')
      return false;
    V = V * 10 + (*P - '0');
    if (V > INT32_MAX)
      return false;
  }
  Out = static_cast<int>(V);
  return true;
}

/// The trace ladder's hardware-independent counters: the corpus plus the
/// native demo kernels, full tier, one worker, fixed sampling (so the
/// numbers do not depend on the bench's arguments). A benchmark finalized
/// trace-free must have built no trace node, replays stay at or below one
/// per traced benchmark, and trace nodes per reported root cause stay
/// under a ceiling pinned 10% above the first measurement.
struct LadderProbe {
  static constexpr int Samples = 16;
  static constexpr int ShardSize = 4;
  static constexpr double NodesPerRootCauseCeiling = 117.6;
  EngineStats Stats;
  uint64_t RootCauses = 0;
  uint64_t TraceFreeBenchmarks = 0;
  uint64_t TraceFreeNodes = 0; ///< Trace nodes of trace-free benchmarks.
  bool ByteIdentical = false;
  std::string Err;

  double nodesPerRootCause() const {
    return RootCauses ? static_cast<double>(Stats.TraceNodes) / RootCauses
                      : 0.0;
  }
  bool ok() const {
    return ByteIdentical && TraceFreeNodes == 0 &&
           Stats.ReplayedShards <= Stats.TracedBenchmarks &&
           nodesPerRootCause() <= NodesPerRootCauseCeiling;
  }
};

LadderProbe runLadderProbe(const std::vector<fpcore::Core> &Cores,
                           const std::vector<native::Kernel> &Kernels) {
  LadderProbe LP;
  EngineConfig Cfg;
  Cfg.Jobs = 1;
  Cfg.SamplesPerBenchmark = LadderProbe::Samples;
  Cfg.ShardSize = LadderProbe::ShardSize;
  BatchResult R = Engine(Cfg).run(Cores, Kernels);
  LP.Stats = R.Stats;
  for (const BenchmarkResult &BR : R.Benchmarks) {
    LP.RootCauses += BR.Rep.allRootCauses().size();
    if (!BR.Traced) {
      ++LP.TraceFreeBenchmarks;
      LP.TraceFreeNodes += BR.TraceNodes;
    }
  }

  // The traced oracle: two slices (shard 0, then the rest) cannot see the
  // merged verdict, so they analyze every shard traced; their emitted
  // documents, merged, must render the ladder run's bytes.
  std::string Dir =
      (std::filesystem::temp_directory_path() /
       ("herbgrind-bench-ladder-" + std::to_string(::getpid())))
          .string();
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  EngineConfig A = Cfg, B = Cfg;
  A.ShardEnd = 1;
  B.ShardBegin = 1;
  A.EmitShardDir = B.EmitShardDir = Dir;
  B.WireFormat = WireEncoding::Binary;
  Engine(A).run(Cores, Kernels);
  Engine(B).run(Cores, Kernels);
  std::vector<ShardDoc> Docs;
  for (const auto &E : std::filesystem::directory_iterator(Dir, Ec)) {
    std::string Text;
    ShardDoc D;
    if (!readFile(E.path().string(), Text) || !parseShard(Text, D, LP.Err))
      break;
    Docs.push_back(std::move(D));
  }
  std::filesystem::remove_all(Dir, Ec);
  BatchResult Merged;
  if (LP.Err.empty() && mergeShards(std::move(Docs), Merged, LP.Err))
    LP.ByteIdentical = Merged.renderJson() == R.renderJson();
  return LP;
}

} // namespace

int main(int Argc, char **Argv) {
  EngineConfig Cfg;
  std::string JsonOut = "BENCH_engine.json";
  std::string LedgerDir = "BENCH_ledger";
  std::vector<const char *> Positional;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--help") == 0 ||
        std::strcmp(Argv[I], "-h") == 0) {
      printUsage(stdout, Argv[0]);
      return 0;
    }
    if (std::strcmp(Argv[I], "--json-out") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: --json-out needs a file path\n");
        return 2;
      }
      JsonOut = Argv[++I];
    } else if (std::strcmp(Argv[I], "--ledger-dir") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: --ledger-dir needs a directory\n");
        return 2;
      }
      LedgerDir = Argv[++I];
    } else if (Argv[I][0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Argv[I]);
      printUsage(stderr, Argv[0]);
      return 2;
    } else {
      Positional.push_back(Argv[I]);
    }
  }
  Cfg.SamplesPerBenchmark = 32;
  Cfg.ShardSize = 4;
  if (Positional.size() > 3 ||
      (Positional.size() > 0 &&
       !parseCount(Positional[0], Cfg.SamplesPerBenchmark)) ||
      (Positional.size() > 1 && !parseCount(Positional[1], Cfg.ShardSize))) {
    std::fprintf(stderr, "error: expected [samples-per-benchmark] "
                         "[shard-size] [cache-dir], counts as integers\n");
    printUsage(stderr, Argv[0]);
    return 2;
  }
  // One ledger entry per sweep-shaped section, so the perf trajectory is
  // queryable by the same `ledger compare` machinery the engine uses.
  auto AppendLedger = [&LedgerDir](const EngineConfig &SecCfg,
                                   const EngineStats &Stats,
                                   const char *Label) {
    LedgerEntry E = makeLedgerEntry(SecCfg, Stats, Label);
    std::string Path, Err;
    if (!ledgerAppend(LedgerDir, E, WireEncoding::Json, Path, Err)) {
      std::fprintf(stderr, "FAIL: ledger append (%s): %s\n", Label,
                   Err.c_str());
      return false;
    }
    return true;
  };

  unsigned HW = std::thread::hardware_concurrency();
  if (HW == 0)
    HW = 1;
  std::vector<unsigned> JobCounts;
  for (unsigned J = 1; J <= std::max(8u, HW); J *= 2)
    JobCounts.push_back(J);
  if (JobCounts.back() != HW && HW > 1)
    JobCounts.push_back(HW);
  std::sort(JobCounts.begin(), JobCounts.end());
  JobCounts.erase(std::unique(JobCounts.begin(), JobCounts.end()),
                  JobCounts.end());

  std::printf("batch engine scaling: corpus sweep, %d samples/benchmark, "
              "shard size %d, %u hardware threads\n\n",
              Cfg.SamplesPerBenchmark, Cfg.ShardSize, HW);
  std::printf("%6s %10s %10s %9s %11s  %s\n", "jobs", "wall(s)", "runs/s",
              "speedup", "efficiency", "deterministic");

  std::string JobsJson;
  std::string Reference;
  double BaseSeconds = 0.0;
  BatchResult LastResult; // top-jobs sweep, reused by the improver probe
  for (unsigned J : JobCounts) {
    Cfg.Jobs = J;
    Engine Eng(Cfg); // fresh engine: cache warmup is part of every run
    BatchResult R = Eng.runCorpus();
    std::string Rendered = R.renderJson();
    if (Reference.empty()) {
      Reference = Rendered;
      BaseSeconds = R.Stats.WallSeconds;
    }
    bool Identical = Rendered == Reference;
    double Speedup = R.Stats.WallSeconds > 0.0
                         ? BaseSeconds / R.Stats.WallSeconds
                         : 0.0;
    // The gate on this loop is byte-identity alone. Speedup is recorded
    // but only *expected* while the added workers map onto real hardware
    // threads; oversubscribed rows (J > HW -- the whole table on a
    // single-core container) are annotated so downstream consumers never
    // read flat scaling there as a regression.
    std::printf("%6u %10.3f %10.0f %8.2fx %10.1f%%  %s%s\n", J,
                R.Stats.WallSeconds,
                R.Stats.Runs / std::max(R.Stats.WallSeconds, 1e-9),
                Speedup, 100.0 * Speedup / J,
                Identical ? "yes" : "NO -- BUG",
                J > HW ? "  (oversubscribed; no speedup expected)" : "");
    if (!Identical)
      return 1;
    if (!JobsJson.empty())
      JobsJson += ",";
    JobsJson += format(
        "{\"jobs\":%u,\"wall_s\":%s,\"runs\":%llu,\"runs_per_s\":%s,"
        "\"speedup\":%s,\"speedup_expected\":%s,\"deterministic\":true}",
        J, formatDoubleShortest(R.Stats.WallSeconds).c_str(),
        static_cast<unsigned long long>(R.Stats.Runs),
        formatDoubleShortest(R.Stats.Runs /
                             std::max(R.Stats.WallSeconds, 1e-9))
            .c_str(),
        formatDoubleShortest(Speedup).c_str(), J <= HW ? "true" : "false");
    LastResult = std::move(R);
  }
  // The corpus sweep's accumulated metrics: the realistic telemetry
  // document the merge-overhead probe folds below.
  metrics::Snapshot SweepSnap = metrics::snapshot();
  if (!AppendLedger(Cfg, LastResult.Stats, "scaling"))
    return 1;

  // Batch-improver throughput: run the corpus-wide repair pass over the
  // top-jobs sweep's merged root causes, so improver speed is tracked
  // commit over commit like shadow-op throughput.
  improve::BatchImproveConfig BCfg;
  BCfg.Jobs = JobCounts.back();
  improve::BatchImproveStats IStats = improve::batchImprove(LastResult, BCfg);
  double RecordsPerS =
      IStats.WallSeconds > 0.0 ? IStats.Candidates / IStats.WallSeconds : 0.0;
  std::printf("\nbatch improver (jobs %u): %llu root causes (%llu "
              "significant, %llu improved) in %.3fs (%.0f records/s)\n",
              BCfg.Jobs,
              static_cast<unsigned long long>(IStats.Candidates),
              static_cast<unsigned long long>(IStats.Significant),
              static_cast<unsigned long long>(IStats.Improved),
              IStats.WallSeconds, RecordsPerS);

  // The allocation-free hot path probe (bench_table1_overhead's Herbgrind
  // row, instrumented): zero steady-state heap allocations is the
  // structural claim; the overhead factor is the perf trajectory number.
  HotPathProbe Probe = runHotPathProbe();
  double Overhead = Probe.NativeSeconds > 0.0
                        ? Probe.HerbgrindSeconds / Probe.NativeSeconds
                        : 0.0;
  double AllocsPerOp =
      Probe.ShadowOps
          ? static_cast<double>(Probe.SteadyHeapAllocs) / Probe.ShadowOps
          : 0.0;
  std::printf("\nshadow hot path (steady state, straight-line corpus):\n"
              "  native %.3fs, herbgrind %.3fs (%.1fx overhead); "
              "%llu shadow ops, %llu heap allocs (%.6f/op), "
              "%llu limb-cache hits\n",
              Probe.NativeSeconds, Probe.HerbgrindSeconds, Overhead,
              static_cast<unsigned long long>(Probe.ShadowOps),
              static_cast<unsigned long long>(Probe.SteadyHeapAllocs),
              AllocsPerOp,
              static_cast<unsigned long long>(Probe.SteadyCacheHits));

  // Native-frontend overhead: the operator-overloading path against the
  // hardware floor and against the interpreter it bypasses.
  NativeProbe NP = runNativeProbe();
  auto Over = [](double S, double Base) { return Base > 0.0 ? S / Base : 0.0; };
  std::printf("\nnative frontend (quadratic kernel, steady state):\n"
              "  raw double %.3fs, native::Real %.3fs (%.1fx), "
              "interpreter %.3fs (%.1fx), instrumented interpreter %.3fs "
              "(%.1fx); %llu shadow ops (%.0f ns/op native)\n",
              NP.RawSeconds, NP.NativeSeconds,
              Over(NP.NativeSeconds, NP.RawSeconds), NP.InterpSeconds,
              Over(NP.InterpSeconds, NP.RawSeconds), NP.HerbgrindSeconds,
              Over(NP.HerbgrindSeconds, NP.RawSeconds),
              static_cast<unsigned long long>(NP.ShadowOps),
              NP.ShadowOps ? 1e9 * NP.NativeSeconds / NP.ShadowOps : 0.0);

  // Op-profiler probe: sweep the bundled quadratic native kernel with
  // sampling at period 1 and rank where the shadow time goes. At period 1
  // the ranked rows account for every measured nanosecond, so coverage
  // below 0.9 means attribution itself broke (the acceptance gate).
  metrics::resetAll();
  opprof::enable(1);
  EngineConfig PCfg;
  PCfg.Jobs = JobCounts.back();
  PCfg.SamplesPerBenchmark = Cfg.SamplesPerBenchmark;
  PCfg.ShardSize = Cfg.ShardSize;
  std::vector<herbgrind::native::Kernel> QuadOnly;
  for (const herbgrind::native::Kernel &K : herbgrind::native::demoKernels())
    if (K.Name == "native quadratic root")
      QuadOnly.push_back(K);
  BatchResult ProfResult = Engine(PCfg).run(QuadOnly);
  opprof::disable();
  std::vector<opprof::OpProfileRow> ProfRows;
  for (const BenchmarkResult &BR : ProfResult.Benchmarks)
    opprof::accumulateOpProfile(BR.Records.Ops, ProfRows);
  opprof::finalizeOpProfile(ProfRows);
  uint64_t ProfTotalNs =
      metrics::snapshot().counterValue("profile.shadow_ns");
  uint64_t ProfRowNs = 0;
  for (const opprof::OpProfileRow &R : ProfRows)
    ProfRowNs += R.Nanos;
  double ProfCoverage =
      ProfTotalNs ? static_cast<double>(ProfRowNs) / ProfTotalNs : 0.0;
  std::printf("\nop profiler (quadratic kernel sweep, jobs %u, sample "
              "period 1):\n%s",
              PCfg.Jobs,
              opprof::renderOpProfileTable(ProfRows, 10, ProfTotalNs)
                  .c_str());
  std::string ProfRowsJson;
  size_t ProfTop = std::min<size_t>(ProfRows.size(), 10);
  for (size_t I = 0; I < ProfTop; ++I) {
    const opprof::OpProfileRow &R = ProfRows[I];
    if (!ProfRowsJson.empty())
      ProfRowsJson += ",";
    ProfRowsJson += format(
        "{\"op\":\"%s\",\"loc\":\"%s\",\"executions\":%llu,"
        "\"samples\":%llu,\"ns\":%llu,\"est_ns\":%s,"
        "\"limb_allocs\":%llu,\"limb_hits\":%llu}",
        opInfo(R.Op).Name, jsonEscape(R.Loc.str()).c_str(),
        static_cast<unsigned long long>(R.Executions),
        static_cast<unsigned long long>(R.Samples),
        static_cast<unsigned long long>(R.Nanos),
        formatDoubleShortest(R.estNanos()).c_str(),
        static_cast<unsigned long long>(R.LimbAllocs),
        static_cast<unsigned long long>(R.LimbHits));
  }
  std::string ProfileJson = format(
      "{\"total_ns\":%llu,\"coverage\":%s,\"rows\":[%s]}",
      static_cast<unsigned long long>(ProfTotalNs),
      formatDoubleShortest(ProfCoverage).c_str(), ProfRowsJson.c_str());
  if (!AppendLedger(PCfg, ProfResult.Stats, "profile"))
    return 1;

  // Telemetry-merge overhead: fold a JSON and an HGB rendering of the
  // corpus sweep's telemetry document (metrics snapshot plus the ranked
  // profile rows) the way `telemetry-merge` does for distributed slices.
  // The claim is only that merging is cheap next to the sweep it
  // describes, so the gate is generous.
  TelemetryDoc MergeDoc;
  MergeDoc.Metrics = SweepSnap;
  MergeDoc.Profile = ProfRows;
  MergeDoc.ProfileTotalNanos = ProfTotalNs;
  const std::string MergeJson = renderTelemetryJson(MergeDoc);
  const std::string MergeBin = renderTelemetryBinary(MergeDoc);
  const int MergeReps = 50;
  bool MergeOk = true;
  double MergeS = timeIt([&] {
    for (int I = 0; I < MergeReps; ++I) {
      TelemetryDoc Merged;
      std::string E;
      if (!mergeTelemetry({MergeJson, MergeBin}, Merged, E) ||
          Merged.Metrics.counterValue("engine.runs") !=
              2 * SweepSnap.counterValue("engine.runs"))
        MergeOk = false;
    }
  });
  double MergePerS = MergeS / MergeReps;
  std::printf("\ntelemetry merge (corpus sweep doc, json + hgb): %zu + %zu "
              "bytes, %.3f ms/merge, correct: %s\n",
              MergeJson.size(), MergeBin.size(), 1e3 * MergePerS,
              MergeOk ? "yes" : "NO -- BUG");
  std::string TelemetryMergeJson = format(
      "{\"docs\":2,\"json_bytes\":%llu,\"hgb_bytes\":%llu,\"merge_s\":%s,"
      "\"merges_per_s\":%s,\"correct\":%s}",
      static_cast<unsigned long long>(MergeJson.size()),
      static_cast<unsigned long long>(MergeBin.size()),
      formatDoubleShortest(MergePerS).c_str(),
      formatDoubleShortest(MergePerS > 0.0 ? 1.0 / MergePerS : 0.0).c_str(),
      MergeOk ? "true" : "false");

  std::string CacheJson = "null";
  if (Positional.size() > 2) {
    // Result-cache section: a cold sweep populates the cache, the warm
    // sweep must satisfy every shard from it and reproduce the bytes.
    Cfg.Jobs = JobCounts.back();
    Cfg.CacheDir = Positional[2];
    std::printf("\nresult cache (%s), jobs %u:\n", Positional[2], Cfg.Jobs);
    Engine Eng(Cfg);
    BatchResult Cold = Eng.runCorpus();
    BatchResult Warm = Eng.runCorpus();
    bool Identical = Warm.renderJson() == Reference &&
                     Cold.renderJson() == Reference;
    double Speedup = Warm.Stats.WallSeconds > 0.0
                         ? Cold.Stats.WallSeconds / Warm.Stats.WallSeconds
                         : 0.0;
    std::printf("  cold %.3fs (%llu analyzed), warm %.3fs (%llu analyzed, "
                "%llu cached, %.1fx), deterministic: %s\n",
                Cold.Stats.WallSeconds,
                static_cast<unsigned long long>(Cold.Stats.AnalyzedShards),
                Warm.Stats.WallSeconds,
                static_cast<unsigned long long>(Warm.Stats.AnalyzedShards),
                static_cast<unsigned long long>(Warm.Stats.CachedShards),
                Speedup, Identical ? "yes" : "NO -- BUG");
    if (!Identical || Warm.Stats.AnalyzedShards != 0)
      return 1;
    if (!AppendLedger(Cfg, Cold.Stats, "cache-cold") ||
        !AppendLedger(Cfg, Warm.Stats, "cache-warm"))
      return 1;
    CacheJson = format(
        "{\"cold_s\":%s,\"warm_s\":%s,\"warm_cached_shards\":%llu,"
        "\"warm_speedup\":%s}",
        formatDoubleShortest(Cold.Stats.WallSeconds).c_str(),
        formatDoubleShortest(Warm.Stats.WallSeconds).c_str(),
        static_cast<unsigned long long>(Warm.Stats.CachedShards),
        formatDoubleShortest(Speedup).c_str());
  }

  // Tiered shadowing: the same mixed workload (corpus cores plus the
  // native demo kernels, quadratic included) under both tiers. The perf
  // claim is wall-clock: confirm skips the full shadow for every
  // benchmark tier 0 clears, and only pays off while the escalation
  // fraction stays below 1.0 -- which is the acceptance gate, alongside
  // confirm's byte-identity. The tiers are timed at one worker, in
  // alternating order, TierReps times each, so machine drift hits both
  // alike; the median and quartiles are recorded, not gated.
  std::vector<fpcore::Core> TierCores = fpcore::compilableCorpus();
  std::vector<herbgrind::native::Kernel> TierKernels =
      herbgrind::native::demoKernels();
  const int TierReps = 5;
  EngineConfig TCfg;
  TCfg.Jobs = 1;
  TCfg.SamplesPerBenchmark = Cfg.SamplesPerBenchmark;
  TCfg.ShardSize = Cfg.ShardSize;
  auto RunTier = [&](TierMode Tier) {
    TCfg.Tier = Tier;
    return Engine(TCfg).run(TierCores, TierKernels);
  };
  BatchResult TFull, TConfirm;
  std::vector<double> FullWalls, ConfirmWalls;
  bool TierIdentical = true;
  for (int Rep = 0; Rep < TierReps; ++Rep) {
    for (TierMode Tier : {TierMode::Full, TierMode::Confirm}) {
      BatchResult R = RunTier(Tier);
      (Tier == TierMode::Full ? FullWalls : ConfirmWalls)
          .push_back(R.Stats.WallSeconds);
      (Tier == TierMode::Full ? TFull : TConfirm) = std::move(R);
    }
    TierIdentical = TierIdentical && TConfirm.renderJson() == TFull.renderJson();
  }
  // Nearest-rank quartiles (Q = 1, 2, 3 of 4).
  auto Quartile = [](std::vector<double> V, int Q) {
    std::sort(V.begin(), V.end());
    return V[(V.size() - 1) * Q / 4];
  };
  double ConfirmFraction =
      TFull.Stats.Benchmarks
          ? static_cast<double>(TConfirm.Stats.ConfirmedBenchmarks) /
                TFull.Stats.Benchmarks
          : 1.0;
  std::printf("\ntiered shadowing (mixed workload, jobs 1, %d alternating "
              "reps; median [q1, q3]):\n"
              "  full %.3fs [%.3f, %.3f]; confirm %.3fs [%.3f, %.3f] "
              "(%llu/%llu benchmarks escalated, %.0f%%), identical: %s\n",
              TierReps, Quartile(FullWalls, 2), Quartile(FullWalls, 1),
              Quartile(FullWalls, 3), Quartile(ConfirmWalls, 2),
              Quartile(ConfirmWalls, 1), Quartile(ConfirmWalls, 3),
              static_cast<unsigned long long>(
                  TConfirm.Stats.ConfirmedBenchmarks),
              static_cast<unsigned long long>(TFull.Stats.Benchmarks),
              100.0 * ConfirmFraction, TierIdentical ? "yes" : "NO -- BUG");
  TCfg.Tier = TierMode::Full;
  if (!AppendLedger(TCfg, TFull.Stats, "tier-full"))
    return 1;
  TCfg.Tier = TierMode::Confirm;
  if (!AppendLedger(TCfg, TConfirm.Stats, "tier-confirm"))
    return 1;
  std::string TieredJson = format(
      "{\"jobs\":1,\"reps\":%d,\"full_s\":%s,\"full_s_q1\":%s,"
      "\"full_s_q3\":%s,\"confirm_s\":%s,\"confirm_s_q1\":%s,"
      "\"confirm_s_q3\":%s,\"benchmarks\":%llu,"
      "\"confirmed_benchmarks\":%llu,\"confirm_escalation_fraction\":%s,"
      "\"confirm_identical\":%s}",
      TierReps, formatDoubleShortest(Quartile(FullWalls, 2)).c_str(),
      formatDoubleShortest(Quartile(FullWalls, 1)).c_str(),
      formatDoubleShortest(Quartile(FullWalls, 3)).c_str(),
      formatDoubleShortest(Quartile(ConfirmWalls, 2)).c_str(),
      formatDoubleShortest(Quartile(ConfirmWalls, 1)).c_str(),
      formatDoubleShortest(Quartile(ConfirmWalls, 3)).c_str(),
      static_cast<unsigned long long>(TFull.Stats.Benchmarks),
      static_cast<unsigned long long>(TConfirm.Stats.ConfirmedBenchmarks),
      formatDoubleShortest(ConfirmFraction).c_str(),
      TierIdentical ? "true" : "false");

  LadderProbe LP = runLadderProbe(TierCores, TierKernels);
  EngineConfig LadCfg;
  LadCfg.Jobs = 1;
  LadCfg.SamplesPerBenchmark = LadderProbe::Samples;
  LadCfg.ShardSize = LadderProbe::ShardSize;
  if (!AppendLedger(LadCfg, LP.Stats, "ladder"))
    return 1;
  std::printf("\ntrace ladder (corpus + demo kernels, full tier, jobs 1, "
              "%d samples, shard %d):\n"
              "  %llu/%llu benchmarks traced, %llu trace-free (%llu trace "
              "nodes), %llu replayed shards; %llu trace nodes for %llu "
              "root causes = %.1f per root cause (ceiling %.1f); identical "
              "to traced slices: %s\n",
              LadderProbe::Samples, LadderProbe::ShardSize,
              static_cast<unsigned long long>(LP.Stats.TracedBenchmarks),
              static_cast<unsigned long long>(LP.Stats.Benchmarks),
              static_cast<unsigned long long>(LP.TraceFreeBenchmarks),
              static_cast<unsigned long long>(LP.TraceFreeNodes),
              static_cast<unsigned long long>(LP.Stats.ReplayedShards),
              static_cast<unsigned long long>(LP.Stats.TraceNodes),
              static_cast<unsigned long long>(LP.RootCauses),
              LP.nodesPerRootCause(), LadderProbe::NodesPerRootCauseCeiling,
              LP.ByteIdentical ? "yes" : "NO -- BUG");
  std::string LadderJson = format(
      "{\"samples\":%d,\"shard_size\":%d,\"trace_nodes\":%llu,"
      "\"root_causes\":%llu,\"nodes_per_root_cause\":%s,"
      "\"nodes_per_root_cause_ceiling\":%s,\"trace_free_benchmarks\":%llu,"
      "\"trace_free_nodes\":%llu,\"traced_benchmarks\":%llu,"
      "\"replayed_shards\":%llu,\"byte_identical\":%s}",
      LadderProbe::Samples, LadderProbe::ShardSize,
      static_cast<unsigned long long>(LP.Stats.TraceNodes),
      static_cast<unsigned long long>(LP.RootCauses),
      formatDoubleShortest(LP.nodesPerRootCause()).c_str(),
      formatDoubleShortest(LadderProbe::NodesPerRootCauseCeiling).c_str(),
      static_cast<unsigned long long>(LP.TraceFreeBenchmarks),
      static_cast<unsigned long long>(LP.TraceFreeNodes),
      static_cast<unsigned long long>(LP.Stats.TracedBenchmarks),
      static_cast<unsigned long long>(LP.Stats.ReplayedShards),
      LP.ByteIdentical ? "true" : "false");

  TraceProbe TP = runTraceProbe();
  std::printf("\ntrace arena (loop chain s = s + x, %llu iterations, max "
              "depth %u):\n"
              "  %.2f nodes/op (ceiling %.1f), live-node high watermark "
              "%zu (ceiling %zu), %.4g heap allocs/op in the second half "
              "(ceiling 0), %.0f ns/op\n",
              static_cast<unsigned long long>(TraceProbe::Iterations),
              TP.MaxDepth, TP.NodesPerOp, TP.nodesPerOpCeiling(), TP.LiveHigh,
              TP.liveHighCeiling(), TP.HeapAllocsPerOp, TP.NsPerOp);
  std::string TraceJson = format(
      "{\"iterations\":%llu,\"max_depth\":%u,\"nodes_per_op\":%s,"
      "\"live_high\":%zu,\"heap_allocs_per_op\":%s,\"ns_per_op\":%s,"
      "\"nodes_per_op_ceiling\":%s,\"live_high_ceiling\":%zu,"
      "\"bounded\":%s}",
      static_cast<unsigned long long>(TraceProbe::Iterations), TP.MaxDepth,
      formatDoubleShortest(TP.NodesPerOp).c_str(), TP.LiveHigh,
      formatDoubleShortest(TP.HeapAllocsPerOp).c_str(),
      formatDoubleShortest(TP.NsPerOp).c_str(),
      formatDoubleShortest(TP.nodesPerOpCeiling()).c_str(),
      TP.liveHighCeiling(), TP.bounded() ? "true" : "false");

  KernelProbe KP = runKernelProbe();
  std::printf("\nshadow-real kernels (256 bits, ns per call; ratio to base "
              "kernel, ceiling):\n");
  std::string KernelNsJson, KernelRatioJson;
  for (const KernelProbe::Row &Row : KP.Rows) {
    std::printf("  %-5s %9.0f ns", Row.Name, Row.Ns);
    if (Row.Base)
      std::printf("  %6.1fx %-4s (ceiling %gx)", Row.ratio(KP), Row.Base,
                  Row.Ceiling);
    std::printf("\n");
    KernelNsJson += format("%s\"%s\":%s", KernelNsJson.empty() ? "" : ",",
                           Row.Name, formatDoubleShortest(Row.Ns).c_str());
    if (Row.Base)
      KernelRatioJson += format(
          "%s\"%s/%s\":{\"ratio\":%s,\"ceiling\":%s}",
          KernelRatioJson.empty() ? "" : ",", Row.Name, Row.Base,
          formatDoubleShortest(Row.ratio(KP)).c_str(),
          formatDoubleShortest(Row.Ceiling).c_str());
  }
  std::string KernelsJson =
      format("{\"prec_bits\":256,\"ns\":{%s},\"ratios\":{%s},"
             "\"within_ceilings\":%s}",
             KernelNsJson.c_str(), KernelRatioJson.c_str(),
             KP.withinCeilings() ? "true" : "false");

  // Wire-format probe: both encodings of the corpus batch report
  // document (the top-jobs sweep), sized and timed. The claims: HGB is
  // at least 4x smaller than the JSON bytes on this document, and the
  // binary round trip re-renders both formats to the exact same bytes.
  const std::string WireJson = LastResult.renderWire(WireEncoding::Json);
  const std::string WireBin = LastResult.renderWire(WireEncoding::Binary);
  double SizeRatio = WireBin.empty()
                         ? 0.0
                         : static_cast<double>(WireJson.size()) /
                               static_cast<double>(WireBin.size());
  const int WireReps = 20;
  double EncJsonS = timeIt([&] {
    for (int I = 0; I < WireReps; ++I) {
      std::string S = LastResult.renderWire(WireEncoding::Json);
      if (S.size() != WireJson.size())
        std::abort();
    }
  });
  double EncBinS = timeIt([&] {
    for (int I = 0; I < WireReps; ++I) {
      std::string S = LastResult.renderWire(WireEncoding::Binary);
      if (S.size() != WireBin.size())
        std::abort();
    }
  });
  BatchReportDoc WireDoc;
  std::string WireErr;
  bool WireRoundTrip = parseBatchReport(WireBin, WireDoc, WireErr) &&
                       renderBatchReportJson(WireDoc) == WireJson &&
                       renderBatchReportBinary(WireDoc) == WireBin;
  double DecJsonS = timeIt([&] {
    for (int I = 0; I < WireReps; ++I) {
      BatchReportDoc D;
      std::string E;
      if (!parseBatchReport(WireJson, D, E))
        std::abort();
    }
  });
  double DecBinS = timeIt([&] {
    for (int I = 0; I < WireReps; ++I) {
      BatchReportDoc D;
      std::string E;
      if (!parseBatchReport(WireBin, D, E))
        std::abort();
    }
  });
  auto MBPerS = [&](size_t Bytes, double Seconds) {
    return Seconds > 0.0
               ? static_cast<double>(Bytes) * WireReps / Seconds / 1e6
               : 0.0;
  };
  std::printf("\nwire formats (corpus batch report document):\n"
              "  json %zu bytes, hgb %zu bytes (%.2fx smaller); encode "
              "json %.0f MB/s, hgb %.0f MB/s; decode json %.0f MB/s, hgb "
              "%.0f MB/s; round trip identical: %s\n",
              WireJson.size(), WireBin.size(), SizeRatio,
              MBPerS(WireJson.size(), EncJsonS),
              MBPerS(WireBin.size(), EncBinS),
              MBPerS(WireJson.size(), DecJsonS),
              MBPerS(WireBin.size(), DecBinS),
              WireRoundTrip ? "yes" : "NO -- BUG");
  std::string WireSectionJson = format(
      "{\"json_bytes\":%llu,\"hgb_bytes\":%llu,\"size_ratio\":%s,"
      "\"encode_json_mb_s\":%s,\"encode_hgb_mb_s\":%s,"
      "\"decode_json_mb_s\":%s,\"decode_hgb_mb_s\":%s,"
      "\"roundtrip_identical\":%s}",
      static_cast<unsigned long long>(WireJson.size()),
      static_cast<unsigned long long>(WireBin.size()),
      formatDoubleShortest(SizeRatio).c_str(),
      formatDoubleShortest(MBPerS(WireJson.size(), EncJsonS)).c_str(),
      formatDoubleShortest(MBPerS(WireBin.size(), EncBinS)).c_str(),
      formatDoubleShortest(MBPerS(WireJson.size(), DecJsonS)).c_str(),
      formatDoubleShortest(MBPerS(WireBin.size(), DecBinS)).c_str(),
      WireRoundTrip ? "true" : "false");

  std::string Json = format(
      "{\"schema\":\"herbgrind-bench-engine-v1\","
      "\"samples_per_benchmark\":%d,\"shard_size\":%d,"
      "\"hardware_threads\":%u,\"jobs\":[%s],"
      "\"hot_path\":{\"native_s\":%s,\"herbgrind_s\":%s,"
      "\"overhead_factor\":%s,\"shadow_ops\":%llu,"
      "\"steady_heap_allocs\":%llu,\"allocs_per_op\":%s,"
      "\"limb_cache_hits\":%llu},"
      "\"improve\":{\"jobs\":%u,\"wall_s\":%s,\"candidates\":%llu,"
      "\"significant\":%llu,\"improved\":%llu,\"records_per_s\":%s},"
      "\"native\":{\"raw_s\":%s,\"native_s\":%s,\"interp_s\":%s,"
      "\"herbgrind_s\":%s,\"shadow_ops\":%llu,\"native_overhead\":%s,"
      "\"interp_overhead\":%s,\"herbgrind_overhead\":%s},"
      "\"profile\":%s,"
      "\"telemetry_merge\":%s,"
      "\"tiered\":%s,"
      "\"ladder\":%s,"
      "\"wire\":%s,"
      "\"trace\":%s,"
      "\"kernels\":%s,"
      "\"cache\":%s}\n",
      Cfg.SamplesPerBenchmark, Cfg.ShardSize, HW, JobsJson.c_str(),
      formatDoubleShortest(Probe.NativeSeconds).c_str(),
      formatDoubleShortest(Probe.HerbgrindSeconds).c_str(),
      formatDoubleShortest(Overhead).c_str(),
      static_cast<unsigned long long>(Probe.ShadowOps),
      static_cast<unsigned long long>(Probe.SteadyHeapAllocs),
      formatDoubleShortest(AllocsPerOp).c_str(),
      static_cast<unsigned long long>(Probe.SteadyCacheHits),
      BCfg.Jobs, formatDoubleShortest(IStats.WallSeconds).c_str(),
      static_cast<unsigned long long>(IStats.Candidates),
      static_cast<unsigned long long>(IStats.Significant),
      static_cast<unsigned long long>(IStats.Improved),
      formatDoubleShortest(RecordsPerS).c_str(),
      formatDoubleShortest(NP.RawSeconds).c_str(),
      formatDoubleShortest(NP.NativeSeconds).c_str(),
      formatDoubleShortest(NP.InterpSeconds).c_str(),
      formatDoubleShortest(NP.HerbgrindSeconds).c_str(),
      static_cast<unsigned long long>(NP.ShadowOps),
      formatDoubleShortest(Over(NP.NativeSeconds, NP.RawSeconds)).c_str(),
      formatDoubleShortest(Over(NP.InterpSeconds, NP.RawSeconds)).c_str(),
      formatDoubleShortest(Over(NP.HerbgrindSeconds, NP.RawSeconds)).c_str(),
      ProfileJson.c_str(), TelemetryMergeJson.c_str(), TieredJson.c_str(),
      LadderJson.c_str(), WireSectionJson.c_str(), TraceJson.c_str(),
      KernelsJson.c_str(), CacheJson.c_str());
  std::ofstream Out(JsonOut, std::ios::binary | std::ios::trunc);
  if (Out) {
    Out << Json;
    std::printf("\nrecorded %s\n", JsonOut.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", JsonOut.c_str());
  }

  // The zero-allocation acceptance gate: a steady-state shadowed op must
  // not reach the heap at the default 256-bit precision. A probe that
  // measured nothing is itself a failure -- otherwise a corpus change
  // could silently turn the gate vacuous.
  if (!Probe.Ok) {
    std::fprintf(stderr, "FAIL: hot-path probe matched no straight-line "
                         "benchmarks; the zero-allocation gate measured "
                         "nothing\n");
    return 1;
  }
  if (Probe.SteadyHeapAllocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu heap allocations in steady-state shadow "
                 "execution (expected 0)\n",
                 static_cast<unsigned long long>(Probe.SteadyHeapAllocs));
    return 1;
  }
  // The profiler acceptance gate: the ranked rows must account for at
  // least 90% of the measured shadow time (100% at sample period 1
  // unless attribution lost samples somewhere).
  if (ProfRows.empty() || ProfCoverage < 0.9) {
    std::fprintf(stderr,
                 "FAIL: op profiler covered %.1f%% of %llu ns measured "
                 "shadow time (expected >= 90%%)\n",
                 100.0 * ProfCoverage,
                 static_cast<unsigned long long>(ProfTotalNs));
    return 1;
  }
  // The telemetry-merge acceptance gate: folding two corpus-sweep docs
  // must be correct and cheap -- 100ms per merge is orders of magnitude
  // above the expected cost, so only a pathological regression trips it.
  if (!MergeOk || MergePerS > 0.1) {
    std::fprintf(stderr,
                 "FAIL: telemetry merge %s (%.1f ms/merge, limit 100 ms)\n",
                 MergeOk ? "too slow" : "produced wrong totals",
                 1e3 * MergePerS);
    return 1;
  }
  // The tiering acceptance gates: confirm must reproduce full's bytes,
  // and tier 0 must actually clear something on the mixed workload -- an
  // escalation fraction of 1.0 means the cheap tier buys nothing.
  if (!TierIdentical) {
    std::fprintf(stderr,
                 "FAIL: confirm-tier report differs from full tier\n");
    return 1;
  }
  if (ConfirmFraction >= 1.0) {
    std::fprintf(stderr,
                 "FAIL: tier-0 escalated everything (confirm %.2f); the "
                 "predicate tier is vacuous\n",
                 ConfirmFraction);
    return 1;
  }
  // The wire-format acceptance gates: the binary round trip must be
  // lossless to the byte in both directions, and HGB must earn its
  // existence -- at least 4x smaller than the JSON bytes on the corpus
  // batch document (interning plus the LZSS body codec).
  if (!WireRoundTrip) {
    std::fprintf(stderr, "FAIL: HGB batch document round trip is not "
                         "byte-identical (%s)\n",
                 WireErr.empty() ? "re-render mismatch" : WireErr.c_str());
    return 1;
  }
  if (SizeRatio < 4.0) {
    std::fprintf(stderr,
                 "FAIL: HGB batch document only %.2fx smaller than JSON "
                 "(%zu vs %zu bytes; expected >= 4x)\n",
                 SizeRatio, WireBin.size(), WireJson.size());
    return 1;
  }
  // The bounded-trace gate: however long a loop runs, the arena must
  // allocate O(1) nodes per op and hold O(MaxDepth) nodes at once.
  if (!TP.bounded()) {
    std::fprintf(stderr,
                 "FAIL: trace arena unbounded on a loop chain: %.2f "
                 "nodes/op (ceiling %.1f), %zu live nodes (ceiling %zu)\n",
                 TP.NodesPerOp, TP.nodesPerOpCeiling(), TP.LiveHigh,
                 TP.liveHighCeiling());
    return 1;
  }
  // The allocation-free anti-unification gate: once the loop chain's
  // expression has settled, a traced op must not reach the heap.
  if (!TP.allocationFree()) {
    std::fprintf(stderr,
                 "FAIL: %.4g heap allocations per op in the trace probe's "
                 "steady state (expected 0)\n",
                 TP.HeapAllocsPerOp);
    return 1;
  }
  // The trace-ladder gate (hardware-independent counters): no trace node
  // for a benchmark without a root cause, at most one replay per traced
  // benchmark, trace nodes per root cause under the pinned ceiling, and
  // the traced oracle's bytes.
  if (!LP.ok()) {
    std::fprintf(stderr,
                 "FAIL: trace ladder: %llu trace nodes in trace-free "
                 "benchmarks (expected 0), %llu replayed shards for %llu "
                 "traced benchmarks, %.1f trace nodes per root cause "
                 "(ceiling %.1f), identical to traced slices: %s%s%s\n",
                 static_cast<unsigned long long>(LP.TraceFreeNodes),
                 static_cast<unsigned long long>(LP.Stats.ReplayedShards),
                 static_cast<unsigned long long>(LP.Stats.TracedBenchmarks),
                 LP.nodesPerRootCause(),
                 LadderProbe::NodesPerRootCauseCeiling,
                 LP.ByteIdentical ? "yes" : "no",
                 LP.Err.empty() ? "" : " -- ", LP.Err.c_str());
    return 1;
  }
  // The kernel gate: each shadow-real kernel must cost at most its
  // ceiling in units of mul (sqrt in units of div).
  if (!KP.withinCeilings()) {
    for (const KernelProbe::Row &Row : KP.Rows)
      if (Row.Base && !(Row.ratio(KP) <= Row.Ceiling))
        std::fprintf(stderr,
                     "FAIL: %s costs %.1fx %s (ceiling %gx): %.0f ns\n",
                     Row.Name, Row.ratio(KP), Row.Base, Row.Ceiling, Row.Ns);
    return 1;
  }
  return 0;
}
