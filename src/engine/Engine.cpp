//===- engine/Engine.cpp - Parallel batch analysis ------------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "engine/ResultCache.h"
#include "engine/ThreadPool.h"
#include "fpcore/Corpus.h"
#include "native/Context.h"
#include "native/Kernel.h"
#include "support/Events.h"
#include "support/Format.h"
#include "support/LimbAlloc.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

using namespace herbgrind;
using namespace herbgrind::engine;

//===----------------------------------------------------------------------===//
// Deterministic input sampling
//===----------------------------------------------------------------------===//

/// SplitMix64 step: derives an independent per-benchmark seed so sampling
/// never depends on worker count or sharding.
static uint64_t deriveSeed(uint64_t Base, uint64_t Index) {
  uint64_t Z = Base + (Index + 1) * 0x9e3779b97f4a7c15ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

static std::vector<std::vector<double>>
sampleSourceInputs(const std::vector<std::pair<double, double>> &Ranges,
                   int Count, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<double>> Sets;
  Sets.reserve(static_cast<size_t>(Count));
  for (int I = 0; I < Count; ++I) {
    std::vector<double> In;
    In.reserve(Ranges.size());
    for (const auto &[Lo, Hi] : Ranges)
      In.push_back(R.betweenOrdinals(Lo, Hi));
    Sets.push_back(std::move(In));
  }
  return Sets;
}

namespace {

/// What a tier-0 (predicate-only) pass over one shard observed: the
/// suspect verdict that drives escalation, plus cost counters.
struct Tier0Outcome {
  bool Suspect = false;
  uint64_t Runs = 0;
  uint64_t Ops = 0; ///< Shadow ops the predicate analyzer executed.
};

/// One analyzed shard: its records plus cost accounting.
struct ShardOutcome {
  AnalysisResult Result;
  uint64_t TraceNodes = 0; ///< Trace nodes the analyzer allocated.
};

/// One benchmark the generic sweep driver can run, whatever frontend it
/// executes under: everything the driver needs is a name, a cache
/// identity, sampling ranges, and a way to analyze a slice of sampled
/// inputs into mergeable records. The FPCore path wraps a compiled
/// program in a worker-local Herbgrind; the native path wraps a
/// registered Kernel in a worker-local native::Context.
struct SweepSource {
  std::string Name;
  std::vector<std::pair<double, double>> Ranges;
  /// Cache/wire identity; computed lazily (FPCore printing is not free)
  /// and only when a result cache or emit directory needs it.
  std::function<std::string()> MakeIdentity;
  /// Analyzes sampled inputs [Begin, End), trace-free or traced; must be
  /// callable concurrently with itself -- across sources AND across
  /// shards of one source (work stealing rebalances affine queues).
  /// Worker-local analyzer state (thread_local) is the only mutable state
  /// it may keep.
  std::function<ShardOutcome(
      uint64_t RunId, const std::vector<std::vector<double>> &Inputs,
      size_t Begin, size_t End, bool TraceFree)>
      AnalyzeShard;
  /// Tier-0 sweep of the same slice: runs the frontend in predicate-only
  /// mode (no BigFloat, no traces, no records) and reports whether any
  /// run was suspect. Same concurrency contract as AnalyzeShard; uses a
  /// separate worker-local analyzer so the two never alias.
  std::function<Tier0Outcome(
      uint64_t RunId, const std::vector<std::vector<double>> &Inputs,
      size_t Begin, size_t End)>
      Tier0Shard;
};

} // namespace

//===----------------------------------------------------------------------===//
// The batch driver
//===----------------------------------------------------------------------===//

Engine::Engine(EngineConfig Config) : Cfg(Config) {
  if (Cfg.Jobs == 0) {
    Cfg.Jobs = std::thread::hardware_concurrency();
    if (Cfg.Jobs == 0)
      Cfg.Jobs = 1;
  }
  // Oversubscription is allowed (useful for testing the pool), but a
  // wild value must not translate into thousands of threads.
  Cfg.Jobs = std::min(Cfg.Jobs, 256u);
  if (Cfg.SamplesPerBenchmark < 1)
    Cfg.SamplesPerBenchmark = 1;
  if (Cfg.ShardSize < 1)
    Cfg.ShardSize = 1;
  if (Cfg.ShardEnd < Cfg.ShardBegin)
    Cfg.ShardEnd = Cfg.ShardBegin;
  if (!Cfg.CacheDir.empty()) {
    RC = std::make_unique<ResultCache>(Cfg.CacheDir, configHash(Cfg));
    // True LRU recency only matters when something will prune by it.
    RC->setTouchOnHit(Cfg.CacheMaxBytes > 0);
    RC->setWireEncoding(Cfg.WireFormat);
  }
}

Engine::~Engine() = default;

namespace {

/// One unit of parallel work: a contiguous slice of one benchmark's
/// sampled inputs, analyzed by a worker-local Herbgrind instance.
struct Shard {
  size_t Bench = 0;
  size_t Index = 0; ///< Shard number within the benchmark (merge order).
  size_t Begin = 0;
  size_t End = 0;
};

/// Per-benchmark streaming-reduction state: shards fold into the
/// BenchmarkResult the moment every earlier shard has; later arrivals
/// wait in Pending. The fold order is ascending shard index whatever the
/// completion order, so the reduction stays deterministic while it
/// overlaps analysis.
struct BenchFold {
  std::mutex M;
  size_t NextIndex = 0; ///< Next shard index the accumulator expects.
  std::map<size_t, AnalysisResult> Pending; ///< Out-of-order completions.
  /// The trace ladder's state: false while the benchmark's shards run
  /// trace-free, true once some shard's records named a root cause (and
  /// throughout a slice). Written under M; read lock-free to pick a
  /// shard's pass.
  std::atomic<bool> Traced{false};
  /// Under M: the accumulator holds trace-free records (never once Traced).
  bool Stripped = false;
  size_t FirstShard = 0; ///< Position of its first shard in the layout.
  /// Per executed shard (index - ShardBegin), under M: whether its
  /// shard.reduced event was emitted.
  std::vector<char> Reduced;
  std::atomic<uint64_t> TraceNodes{0}; ///< Over all its shard analyses.
  /// Profiler cost of discarded trace-free results, per op pc, under M.
  std::map<uint32_t, OpRecord> DiscardedCost;
};

/// Adds \p From's profiler cost fields (opprof) to \p Into's.
void addProfilerCost(OpRecord &Into, const OpRecord &From) {
  Into.ProfSamples += From.ProfSamples;
  Into.ProfNanos += From.ProfNanos;
  Into.ProfLimbAllocs += From.ProfLimbAllocs;
  Into.ProfLimbHits += From.ProfLimbHits;
}

/// Keeps the profiler cost of a trace-free result the ladder discards:
/// the benchmark's final records absorb it, so the op profile still
/// accounts for every measured nanosecond of the sweep.
void keepProfilerCost(std::map<uint32_t, OpRecord> &Cost,
                      const AnalysisResult &R) {
  for (const auto &[PC, Rec] : R.Ops)
    if (Rec.ProfSamples > 0)
      addProfilerCost(Cost[PC], Rec);
}

} // namespace

/// Monotonic id per Engine::run call; guards the worker-local analyzer
/// cache against ever comparing a recycled Program address across runs.
static std::atomic<uint64_t> GlobalRunCounter{0};

/// The frontend-agnostic sweep driver: everything the engine promises --
/// deterministic sharding and sampling, result-cache satisfaction,
/// emit-shard documents, streaming in-order reduction, post-run cache GC
/// -- lives here once, shared by the FPCore and native entry points.
static BatchResult runSweepImpl(const EngineConfig &Cfg, ResultCache *RC,
                                const std::vector<SweepSource> &Sources) {
  auto Start = std::chrono::steady_clock::now();
  const uint64_t RunId = GlobalRunCounter.fetch_add(1) + 1;

  // Telemetry handles (registration is idempotent; see docs/TELEMETRY.md
  // for the metric taxonomy). All of it observes -- nothing below feeds
  // back into analysis or report content.
  static metrics::Counter MShardsDone = metrics::counter("engine.shards_done");
  static metrics::Counter MShardsAnalyzed =
      metrics::counter("engine.shards_analyzed");
  static metrics::Counter MShardsCached =
      metrics::counter("engine.shards_cached");
  static metrics::Counter MRuns = metrics::counter("engine.runs");
  static metrics::Counter MLimbHeap = metrics::counter("limb.heap_allocs");
  static metrics::Counter MLimbHits = metrics::counter("limb.cache_hits");
  static metrics::Counter MTier0Runs = metrics::counter("tier0.runs");
  static metrics::Counter MTier0Ops = metrics::counter("tier0.ops");
  static metrics::Counter MTierEscalations =
      metrics::counter("tier.escalations");
  static metrics::Counter MTierConfirmations =
      metrics::counter("tier.confirmations");
  static metrics::Counter MTraceFree =
      metrics::counter("ladder.trace_free_shards");
  static metrics::Counter MReplayed = metrics::counter("ladder.replayed_shards");
  static metrics::Counter MTracedBenchmarks =
      metrics::counter("ladder.traced_benchmarks");
  static metrics::Counter MTraceNodes = metrics::counter("trace.nodes");
  static metrics::Timer TProbe = metrics::timer("engine.shard_cache_probe_ns");
  static metrics::Timer TAnalyze = metrics::timer("engine.shard_analyze_ns");
  static metrics::Timer TReduce = metrics::timer("engine.shard_reduce_ns");
  static metrics::Timer TRun = metrics::timer("engine.run_ns");
  metrics::ScopedTimer RunTimer(TRun);
  trace::Span RunSpan("engine.run", "engine");
  // Source identities (printed FPCores, kernel identity strings) feed
  // only cache keys; emit-only runs stamp documents with the config hash
  // alone, computed once.
  bool NeedIdentity = RC != nullptr;
  std::string CfgHash;
  if (RC)
    CfgHash = RC->configHash();
  else if (!Cfg.EmitShardDir.empty())
    CfgHash = configHash(Cfg);
  if (!Cfg.EmitShardDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(Cfg.EmitShardDir, Ec);
  }

  // Phase 1 (serial, cheap): sample every benchmark's inputs up front and
  // lay out the shard list. Both depend only on the configuration: the
  // layout covers the full sample range even when only a shard-index
  // slice of it executes, so distributed slices stay merge-compatible.
  std::vector<std::vector<std::vector<double>>> Inputs(Sources.size());
  std::vector<uint64_t> Seeds(Sources.size());
  std::vector<std::string> Identities(Sources.size());
  std::vector<Shard> Shards, Layout;
  for (size_t B = 0; B < Sources.size(); ++B) {
    Seeds[B] = deriveSeed(Cfg.Seed, B);
    Inputs[B] = sampleSourceInputs(Sources[B].Ranges,
                                   Cfg.SamplesPerBenchmark, Seeds[B]);
    if (NeedIdentity)
      Identities[B] = Sources[B].MakeIdentity();
    size_t N = Inputs[B].size();
    size_t Step = static_cast<size_t>(Cfg.ShardSize);
    for (size_t Lo = 0, Idx = 0; Lo < N; Lo += Step, ++Idx) {
      Shard Sh{B, Idx, Lo, std::min(Lo + Step, N)};
      if (Idx >= Cfg.ShardBegin && Idx < Cfg.ShardEnd)
        Shards.push_back(Sh);
      if (Cfg.Tier == TierMode::Confirm)
        Layout.push_back(Sh);
    }
  }

  metrics::gauge("engine.benchmarks").set(static_cast<int64_t>(Sources.size()));
  metrics::gauge("engine.shards_total").set(static_cast<int64_t>(Shards.size()));

  if (events::enabled()) {
    size_t SliceRuns = 0;
    for (const Shard &Sh : Shards)
      SliceRuns += Sh.End - Sh.Begin;
    events::emit(
        "sweep.begin",
        format("\"benchmarks\":%zu,\"shards\":%zu,\"runs\":%zu,\"jobs\":%u,"
               "\"tier\":\"%s\"",
               Sources.size(), Shards.size(), SliceRuns, Cfg.Jobs,
               Cfg.Tier == TierMode::Full ? "full" : "confirm"));
  }

  BatchResult Out;
  Out.Benchmarks.resize(Sources.size());
  std::vector<BenchFold> Folds(Sources.size());
  for (size_t B = 0; B < Sources.size(); ++B) {
    Out.Benchmarks[B].Name = Sources[B].Name;
    Out.Benchmarks[B].Records.Ranges = Cfg.Analysis.Ranges;
    Out.Benchmarks[B].Records.EquivDepth = Cfg.Analysis.EquivDepth;
    // Executed shard indices per benchmark are a contiguous slice, so the
    // streaming fold starts at the slice's first index.
    Folds[B].NextIndex = Cfg.ShardBegin;
  }

  // Phase 2a (parallel, Confirm tier only): a predicate-only sweep over
  // every shard of the layout decides per benchmark whether the full
  // shadow is needed at all. The tier-0 pass is pure native-double
  // arithmetic -- no BigFloat, no traces -- so running it over the whole
  // layout costs a small fraction of one full shard. Predicate soundness
  // (an erroneous full-mode spot implies a suspect tier-0 run) is what
  // lets a clean verdict skip phase 2b for the benchmark without changing
  // the report. A shard-range slice sweeps the whole layout too, so every
  // slice of one layout reaches the same verdict and the slices merge to
  // the whole-layout report.
  std::vector<char> BenchSuspect(Sources.size(),
                                 Cfg.Tier != TierMode::Confirm ? 1 : 0);
  std::atomic<uint64_t> Tier0Runs{0}, Tier0Ops{0}, EscalatedRuns{0};
  uint64_t PoolTasks = 0, PoolSteals = 0, PoolMaxDepth = 0;
  if (Cfg.Tier == TierMode::Confirm) {
    trace::Span Tier0Span("engine.tier0", "engine");
    std::vector<std::atomic<char>> SuspectFlags(Sources.size());
    for (auto &F : SuspectFlags)
      F.store(0, std::memory_order_relaxed);
    ThreadPool Pool(Cfg.Jobs);
    for (size_t S = 0; S < Layout.size(); ++S)
      Pool.submitTo(Layout[S].Bench, [S, RunId, &Layout, &Sources, &Inputs,
                                      &SuspectFlags, &Tier0Runs, &Tier0Ops] {
        const Shard &Sh = Layout[S];
        // A benchmark already marked suspect needs no further verdicts;
        // the remaining tier-0 shards are skipped, not run for show.
        if (SuspectFlags[Sh.Bench].load(std::memory_order_relaxed))
          return;
        Tier0Outcome O =
            Sources[Sh.Bench].Tier0Shard(RunId, Inputs[Sh.Bench], Sh.Begin,
                                         Sh.End);
        Tier0Runs += O.Runs;
        Tier0Ops += O.Ops;
        if (O.Suspect)
          SuspectFlags[Sh.Bench].store(1, std::memory_order_relaxed);
      });
    Pool.waitAll();
    ThreadPool::PoolStats PS = Pool.stats();
    PoolTasks += PS.Executed;
    PoolSteals += PS.Steals;
    PoolMaxDepth = std::max<uint64_t>(PoolMaxDepth, PS.MaxQueueDepth);
    for (size_t B = 0; B < Sources.size(); ++B)
      BenchSuspect[B] = SuspectFlags[B].load(std::memory_order_relaxed);
  }

  // Phase 2 (parallel): every shard is satisfied from the result cache or
  // analyzed by its source's frontend, then folded into its benchmark's
  // accumulator in ascending shard order. The fold happens on whichever
  // worker completes the gap shard, overlapping reduce with analyze; only
  // out-of-order completions buffer. In Confirm tier, benchmarks cleared
  // by phase 2a fold empty records -- their full-shadow report is empty
  // too, so the rendered output is unchanged -- and skip the cache in
  // both directions (an empty record set must never masquerade as a full
  // one under the shared hash).
  //
  // The trace ladder (docs/ARCHITECTURE.md, "Trace-free pass and traced
  // replay"): a report renders expressions only for root causes, and a
  // benchmark reports one exactly when some shard's records name one. So
  // when the run covers the whole layout every benchmark starts
  // trace-free and folds counter-only records. The first shard whose
  // records name a root cause flips its benchmark to traced and reruns
  // itself traced; the fold rewinds to the start of the slice, and the
  // shards already resolved trace-free are re-queued traced. A slice
  // cannot see the merged verdict, so it runs traced throughout.
  const size_t Step = static_cast<size_t>(Cfg.ShardSize);
  const size_t LayoutShards =
      (static_cast<size_t>(Cfg.SamplesPerBenchmark) + Step - 1) / Step;
  const bool WholeLayout = Cfg.ShardBegin == 0 && Cfg.ShardEnd >= LayoutShards;
  for (size_t S = 0; S < Shards.size(); ++S) {
    BenchFold &Fold = Folds[Shards[S].Bench];
    if (Fold.Reduced.empty())
      Fold.FirstShard = S;
    Fold.Reduced.push_back(0);
  }
  for (size_t B = 0; B < Sources.size(); ++B)
    Folds[B].Traced.store(!WholeLayout && BenchSuspect[B],
                          std::memory_order_relaxed);

  std::atomic<uint64_t> Analyzed{0}, Cached{0}, EmitFailed{0};
  std::atomic<uint64_t> LimbHeap{0}, LimbHits{0};
  std::atomic<uint64_t> TraceFreeShards{0}, ReplayedShards{0}, TraceNodes{0};
  const uint64_t RcHits0 = RC ? RC->hits() : 0;
  const uint64_t RcMisses0 = RC ? RC->misses() : 0;
  const uint64_t RcStoreFail0 = RC ? RC->storeFailures() : 0;
  {
    ThreadPool Pool(Cfg.Jobs);
    // RunShard(S, Requeued): Requeued marks a shard whose result a flip
    // discarded.
    std::function<void(size_t, bool)> RunShard;
    // Benchmark-affine placement: a benchmark's shards land on one worker
    // (stealing still rebalances), so the worker-local analyzer inside
    // AnalyzeShard actually gets reused across them at any jobs count.
    auto Submit = [&](size_t S, bool Requeued) {
      Pool.submitTo(Shards[S].Bench,
                    [&RunShard, S, Requeued] { RunShard(S, Requeued); });
    };

    // Flips benchmark B to traced, once. A trace-free accumulator is
    // discarded, the fold rewinds, and the shards folded into it are
    // re-queued; trace-free results parked in Pending are re-queued too.
    // Traced results -- a still-traced accumulator, parked ones -- stay.
    // Returns false when another shard flipped B first.
    auto Flip = [&](size_t B) {
      BenchFold &Fold = Folds[B];
      std::lock_guard<std::mutex> Lock(Fold.M);
      if (Fold.Traced.load(std::memory_order_relaxed))
        return false;
      Fold.Traced.store(true, std::memory_order_release);
      if (Fold.Stripped) {
        for (size_t Idx = Cfg.ShardBegin; Idx < Fold.NextIndex; ++Idx)
          Submit(Fold.FirstShard + (Idx - Cfg.ShardBegin), true);
        Fold.NextIndex = Cfg.ShardBegin;
        Fold.Stripped = false;
        BenchmarkResult &BR = Out.Benchmarks[B];
        keepProfilerCost(Fold.DiscardedCost, BR.Records);
        BR.Records = AnalysisResult();
        BR.Records.Ranges = Cfg.Analysis.Ranges;
        BR.Records.EquivDepth = Cfg.Analysis.EquivDepth;
        BR.Shards = 0;
        BR.Runs = 0;
      }
      for (auto It = Fold.Pending.begin(); It != Fold.Pending.end();) {
        if (!It->second.traceFree()) {
          ++It;
          continue;
        }
        Submit(Fold.FirstShard + (It->first - Cfg.ShardBegin), true);
        keepProfilerCost(Fold.DiscardedCost, It->second);
        It = Fold.Pending.erase(It);
      }
      return true;
    };

    RunShard = [&](size_t S, bool Requeued) {
      const Shard &Sh = Shards[S];
      const SweepSource &Src = Sources[Sh.Bench];
      BenchFold &Fold = Folds[Sh.Bench];
      // Confirm tier, benchmark cleared by phase 2a: no probe, no
      // analysis, no store -- fold an empty shard so the layout's
      // shard/run accounting (and the emitted document set) stays
      // complete.
      const bool Cleared = !BenchSuspect[Sh.Bench];
      std::string SpanArgs =
          trace::enabled()
              ? format("{\"bench\":%zu,\"shard\":%zu,\"runs\":%zu}", Sh.Bench,
                       Sh.Index, Sh.End - Sh.Begin)
              : std::string();
      std::string EvArgs =
          events::enabled()
              ? format("\"bench\":%zu,\"shard\":%zu,\"runs\":%zu", Sh.Bench,
                       Sh.Index, Sh.End - Sh.Begin)
              : std::string();
      ResultCache::ShardKey Key;
      if (RC && !Cleared) {
        Key.CoreIdentity = Identities[Sh.Bench];
        Key.DerivedSeed = Seeds[Sh.Bench];
        Key.BenchIndex = Sh.Bench;
        Key.ShardIndex = Sh.Index;
        Key.RunBegin = Sh.Begin;
        Key.RunEnd = Sh.End;
      }

      // Whether this shard already produced a trace-free result this
      // sweep; whether its next traced analysis is a replay (the result
      // had been folded or parked before another shard flipped the
      // benchmark -- the flipping shard's own traced rerun is the flip's
      // cost, not a replay); and whether it has been counted as done.
      // (A re-queued shard that had come traced from the cache is taken
      // from the cache again.)
      bool HadTraceFree = Requeued, Replay = Requeued, Counted = Requeued;
      for (;;) {
        const bool TraceFree =
            !Cleared && !Fold.Traced.load(std::memory_order_acquire);
        AnalysisResult Result;
        bool FromCache = false;
        if (RC && !Cleared) {
          trace::Span ProbeSpan("shard.cache_probe", "engine", SpanArgs);
          metrics::ScopedTimer ProbeTimer(TProbe);
          FromCache = RC->lookup(Key, Result, /*AcceptTraceFree=*/TraceFree);
        }
        const bool Analyze = !Cleared && !FromCache;
        if (Analyze) {
          // Limb-traffic deltas bracket the analysis on this worker
          // thread (the counters are thread-local), so the sum over
          // shards is the sweep's total allocator activity.
          uint64_t Heap0 = limballoc::heapAllocs();
          uint64_t Hits0 = limballoc::cacheHits();
          ShardOutcome O;
          {
            trace::Span AnalyzeSpan("shard.analyze", "engine", SpanArgs);
            metrics::ScopedTimer AnalyzeTimer(TAnalyze);
            O = Src.AnalyzeShard(RunId, Inputs[Sh.Bench], Sh.Begin, Sh.End,
                                 TraceFree);
          }
          Result = std::move(O.Result);
          // Tier accounting counts each shard's runs once: a traced
          // replay re-executes the same escalations.
          if (!HadTraceFree && Cfg.Tier == TierMode::Confirm) {
            // Every run of a suspect benchmark replays under the full
            // shadow: that is the escalation cost of this tier.
            EscalatedRuns += Sh.End - Sh.Begin;
            MTierEscalations.add(Sh.End - Sh.Begin);
            if (events::enabled())
              events::emit("shard.escalated",
                           EvArgs + format(",\"escalated\":%zu",
                                           Sh.End - Sh.Begin));
          }
          uint64_t HeapD = limballoc::heapAllocs() - Heap0;
          uint64_t HitsD = limballoc::cacheHits() - Hits0;
          LimbHeap += HeapD;
          LimbHits += HitsD;
          MLimbHeap.add(HeapD);
          MLimbHits.add(HitsD);
          TraceNodes += O.TraceNodes;
          Fold.TraceNodes += O.TraceNodes;
          MTraceNodes.add(O.TraceNodes);
          if (TraceFree) {
            ++TraceFreeShards;
            MTraceFree.add(1);
          } else if (Replay) {
            ++ReplayedShards;
            MReplayed.add(1);
            if (events::enabled())
              events::emit("shard.replayed", EvArgs);
          }
        }
        // The flip happens before a trace-free result is stored or
        // emitted, so neither ever carries a root cause. A traced cache
        // hit flips its benchmark too, but is usable as it is.
        if (TraceFree && Result.namesRootCause()) {
          // Losing the flip to a concurrent shard makes the rerun a replay.
          Replay |= !Flip(Sh.Bench);
          if (Result.traceFree()) {
            HadTraceFree = true;
            std::lock_guard<std::mutex> Lock(Fold.M);
            keepProfilerCost(Fold.DiscardedCost, Result);
            continue;
          }
        }
        if (Analyze && RC)
          RC->store(Key, Src.Name, Result);
        if (!Counted) {
          Counted = true;
          if (Analyze) {
            ++Analyzed;
            MShardsAnalyzed.add(1);
            if (events::enabled())
              events::emit("shard.analyzed", EvArgs);
          } else if (FromCache) {
            ++Cached;
            MShardsCached.add(1);
            if (events::enabled())
              events::emit("shard.cache_hit", EvArgs);
          }
          MShardsDone.add(1);
          MRuns.add(Sh.End - Sh.Begin);
        }
        if (!Cfg.EmitShardDir.empty()) {
          const bool Bin = Cfg.WireFormat == WireEncoding::Binary;
          std::string Name = format(Bin ? "shard-b%05llu-s%05llu.hgb"
                                        : "shard-b%05llu-s%05llu.json",
                                    static_cast<unsigned long long>(Sh.Bench),
                                    static_cast<unsigned long long>(Sh.Index));
          std::string Doc =
              Bin ? renderShardBinary(CfgHash, Src.Name, Sh.Bench, Sh.Index,
                                      Sh.Begin, Sh.End, Result)
                  : renderShardJson(CfgHash, Src.Name, Sh.Bench, Sh.Index,
                                    Sh.Begin, Sh.End, Result);
          if (!writeFileAtomic(Cfg.EmitShardDir + "/" + Name, Doc))
            ++EmitFailed;
        }

        // Streaming in-order fold. The arriving shard parks in Pending,
        // then everything contiguous from NextIndex folds in; shard sizes
        // are recovered from the layout (End - Begin == ShardSize except
        // for the tail shard). The accumulator never mixes the two kinds
        // of records: an untraced benchmark's stays traced while only
        // traced cache hits arrive, and the first trace-free result
        // strips it and every later arrival.
        BenchmarkResult &BR = Out.Benchmarks[Sh.Bench];
        size_t Total = Inputs[Sh.Bench].size();
        trace::Span ReduceSpan("shard.reduce", "engine", SpanArgs);
        metrics::ScopedTimer ReduceTimer(TReduce);
        std::unique_lock<std::mutex> Lock(Fold.M);
        const bool Traced = Fold.Traced.load(std::memory_order_relaxed);
        if (Traced && Result.traceFree()) {
          // Another shard flipped the benchmark while this one ran.
          keepProfilerCost(Fold.DiscardedCost, Result);
          Lock.unlock();
          HadTraceFree = Replay = true;
          continue;
        }
        Fold.Pending.emplace(Sh.Index, std::move(Result));
        for (auto It = Fold.Pending.find(Fold.NextIndex);
             It != Fold.Pending.end();
             It = Fold.Pending.find(Fold.NextIndex)) {
          size_t Slot = Fold.NextIndex - Cfg.ShardBegin;
          if (!Traced && !Fold.Stripped && It->second.traceFree()) {
            BR.Records.dropTraces();
            Fold.Stripped = true;
          }
          if (Fold.Stripped)
            It->second.dropTraces();
          if (BR.Shards == 0)
            BR.Records = std::move(It->second);
          else
            BR.Records.mergeFrom(It->second);
          ++BR.Shards;
          size_t Lo = Fold.NextIndex * Step;
          BR.Runs += std::min(Lo + Step, Total) - Lo;
          Fold.Pending.erase(It);
          // Each shard surfaces one reduce; a refold after a flip is
          // visible as its shard.replayed event instead.
          if (!Fold.Reduced[Slot]) {
            Fold.Reduced[Slot] = 1;
            if (events::enabled())
              events::emit("shard.reduced",
                           format("\"bench\":%zu,\"shard\":%zu", Sh.Bench,
                                  Fold.NextIndex));
          }
          ++Fold.NextIndex;
        }
        break;
      }
    };

    for (size_t S = 0; S < Shards.size(); ++S) {
      if (events::enabled())
        events::emit("shard.queued",
                     format("\"bench\":%zu,\"shard\":%zu,\"runs\":%zu",
                            Shards[S].Bench, Shards[S].Index,
                            Shards[S].End - Shards[S].Begin));
      Submit(S, false);
    }
    Pool.waitAll();
    ThreadPool::PoolStats PS = Pool.stats();
    PoolTasks += PS.Executed;
    PoolSteals += PS.Steals;
    PoolMaxDepth = std::max<uint64_t>(PoolMaxDepth, PS.MaxQueueDepth);
    Out.Stats.PoolTasks = PoolTasks;
    Out.Stats.PoolSteals = PoolSteals;
    Out.Stats.PoolMaxQueueDepth = PoolMaxDepth;
    metrics::counter("pool.tasks_submitted").add(PS.Submitted);
    metrics::counter("pool.tasks_executed").add(PS.Executed);
    metrics::counter("pool.steals").add(PS.Steals);
    metrics::gauge("pool.max_queue_depth")
        .set(static_cast<int64_t>(PS.MaxQueueDepth));
    metrics::gauge("pool.workers").set(static_cast<int64_t>(Pool.workers()));
  }

  // Phase 3 (serial, cheap): build the per-benchmark reports from the
  // merged records and collect the statistics.
  for (size_t B = 0; B < Sources.size(); ++B) {
    BenchmarkResult &BR = Out.Benchmarks[B];
    for (const auto &[PC, Cost] : Folds[B].DiscardedCost) {
      auto It = BR.Records.Ops.find(PC);
      if (It != BR.Records.Ops.end())
        addProfilerCost(It->second, Cost);
    }
    BR.Rep = buildReport(BR.Records);
    BR.Traced = Folds[B].Traced.load(std::memory_order_relaxed);
    BR.TraceNodes = Folds[B].TraceNodes.load(std::memory_order_relaxed);
    Out.Stats.Shards += BR.Shards;
    Out.Stats.Runs += BR.Runs;
    Out.Stats.TracedBenchmarks += BR.Traced ? 1 : 0;
  }
  MTracedBenchmarks.add(Out.Stats.TracedBenchmarks);
  Out.Stats.Benchmarks = Sources.size();
  Out.Stats.AnalyzedShards = Analyzed.load();
  Out.Stats.CachedShards = Cached.load();
  Out.Stats.EmitFailures = EmitFailed.load();
  Out.Stats.LimbHeapAllocs = LimbHeap.load();
  Out.Stats.LimbCacheHits = LimbHits.load();
  Out.Stats.Tier0Runs = Tier0Runs.load();
  Out.Stats.Tier0Ops = Tier0Ops.load();
  Out.Stats.EscalatedRuns = EscalatedRuns.load();
  Out.Stats.TraceFreeShards = TraceFreeShards.load();
  Out.Stats.ReplayedShards = ReplayedShards.load();
  Out.Stats.TraceNodes = TraceNodes.load();
  if (Cfg.Tier == TierMode::Confirm) {
    for (size_t B = 0; B < Sources.size(); ++B)
      if (BenchSuspect[B])
        ++Out.Stats.ConfirmedBenchmarks;
    MTierConfirmations.add(Out.Stats.ConfirmedBenchmarks);
    MTier0Runs.add(Out.Stats.Tier0Runs);
    MTier0Ops.add(Out.Stats.Tier0Ops);
  }
  if (RC) {
    Out.Stats.ResultCacheHits = RC->hits() - RcHits0;
    Out.Stats.ResultCacheMisses = RC->misses() - RcMisses0;
    Out.Stats.ResultCacheStoreFailures = RC->storeFailures() - RcStoreFail0;
    metrics::counter("rcache.hits").add(Out.Stats.ResultCacheHits);
    metrics::counter("rcache.misses").add(Out.Stats.ResultCacheMisses);
    metrics::counter("rcache.store_failures")
        .add(Out.Stats.ResultCacheStoreFailures);
  }
  if (RC && Cfg.CacheMaxBytes > 0) {
    // Post-run LRU pruning keeps the result cache under its cap; a
    // failure never fails the sweep (the cache is an accelerator, not
    // load-bearing) but is reported so an unenforced cap is visible.
    CacheGcStats Gc;
    std::string GcErr;
    if (RC->gc(Cfg.CacheMaxBytes, Gc, GcErr)) {
      Out.Stats.CachePrunedEntries = Gc.PrunedEntries;
      Out.Stats.CachePrunedBytes = Gc.PrunedBytes;
    } else {
      Out.Stats.CacheGcError = std::move(GcErr);
    }
  }
  Out.Stats.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  if (events::enabled())
    events::emit(
        "sweep.end",
        format("\"benchmarks\":%llu,\"shards\":%llu,\"runs\":%llu,"
               "\"analyzed\":%llu,\"cached\":%llu,\"escalated\":%llu,"
               "\"wallSeconds\":%s",
               static_cast<unsigned long long>(Out.Stats.Benchmarks),
               static_cast<unsigned long long>(Out.Stats.Shards),
               static_cast<unsigned long long>(Out.Stats.Runs),
               static_cast<unsigned long long>(Out.Stats.AnalyzedShards),
               static_cast<unsigned long long>(Out.Stats.CachedShards),
               static_cast<unsigned long long>(Out.Stats.EscalatedRuns),
               formatDoubleShortest(Out.Stats.WallSeconds).c_str()));
  return Out;
}

//===----------------------------------------------------------------------===//
// Frontend entry points
//===----------------------------------------------------------------------===//

/// Worker-local analyzer reuse shared by both frontends: consecutive
/// shards of the same benchmark on one worker recycle one analyzer -- its
/// trace arena, shadow-value pool, interned influence sets, and
/// per-thread limb scratch all stay warm -- instead of rebuilding the
/// arenas per shard. reset() restores the exact fresh-instance records
/// contract, so reports stay byte-identical at any worker count (the
/// selftest checks this). \p Key is the benchmark's address identity,
/// only meaningful within one run() (ProgramCache never evicts during
/// it, and caller-owned kernel vectors outlive it); the RunId in the
/// cache makes a recycled address harmless even if worker threads ever
/// outlive a run. One thread_local cache exists per analyzer type; a
/// trace-free analyzer is never reused for a traced shard or vice versa.
template <typename Analyzer, typename MakeFn, typename RunOneFn>
static ShardOutcome
analyzeShardWorkerLocal(uint64_t RunId, const void *Key, bool TraceFree,
                        MakeFn Make, RunOneFn RunOne,
                        const std::vector<std::vector<double>> &Inputs,
                        size_t Begin, size_t End) {
  struct Worker {
    uint64_t Run = 0;
    const void *Key = nullptr;
    bool TraceFree = false;
    std::unique_ptr<Analyzer> A;
  };
  thread_local Worker W;
  if (W.Run == RunId && W.Key == Key && W.TraceFree == TraceFree && W.A) {
    W.A->reset();
  } else {
    W.A = Make();
    W.Run = RunId;
    W.Key = Key;
    W.TraceFree = TraceFree;
  }
  ShardOutcome Out;
  size_t Nodes0 = W.A->stats().TraceNodesAllocated;
  for (size_t I = Begin; I < End; ++I)
    RunOne(*W.A, Inputs[I]);
  Out.TraceNodes = W.A->stats().TraceNodesAllocated - Nodes0;
  Out.Result = W.A->snapshot();
  return Out;
}

/// Tier-0 sibling of analyzeShardWorkerLocal: a worker-local
/// predicate-only analyzer sweeps the slice and reports the suspect
/// verdict. Each call site instantiates its own thread_local cache (the
/// Make/RunOne lambda types are part of the template identity), so a
/// tier-0 analyzer can never be mistaken for a full one even under the
/// same (RunId, Key).
template <typename Analyzer, typename MakeFn, typename RunOneFn>
static Tier0Outcome
tier0ShardWorkerLocal(uint64_t RunId, const void *Key, MakeFn Make,
                      RunOneFn RunOne,
                      const std::vector<std::vector<double>> &Inputs,
                      size_t Begin, size_t End) {
  struct Worker {
    uint64_t Run = 0;
    const void *Key = nullptr;
    std::unique_ptr<Analyzer> A;
  };
  thread_local Worker W;
  if (W.Run == RunId && W.Key == Key && W.A) {
    W.A->reset();
  } else {
    W.A = Make();
    W.Run = RunId;
    W.Key = Key;
  }
  Tier0Outcome Out;
  uint64_t Ops0 = W.A->stats().ShadowOpsExecuted;
  for (size_t I = Begin; I < End; ++I) {
    RunOne(*W.A, Inputs[I]);
    ++Out.Runs;
    if (W.A->lastRunSuspect()) {
      Out.Suspect = true;
      break; // One suspect run settles the shard's verdict.
    }
  }
  Out.Ops = W.A->stats().ShadowOpsExecuted - Ops0;
  return Out;
}

/// Wraps one FPCore core as a sweep source: analysis runs a worker-local
/// Herbgrind instance over the compiled program.
static SweepSource coreSource(const fpcore::Core &C,
                              fpcore::ProgramCache &Cache,
                              const AnalysisConfig &ACfg) {
  SweepSource Src;
  Src.Name = C.Name;
  std::vector<std::pair<double, double>> Ranges;
  for (const fpcore::VarRange &VR : fpcore::sampleRanges(C))
    Ranges.push_back({VR.Lo, VR.Hi});
  Src.Ranges = std::move(Ranges);
  Src.MakeIdentity = [&C] { return C.print(); };
  auto RunOne = [](Herbgrind &HG, const std::vector<double> &In) {
    HG.runOnInput(In);
  };
  AnalysisConfig FreeCfg = ACfg, PCfg = ACfg;
  FreeCfg.TraceFree = true;
  PCfg.PredicateOnly = true;
  Src.AnalyzeShard = [&C, &Cache, &ACfg, FreeCfg, RunOne](
                         uint64_t RunId,
                         const std::vector<std::vector<double>> &Inputs,
                         size_t Begin, size_t End, bool TraceFree) {
    const Program &P = Cache.get(C);
    const AnalysisConfig &A = TraceFree ? FreeCfg : ACfg;
    auto Make = [&] { return std::make_unique<Herbgrind>(P, A); };
    return analyzeShardWorkerLocal<Herbgrind>(RunId, &P, TraceFree, Make,
                                              RunOne, Inputs, Begin, End);
  };
  Src.Tier0Shard = [&C, &Cache, PCfg, RunOne](
                       uint64_t RunId,
                       const std::vector<std::vector<double>> &Inputs,
                       size_t Begin, size_t End) {
    const Program &P = Cache.get(C);
    return tier0ShardWorkerLocal<Herbgrind>(
        RunId, &P, [&] { return std::make_unique<Herbgrind>(P, PCfg); },
        RunOne, Inputs, Begin, End);
  };
  return Src;
}

/// Wraps one native kernel as a sweep source: analysis runs the kernel's
/// actual C++ code under a worker-local native::Context. The context's
/// content-hashed op identities are what keep this mergeable and cacheable
/// exactly like the interpreter path.
static SweepSource kernelSource(const native::Kernel &K,
                                const AnalysisConfig &ACfg) {
  SweepSource Src;
  Src.Name = K.Name;
  for (const native::Kernel::InputRange &R : K.Inputs)
    Src.Ranges.push_back({R.Lo, R.Hi});
  Src.MakeIdentity = [&K] { return K.identity(); };
  auto RunOne = [&K](native::Context &C, const std::vector<double> &In) {
    C.run(K, In);
  };
  AnalysisConfig FreeCfg = ACfg, PCfg = ACfg;
  FreeCfg.TraceFree = true;
  PCfg.PredicateOnly = true;
  Src.AnalyzeShard = [&ACfg, FreeCfg, RunOne, &K](
                         uint64_t RunId,
                         const std::vector<std::vector<double>> &Inputs,
                         size_t Begin, size_t End, bool TraceFree) {
    const AnalysisConfig &A = TraceFree ? FreeCfg : ACfg;
    auto Make = [&] { return std::make_unique<native::Context>(A); };
    return analyzeShardWorkerLocal<native::Context>(
        RunId, &K, TraceFree, Make, RunOne, Inputs, Begin, End);
  };
  Src.Tier0Shard = [PCfg, RunOne, &K](
                       uint64_t RunId,
                       const std::vector<std::vector<double>> &Inputs,
                       size_t Begin, size_t End) {
    return tier0ShardWorkerLocal<native::Context>(
        RunId, &K, [&] { return std::make_unique<native::Context>(PCfg); },
        RunOne, Inputs, Begin, End);
  };
  return Src;
}

BatchResult Engine::run(const std::vector<fpcore::Core> &Cores) {
  return run(Cores, {});
}

BatchResult Engine::run(const std::vector<native::Kernel> &Kernels) {
  return run({}, Kernels);
}

BatchResult Engine::run(const std::vector<fpcore::Core> &Cores,
                        const std::vector<native::Kernel> &Kernels) {
  size_t CacheHits0 = Cache.hits(), CacheMisses0 = Cache.misses();
  std::vector<SweepSource> Sources;
  Sources.reserve(Cores.size() + Kernels.size());
  for (const fpcore::Core &C : Cores)
    Sources.push_back(coreSource(C, Cache, Cfg.Analysis));
  for (const native::Kernel &K : Kernels)
    Sources.push_back(kernelSource(K, Cfg.Analysis));
  BatchResult Out = runSweepImpl(Cfg, RC.get(), Sources);
  Out.Stats.CacheHits = Cache.hits() - CacheHits0;
  Out.Stats.CacheMisses = Cache.misses() - CacheMisses0;
  return Out;
}

BatchResult Engine::runCorpus() { return run(fpcore::compilableCorpus()); }

//===----------------------------------------------------------------------===//
// Batch output
//===----------------------------------------------------------------------===//

Report BatchResult::merged() const {
  Report R;
  for (const BenchmarkResult &BR : Benchmarks)
    R.mergeFrom(BR.Rep);
  return R;
}

std::string BatchResult::renderJson() const {
  return renderWire(WireEncoding::Json);
}

std::string BatchResult::renderWire(WireEncoding Enc) const {
  std::vector<BatchReportEntryRef> Entries;
  Entries.reserve(Benchmarks.size());
  for (const BenchmarkResult &BR : Benchmarks)
    Entries.push_back({&BR.Name, BR.Shards, BR.Runs, &BR.Rep});
  return Enc == WireEncoding::Binary ? renderBatchReportBinary(Entries)
                                     : renderBatchReportJson(Entries);
}

//===----------------------------------------------------------------------===//
// Merging emitted shard documents (the distributed workflow)
//===----------------------------------------------------------------------===//

bool herbgrind::engine::mergeShards(std::vector<ShardDoc> Docs,
                                    BatchResult &Out, std::string &Err,
                                    std::string *Warnings) {
  if (Docs.empty()) {
    Err = "no shard documents to merge";
    return false;
  }
  for (const ShardDoc &D : Docs)
    if (D.ConfigHash != Docs.front().ConfigHash) {
      Err = format("config hash mismatch: shard %llu of '%s' has %s, "
                   "expected %s (shards from different sweep "
                   "configurations cannot merge)",
                   static_cast<unsigned long long>(D.ShardIndex),
                   D.Benchmark.c_str(), D.ConfigHash.c_str(),
                   Docs.front().ConfigHash.c_str());
      return false;
    }

  std::stable_sort(Docs.begin(), Docs.end(),
                   [](const ShardDoc &A, const ShardDoc &B) {
                     if (A.BenchIndex != B.BenchIndex)
                       return A.BenchIndex < B.BenchIndex;
                     return A.ShardIndex < B.ShardIndex;
                   });

  for (size_t I = 0; I + 1 < Docs.size(); ++I) {
    const ShardDoc &A = Docs[I], &B = Docs[I + 1];
    if (A.BenchIndex != B.BenchIndex)
      continue;
    if (A.Benchmark != B.Benchmark) {
      Err = format("benchmark index %llu names both '%s' and '%s'",
                   static_cast<unsigned long long>(A.BenchIndex),
                   A.Benchmark.c_str(), B.Benchmark.c_str());
      return false;
    }
    if (A.ShardIndex == B.ShardIndex) {
      Err = format("duplicate shard %llu for benchmark '%s'",
                   static_cast<unsigned long long>(A.ShardIndex),
                   A.Benchmark.c_str());
      return false;
    }
    if (Warnings && B.RunBegin != A.RunEnd)
      *Warnings += format("gap in '%s' between shard %llu (runs end %llu) "
                          "and shard %llu (runs begin %llu); merging the "
                          "shards present\n",
                          A.Benchmark.c_str(),
                          static_cast<unsigned long long>(A.ShardIndex),
                          static_cast<unsigned long long>(A.RunEnd),
                          static_cast<unsigned long long>(B.ShardIndex),
                          static_cast<unsigned long long>(B.RunBegin));
  }

  for (size_t I = 0; I < Docs.size();) {
    size_t J = I;
    while (J < Docs.size() && Docs[J].BenchIndex == Docs[I].BenchIndex)
      ++J;
    // The pairwise pass above cannot see a missing *leading* shard.
    if (Warnings && Docs[I].RunBegin != 0)
      *Warnings += format("'%s' starts at shard %llu (runs begin %llu), "
                          "not at the beginning of the sweep; merging the "
                          "shards present\n",
                          Docs[I].Benchmark.c_str(),
                          static_cast<unsigned long long>(Docs[I].ShardIndex),
                          static_cast<unsigned long long>(Docs[I].RunBegin));
    // The ladder's invariant: the benchmark reports a root cause exactly
    // when one of its documents names one, and then every document must
    // be traced. Without a root cause, traced and trace-free documents
    // fold alike once the traced ones drop their expressions.
    bool RootCause = false;
    size_t TraceFree = J;
    for (size_t K = I; K < J; ++K) {
      RootCause |= Docs[K].Result.namesRootCause();
      if (TraceFree == J && Docs[K].Result.traceFree())
        TraceFree = K;
    }
    if (RootCause && TraceFree != J) {
      Err = format("'%s' reports a root cause, but shard %llu is a "
                   "trace-free document with no expressions to render "
                   "(rerun that shard traced, e.g. as a --shard-range "
                   "slice)",
                   Docs[I].Benchmark.c_str(),
                   static_cast<unsigned long long>(Docs[TraceFree].ShardIndex));
      return false;
    }
    if (TraceFree != J)
      for (size_t K = I; K < J; ++K)
        Docs[K].Result.dropTraces();
    BenchmarkResult BR;
    BR.Name = Docs[I].Benchmark;
    BR.Traced = TraceFree == J;
    for (size_t K = I; K < J; ++K) {
      if (K == I)
        BR.Records = std::move(Docs[K].Result);
      else
        BR.Records.mergeFrom(Docs[K].Result);
      ++BR.Shards;
      BR.Runs += Docs[K].RunEnd - Docs[K].RunBegin;
    }
    BR.Rep = buildReport(BR.Records);
    Out.Stats.Shards += BR.Shards;
    Out.Stats.Runs += BR.Runs;
    Out.Benchmarks.push_back(std::move(BR));
    I = J;
  }
  Out.Stats.Benchmarks = Out.Benchmarks.size();
  return true;
}
