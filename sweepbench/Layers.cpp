//===- sweepbench/Layers.cpp - Per-layer metrics of a traced run ----------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// The traced run behind `--trace 1`. Untraced and traced sweeps of the
// workload alternate (their wall-time ratio is the tracing overhead); the
// traced sweep's spans and EngineStats give the engine and tier-0 layers.
// Every other layer is timed by calls from here into its public
// functions, on the workload's own benchmarks, inputs and documents:
// fpcore parse/compile (from set-up), Herbgrind::runOnInput against
// ir::interpret, BigFloat/RealMath kernels, native kernels on a fresh
// Context, and the shard/report codecs.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "analysis/Analysis.h"
#include "analysis/Serialize.h"
#include "engine/ResultCache.h"
#include "fpcore/Compile.h"
#include "ir/Interpreter.h"
#include "native/Context.h"
#include "real/BigFloat.h"
#include "real/RealMath.h"
#include "support/Rng.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>

namespace sweepbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double mean(const std::vector<double> &V) {
  double Sum = 0.0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0.0 : Sum / static_cast<double>(V.size());
}

/// Nearest-rank percentile (P in [0, 100]).
static double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(P / 100.0 * static_cast<double>(V.size()));
  return V[std::min(Rank, V.size() - 1)];
}

static double ratio(double Num, double Den) {
  return Den > 0 ? Num / Den : 0.0;
}

namespace {

/// Spans of one traced sweep, reduced to the layer numbers.
struct SpanSummary {
  double Tier0Ms = 0.0;
  double ProbeMs = 0.0;
  double ReduceMs = 0.0;
  std::vector<double> ShardMs; ///< probe + analyze + reduce per shard.
  double MainSelfMs = 0.0;     ///< Main-thread layer spans (not engine.run).
  double WorkerSelfMs = 0.0;   ///< Worker-thread span self time.
};

SpanSummary summarizeSpans(const std::vector<trace::Event> &Events) {
  SpanSummary S;
  uint32_t MainTid = UINT32_MAX;
  for (const trace::Event &E : Events)
    if (E.Name == "engine.run")
      MainTid = E.Tid;

  // Self time: a span's duration minus its direct children's on the same
  // thread. Walking each thread's spans by start time, a stack of open
  // spans finds each span's parent.
  std::vector<size_t> Order(Events.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&Events](size_t A, size_t B) {
    const trace::Event &X = Events[A], &Y = Events[B];
    if (X.Tid != Y.Tid)
      return X.Tid < Y.Tid;
    if (X.StartNanos != Y.StartNanos)
      return X.StartNanos < Y.StartNanos;
    return X.DurNanos > Y.DurNanos; // a parent opens before its children
  });
  std::map<uint32_t, std::vector<size_t>> Open;
  std::vector<double> Self(Events.size());
  for (size_t I : Order) {
    const trace::Event &E = Events[I];
    Self[I] = static_cast<double>(E.DurNanos);
    std::vector<size_t> &Stack = Open[E.Tid];
    while (!Stack.empty()) {
      const trace::Event &Top = Events[Stack.back()];
      if (E.StartNanos >= Top.StartNanos + Top.DurNanos)
        Stack.pop_back();
      else
        break;
    }
    if (!Stack.empty())
      Self[Stack.back()] -= static_cast<double>(E.DurNanos);
    Stack.push_back(I);
  }

  std::map<std::pair<unsigned long, unsigned long>, double> PerShard;
  for (size_t I = 0; I < Events.size(); ++I) {
    const trace::Event &E = Events[I];
    double Ms = static_cast<double>(E.DurNanos) / 1e6;
    if (E.Name == "engine.tier0")
      S.Tier0Ms += Ms;
    else if (E.Name == "shard.cache_probe")
      S.ProbeMs += Ms;
    else if (E.Name == "shard.reduce")
      S.ReduceMs += Ms;
    if (E.Name == "shard.cache_probe" || E.Name == "shard.analyze" ||
        E.Name == "shard.reduce") {
      unsigned long Bench = 0, Shard = 0;
      if (std::sscanf(E.Args.c_str(), "{\"bench\":%lu,\"shard\":%lu", &Bench,
                      &Shard) == 2)
        PerShard[{Bench, Shard}] += Ms;
    }
    if (E.Name == "engine.run")
      continue;
    if (E.Tid == MainTid)
      S.MainSelfMs += Self[I] / 1e6;
    else
      S.WorkerSelfMs += Self[I] / 1e6;
  }
  for (const auto &KV : PerShard)
    S.ShardMs.push_back(KV.second);
  return S;
}

/// Input tuples drawn from the benchmark's own ranges with the run's seed
/// (independent of the Engine's sampler).
std::vector<std::vector<double>>
sampleTuples(const std::vector<std::pair<double, double>> &Ranges, int Count,
             uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<double>> Out(static_cast<size_t>(Count));
  for (std::vector<double> &T : Out)
    for (const auto &[Lo, Hi] : Ranges)
      T.push_back(R.betweenOrdinals(Lo, Hi));
  return Out;
}

/// Herbgrind::runOnInput on every FPCore benchmark of the workload.
struct AnalysisProbe {
  std::vector<double> RunUs;
  double ShadowSeconds = 0.0;
  double InterpSeconds = 0.0; ///< ir::interpret of the same inputs.
  uint64_t ShadowOps = 0;
  uint64_t TraceNodes = 0;
  uint64_t ShadowValues = 0;
  uint64_t InfluenceSets = 0;
  uint64_t HeapAllocs = 0;
};

AnalysisProbe probeAnalysis(const Setup &S, uint64_t Seed) {
  const int Inputs = 16;
  AnalysisProbe P;
  for (size_t B = 0; B < S.Cores.size(); ++B) {
    const fpcore::Core &C = S.Cores[B];
    Program Prog = fpcore::compile(C);
    std::vector<std::pair<double, double>> Ranges;
    for (const fpcore::VarRange &VR : fpcore::sampleRanges(C))
      Ranges.push_back({VR.Lo, VR.Hi});
    std::vector<std::vector<double>> Tuples =
        sampleTuples(Ranges, Inputs, Seed * 1000003 + B);

    // The uninstrumented baseline, warmed and repeated until it is long
    // enough to time.
    for (const std::vector<double> &In : Tuples)
      interpret(Prog, In);
    int Reps = 0;
    double T0 = now(), Elapsed = 0.0;
    do {
      for (const std::vector<double> &In : Tuples)
        interpret(Prog, In);
      ++Reps;
      Elapsed = now() - T0;
    } while (Elapsed < 2e-3);
    P.InterpSeconds += Elapsed / Reps;

    Herbgrind HG(Prog);
    for (const std::vector<double> &In : Tuples) {
      uint64_t A0 = threadHeapAllocs();
      double R0 = now();
      HG.runOnInput(In);
      double Dt = now() - R0;
      P.HeapAllocs += threadHeapAllocs() - A0;
      P.ShadowSeconds += Dt;
      P.RunUs.push_back(Dt * 1e6);
    }
    AnalysisStats St = HG.stats();
    P.ShadowOps += St.ShadowOpsExecuted;
    P.TraceNodes += St.TraceNodesAllocated;
    P.ShadowValues += St.ShadowValuesAllocated;
    P.InfluenceSets += St.InfluenceSetsInterned;
  }
  return P;
}

/// Kernel::Fn through Context::run on a fresh context per kernel.
std::vector<double> probeNative(const Setup &S, uint64_t Seed) {
  const int Inputs = 128;
  std::vector<double> Us;
  for (size_t K = 0; K < S.Kernels.size(); ++K) {
    const native::Kernel &Kern = S.Kernels[K];
    std::vector<std::pair<double, double>> Ranges;
    for (const native::Kernel::InputRange &R : Kern.Inputs)
      Ranges.push_back({R.Lo, R.Hi});
    native::Context Ctx;
    for (const std::vector<double> &In :
         sampleTuples(Ranges, Inputs, Seed * 7919 + K)) {
      double T0 = now();
      Ctx.run(Kern, In);
      Us.push_back((now() - T0) * 1e6);
    }
  }
  return Us;
}

/// Nanoseconds per call of one 256-bit kernel on full-width operands.
double timeRealOp(
    const std::function<BigFloat(const BigFloat &, const BigFloat &)> &Op,
    double Lo, double Hi, uint64_t Seed) {
  const size_t Pairs = 32;
  Rng R(Seed);
  // Quotients of doubles carry all 256 mantissa bits, like shadow values
  // after a few operations.
  auto Operand = [&] {
    return BigFloat::div(BigFloat::fromDouble(R.uniformReal(Lo, Hi), 256),
                         BigFloat::fromDouble(R.uniformReal(1.0, 3.0), 256));
  };
  std::vector<BigFloat> A, B;
  for (size_t I = 0; I < Pairs; ++I) {
    A.push_back(Operand());
    B.push_back(Operand());
  }
  volatile bool Sink = false;
  std::vector<double> Ns;
  for (int Rep = 0; Rep < 3; ++Rep) {
    uint64_t Calls = 0;
    double T0 = now(), Elapsed = 0.0;
    do {
      for (size_t I = 0; I < Pairs; ++I)
        Sink = Op(A[I], B[I]).isNegative();
      Calls += Pairs;
      Elapsed = now() - T0;
    } while (Elapsed < 5e-3);
    Ns.push_back(Elapsed * 1e9 / static_cast<double>(Calls));
  }
  (void)Sink;
  return median(Ns);
}

/// Encode/decode throughput of the sweep's own records as shard documents.
struct WireProbe {
  double JsonEncode = 0.0, JsonDecode = 0.0; ///< MB/s
  double HgbEncode = 0.0, HgbDecode = 0.0;
  bool RoundTrips = true;
};

WireProbe probeWire(const engine::BatchResult &R, const std::string &CfgHash) {
  std::vector<ShardDoc> Docs;
  for (size_t B = 0; B < R.Benchmarks.size(); ++B) {
    const engine::BenchmarkResult &BR = R.Benchmarks[B];
    Docs.push_back({CfgHash, BR.Name, B, 0, 0, BR.Runs, BR.Records.clone()});
  }
  WireProbe P;
  std::vector<double> Enc[2], Dec[2];
  for (int Rep = 0; Rep < 3; ++Rep) {
    for (int F = 0; F < 2; ++F) {
      WireEncoding E = F ? WireEncoding::Binary : WireEncoding::Json;
      std::vector<std::string> Texts;
      double Bytes = 0.0;
      double T0 = now();
      for (const ShardDoc &D : Docs)
        Texts.push_back(renderShard(D, E));
      double T1 = now();
      for (const std::string &T : Texts)
        Bytes += static_cast<double>(T.size());
      std::vector<ShardDoc> Back(Texts.size());
      std::string Err;
      double T2 = now();
      for (size_t I = 0; I < Texts.size(); ++I)
        P.RoundTrips &= parseShard(Texts[I], Back[I], Err);
      double T3 = now();
      for (size_t I = 0; I < Texts.size() && P.RoundTrips; ++I)
        P.RoundTrips &= renderShard(Back[I], E) == Texts[I];
      Enc[F].push_back(Bytes / 1e6 / std::max(T1 - T0, 1e-9));
      Dec[F].push_back(Bytes / 1e6 / std::max(T3 - T2, 1e-9));
    }
  }
  P.JsonEncode = median(Enc[0]);
  P.JsonDecode = median(Dec[0]);
  P.HgbEncode = median(Enc[1]);
  P.HgbDecode = median(Dec[1]);
  return P;
}

} // namespace

void layerMetrics(const LayerInputs &In, Setup &S, Check &C,
                  std::vector<Metric> &Out) {
  auto Add = [&Out](const char *Name, double V, const char *Unit) {
    Out.push_back({Name, V, Unit});
  };

  // Untraced and traced rounds (one sweep per input set) alternate, so
  // drift hits both sides. The last traced round gives the engine and
  // tier-0 numbers; its last sweep feeds the report and wire probes.
  const int Sets = In.W->Sets;
  std::vector<double> Untraced, Traced;
  SweepOutcome Last;
  std::vector<trace::Event> Events;
  engine::EngineStats St;
  // Tier 0 against the pinned full-tier truth: a benchmark is confirmed
  // when the confirm sweep ran it under the full shadow (its records are
  // non-empty), and erroneous when the full report lists a spot.
  uint64_t Confirmed = 0, TruePos = 0, FalseNeg = 0;
  double Start = now();
  do {
    double Seconds = 0.0;
    for (int Set = 0; Set < Sets; ++Set) {
      SweepOutcome U = sweep(S, Set);
      Seconds += U.Seconds;
      checkSweep(digestsOf(U), In.Refs[Set], nullptr, C);
    }
    Untraced.push_back(Seconds);

    Seconds = 0.0;
    St = engine::EngineStats();
    Confirmed = TruePos = FalseNeg = 0;
    trace::start();
    for (int Set = 0; Set < Sets; ++Set) {
      SweepOutcome T = sweep(S, Set);
      Seconds += T.Seconds;
      checkSweep(digestsOf(T), In.Refs[Set], nullptr, C);
      const engine::EngineStats &TS = T.Result.Stats;
      St.Runs += TS.Runs;
      St.AnalyzedShards += TS.AnalyzedShards;
      St.CachedShards += TS.CachedShards;
      St.ResultCacheHits += TS.ResultCacheHits;
      St.ResultCacheMisses += TS.ResultCacheMisses;
      St.PoolSteals += TS.PoolSteals;
      St.LimbHeapAllocs += TS.LimbHeapAllocs;
      St.Tier0Runs += TS.Tier0Runs;
      St.EscalatedRuns += TS.EscalatedRuns;
      const Reference *Ref = In.Refs[Set];
      if (In.W->Tier == engine::TierMode::Confirm && Ref) {
        const auto &Got = T.Result.Benchmarks;
        for (size_t B = 0; B < Got.size() && B < Ref->Benchmarks.size(); ++B) {
          bool Conf =
              !Got[B].Records.Ops.empty() || !Got[B].Records.Spots.empty();
          bool Err = Ref->Benchmarks[B].Erroneous;
          Confirmed += Conf;
          TruePos += Conf && Err;
          FalseNeg += !Conf && Err;
        }
      }
      Last = std::move(T);
    }
    trace::stop();
    Traced.push_back(Seconds);
    Events = trace::collect();
    trace::clear();
  } while (now() - Start < In.Seconds);
  SpanSummary Sp = summarizeSpans(Events);

  Add("fpcore.parse_ms", In.ParseMs, "ms");
  Add("fpcore.compile_ms", In.CompileMs, "ms");

  uint64_t Lookups = St.ResultCacheHits + St.ResultCacheMisses;
  Add("engine.shards_analyzed", static_cast<double>(St.AnalyzedShards),
      "count");
  Add("engine.shards_cached", static_cast<double>(St.CachedShards), "count");
  Add("engine.cache_hit_ratio",
      ratio(static_cast<double>(St.ResultCacheHits),
            static_cast<double>(Lookups)),
      "ratio");
  Add("engine.cache_probe_ms", Sp.ProbeMs, "ms");
  Add("engine.reduce_ms", Sp.ReduceMs, "ms");
  Add("engine.shard_p50_ms", percentile(Sp.ShardMs, 50), "ms");
  Add("engine.shard_p99_ms", percentile(Sp.ShardMs, 99), "ms");
  Add("engine.shard_samples", static_cast<double>(Sp.ShardMs.size()), "count");
  Add("engine.pool_steals", static_cast<double>(St.PoolSteals), "count");

  AnalysisProbe AP = probeAnalysis(S, In.Seed);
  double Ops = static_cast<double>(AP.ShadowOps);
  Add("analysis.run_p50_us", percentile(AP.RunUs, 50), "us");
  Add("analysis.run_p99_us", percentile(AP.RunUs, 99), "us");
  Add("analysis.run_samples", static_cast<double>(AP.RunUs.size()), "count");
  Add("analysis.shadow_ops", Ops, "count");
  Add("analysis.ns_per_shadow_op", ratio(AP.ShadowSeconds * 1e9, Ops), "ns");
  Add("analysis.overhead_x", ratio(AP.ShadowSeconds, AP.InterpSeconds),
      "ratio");
  std::vector<double> BuildMs;
  for (int Rep = 0; Rep < 3; ++Rep) {
    double T0 = now();
    for (const engine::BenchmarkResult &BR : Last.Result.Benchmarks)
      if (buildReport(BR.Records).renderJson() != BR.Rep.renderJson())
        C.fail(1, "buildReport differs from the sweep's report");
    BuildMs.push_back((now() - T0) * 1e3);
  }
  double ReportBuildMs = median(BuildMs);
  Add("analysis.report_build_ms", ReportBuildMs, "ms");

  Add("tier0.runs", static_cast<double>(St.Tier0Runs), "count");
  Add("tier0.escalated_runs", static_cast<double>(St.EscalatedRuns), "count");
  Add("tier0.escalation_frac",
      ratio(static_cast<double>(St.EscalatedRuns),
            static_cast<double>(St.Runs)),
      "ratio");
  Add("tier0.confirmed_benchmarks", static_cast<double>(Confirmed), "count");
  Add("tier0.bench_precision",
      ratio(static_cast<double>(TruePos), static_cast<double>(Confirmed)),
      "ratio");
  Add("tier0.bench_false_neg", static_cast<double>(FalseNeg), "count");
  Add("tier0.ms", Sp.Tier0Ms, "ms");

  Add("trace.nodes_allocated", static_cast<double>(AP.TraceNodes), "count");
  Add("trace.nodes_per_op", ratio(static_cast<double>(AP.TraceNodes), Ops),
      "ratio");
  Add("shadow.values_per_op", ratio(static_cast<double>(AP.ShadowValues), Ops),
      "ratio");
  Add("shadow.influence_sets", static_cast<double>(AP.InfluenceSets), "count");

  using RealFn = std::function<BigFloat(const BigFloat &, const BigFloat &)>;
  struct RealOp {
    const char *Name;
    double Lo, Hi;
    RealFn Fn;
  };
  const RealOp RealOps[] = {
      {"real.add_ns", -4, 4,
       [](auto &A, auto &B) { return BigFloat::add(A, B); }},
      {"real.mul_ns", -4, 4,
       [](auto &A, auto &B) { return BigFloat::mul(A, B); }},
      {"real.div_ns", 0.5, 4,
       [](auto &A, auto &B) { return BigFloat::div(A, B); }},
      {"real.sqrt_ns", 0.5, 4,
       [](auto &A, auto &) { return BigFloat::sqrt(A); }},
      {"real.cbrt_ns", 0.5, 4,
       [](auto &A, auto &) { return realmath::cbrt(A); }},
      {"real.exp_ns", -4, 4, [](auto &A, auto &) { return realmath::exp(A); }},
      {"real.log_ns", 0.5, 4, [](auto &A, auto &) { return realmath::log(A); }},
      {"real.atan_ns", -4, 4,
       [](auto &A, auto &) { return realmath::atan(A); }},
      {"real.atan2_ns", -4, 4,
       [](auto &A, auto &B) { return realmath::atan2(A, B); }},
      {"real.pow_ns", 0.5, 4,
       [](auto &A, auto &B) { return realmath::pow(A, B); }},
  };
  uint64_t OpSeed = In.Seed;
  for (const RealOp &R : RealOps)
    Add(R.Name, timeRealOp(R.Fn, R.Lo, R.Hi, ++OpSeed), "ns");

  std::vector<double> NativeUs = probeNative(S, In.Seed);
  Add("native.run_p50_us", percentile(NativeUs, 50), "us");
  Add("native.run_p99_us", percentile(NativeUs, 99), "us");
  Add("native.run_samples", static_cast<double>(NativeUs.size()), "count");

  Add("limb.heap_allocs", static_cast<double>(St.LimbHeapAllocs), "count");
  Add("heap.allocs_per_shadow_op",
      ratio(static_cast<double>(AP.HeapAllocs), Ops), "ratio");

  WireProbe WP = probeWire(Last.Result,
                           engine::configHash(S.Engines.back()->config()));
  if (!WP.RoundTrips)
    C.fail(1, "shard document did not round-trip");
  std::vector<double> RenderMs;
  for (int Rep = 0; Rep < 5; ++Rep) {
    double T0 = now();
    if (Last.Result.renderJson() != Last.Doc)
      C.fail(1, "report render is not deterministic");
    RenderMs.push_back((now() - T0) * 1e3);
  }
  double RenderMsMedian = median(RenderMs);
  Add("wire.json_encode_mb_s", WP.JsonEncode, "MB/s");
  Add("wire.json_decode_mb_s", WP.JsonDecode, "MB/s");
  Add("wire.hgb_encode_mb_s", WP.HgbEncode, "MB/s");
  Add("wire.hgb_decode_mb_s", WP.HgbDecode, "MB/s");
  Add("wire.report_render_ms", RenderMsMedian, "ms");

  // What the breakdown explains of the traced round: main-thread layer
  // spans, worker spans spread over the workers, and the report builds
  // the Engine does after its pool drains.
  double WallMs = Traced.back() * 1e3;
  double Jobs = static_cast<double>(std::max(1u, In.W->Jobs));
  Add("layers.coverage",
      ratio(Sp.MainSelfMs + Sp.WorkerSelfMs / Jobs + ReportBuildMs * Sets,
            WallMs),
      "ratio");
  Add("tracing.overhead_frac", ratio(median(Traced), median(Untraced)),
      "ratio");
}

} // namespace sweepbench
