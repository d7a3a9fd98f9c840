//===- bench/bench_microbench.cpp - google-benchmark primitives -------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// Microbenchmarks of the analysis primitives whose costs the paper's
// Section 6 engineering targets: shadow-real arithmetic at several
// precisions, trace-node construction with sharing, anti-unification, and
// the instrumented-vs-native execution gap on a small kernel.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "real/RealMath.h"

#include <benchmark/benchmark.h>

#include <cmath>

using namespace herbgrind;

static void BM_BigFloatAdd(benchmark::State &State) {
  size_t Prec = static_cast<size_t>(State.range(0));
  BigFloat A = BigFloat::fromDouble(1.234567e10, Prec);
  BigFloat B = BigFloat::fromDouble(-9.8765e-7, Prec);
  for (auto _ : State)
    benchmark::DoNotOptimize(BigFloat::add(A, B));
}
BENCHMARK(BM_BigFloatAdd)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

static void BM_BigFloatMul(benchmark::State &State) {
  size_t Prec = static_cast<size_t>(State.range(0));
  BigFloat A = BigFloat::fromDouble(1.234567e10, Prec);
  BigFloat B = BigFloat::fromDouble(-9.8765e-7, Prec);
  for (auto _ : State)
    benchmark::DoNotOptimize(BigFloat::mul(A, B));
}
BENCHMARK(BM_BigFloatMul)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

static void BM_BigFloatDiv(benchmark::State &State) {
  size_t Prec = static_cast<size_t>(State.range(0));
  BigFloat A = BigFloat::fromDouble(1.234567e10, Prec);
  BigFloat B = BigFloat::fromDouble(-9.8765e-7, Prec);
  for (auto _ : State)
    benchmark::DoNotOptimize(BigFloat::div(A, B));
}
BENCHMARK(BM_BigFloatDiv)->Arg(256)->Arg(1024);

static void BM_RealExp(benchmark::State &State) {
  BigFloat X = BigFloat::fromDouble(1.5, 256);
  for (auto _ : State)
    benchmark::DoNotOptimize(realmath::exp(X));
}
BENCHMARK(BM_RealExp);

static void BM_RealSinLargeArg(benchmark::State &State) {
  BigFloat X = BigFloat::fromDouble(1e300, 256);
  for (auto _ : State)
    benchmark::DoNotOptimize(realmath::sin(X));
}
BENCHMARK(BM_RealSinLargeArg);

static void BM_ToDouble(benchmark::State &State) {
  BigFloat X = realmath::pi(256);
  for (auto _ : State)
    benchmark::DoNotOptimize(X.toDouble());
}
BENCHMARK(BM_ToDouble);

static void BM_TraceNodeChurn(benchmark::State &State) {
  TraceArena Arena(24, 5, State.range(0));
  for (auto _ : State) {
    TraceNode *A = Arena.leaf(1.0);
    TraceNode *B = Arena.leaf(2.0);
    TraceNode *Kids[2] = {A, B};
    TraceNode *N = Arena.node(Opcode::AddF64, 1, 3.0, Kids, 2);
    Arena.release(A);
    Arena.release(B);
    Arena.release(N);
  }
}
BENCHMARK(BM_TraceNodeChurn)->Arg(1)->Arg(0); // pools on / off

static void BM_AntiUnify(benchmark::State &State) {
  TraceArena Arena(24, 5, true);
  // (x + 1) * sqrt(x): a representative small trace.
  auto MakeTrace = [&](double X) {
    TraceNode *L = Arena.leaf(X);
    TraceNode *One = Arena.leaf(1.0);
    TraceNode *AddKids[2] = {L, One};
    TraceNode *Add = Arena.node(Opcode::AddF64, 1, X + 1, AddKids, 2);
    TraceNode *SqKids[1] = {L};
    TraceNode *Sq = Arena.node(Opcode::SqrtF64, 2, std::sqrt(X), SqKids, 1);
    TraceNode *MulKids[2] = {Add, Sq};
    TraceNode *Mul =
        Arena.node(Opcode::MulF64, 3, (X + 1) * std::sqrt(X), MulKids, 2);
    Arena.release(L);
    Arena.release(One);
    Arena.release(Add);
    Arena.release(Sq);
    return Mul;
  };
  TraceNode *T0 = MakeTrace(2.0);
  auto Expr = symbolize(Arena, T0);
  uint32_t NextVar = 0;
  AntiUnifyScratch Scratch;
  double X = 3.0;
  std::vector<TraceNode *> Traces;
  for (auto _ : State) {
    TraceNode *T = MakeTrace(X);
    X += 1.0;
    antiUnify(Arena, *Expr, T, NextVar, Scratch);
    Traces.push_back(T);
  }
  for (TraceNode *T : Traces)
    Arena.release(T);
  Arena.release(T0);
}
BENCHMARK(BM_AntiUnify);

static void BM_NativeInterp(benchmark::State &State) {
  const fpcore::Core &C = fpcore::corpus()[0];
  Program P = fpcore::compile(C);
  for (auto _ : State)
    benchmark::DoNotOptimize(interpret(P, {1e8}));
}
BENCHMARK(BM_NativeInterp);

static void BM_InstrumentedRun(benchmark::State &State) {
  const fpcore::Core &C = fpcore::corpus()[0];
  Program P = fpcore::compile(C);
  Herbgrind HG(P);
  for (auto _ : State) {
    HG.runOnInput({1e8});
    benchmark::DoNotOptimize(HG.lastOutputs());
  }
}
BENCHMARK(BM_InstrumentedRun);

BENCHMARK_MAIN();
