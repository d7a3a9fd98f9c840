//===- examples/accsum.cpp - Tiered shadowing on accurate summation -------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
// The classic accurate-summation pair under the tiered shadow: a naive
// running sum absorbs a thousand unit-sized addends into a 1e16-sized
// base and silently drops them (hundreds of ulps of output error), while
// Kahan's compensated loop recovers every dropped residual and stays
// within an ulp or two. Both are plain C++ on the drop-in native::Real.
//
// The point of running them here is what tier 0 does with each: the
// cheap per-value error bound is enough to *clear* the Kahan kernel
// without ever touching the 256-bit shadow, while the naive kernel trips
// the output predicate and escalates to the full analysis, which then
// pins the blame on the += line. test_accsum.cpp asserts exactly this
// split per run and through the batch engine's confirm tier.
//
//===----------------------------------------------------------------------===//

#include "herbgrind/Herbgrind.h"

#include <cstdio>

using namespace herbgrind;
using native::Real;

namespace {

const int Addends = 1000;

/// sum = base; for each addend: sum += x. At base ~1e16 each x ~1 is
/// below half an ulp, so every += rounds back to where it started.
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

/// Kahan: the two-step dance keeps the dropped low-order part of every
/// addition in a compensation term and feeds it back into the next one.
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
  K.Identity = std::string("accsum|v1|") + Tag;
  K.Inputs.push_back({1e15, 1e16}); // the big base
  K.Inputs.push_back({0.5, 1.5});   // the small addend
  K.Fn = Fn;
  return K;
}

} // namespace

int main() {
  native::Kernel Naive = makeKernel("naive summation", "naive",
                                    kernelNaiveSum);
  native::Kernel Kahan = makeKernel("Kahan summation", "kahan",
                                    kernelKahanSum);
  const std::vector<double> In = {1e16, 1.0};

  // Tier 0: the cheap predicate pass on native doubles. One verdict per
  // kernel -- suspect (must escalate) or cleared (provably cannot have
  // crossed any reporting threshold).
  AnalysisConfig PredCfg;
  PredCfg.PredicateOnly = true;
  std::printf("--- tier-0 predicate pass ---\n");
  for (const native::Kernel *K : {&Naive, &Kahan}) {
    native::Context C(PredCfg);
    C.run(*K, In);
    std::printf("%-16s tier-0 verdict: %s\n", K->Name.c_str(),
                C.lastRunSuspect() ? "suspect -> escalate to BigFloat"
                                   : "cleared -> full shadow skipped");
  }

  // The full 256-bit shadow, i.e. what escalation buys the suspect
  // kernel: a report naming the += accumulation as the root cause.
  std::printf("\n--- full shadow on the escalated kernel ---\n");
  native::Context Full((AnalysisConfig()));
  Full.run(Naive, In);
  Full.run(Kahan, In);
  std::printf("%s", buildReport(Full).render().c_str());

  std::printf(
      "Only the naive loop escalates: its output is hundreds of ulps from\n"
      "the real sum, which the tier-0 bound cannot rule out. Kahan's\n"
      "compensated loop -- despite individual subtractions with enormous\n"
      "local error -- keeps the running bound tight enough that tier 0\n"
      "clears it without a single BigFloat operation.\n");
  return 0;
}
