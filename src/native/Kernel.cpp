//===- native/Kernel.cpp - Native workloads for the batch engine ----------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "native/Kernel.h"

#include "native/Context.h"
#include "support/Format.h"

using namespace herbgrind;
using namespace herbgrind::native;

std::string Kernel::identity() const {
  if (!Identity.empty())
    return "native2:" + Identity;
  std::string Id = "native2:" + Name;
  for (const InputRange &R : Inputs)
    Id += format("|[%s,%s]", formatDoubleShortest(R.Lo).c_str(),
                 formatDoubleShortest(R.Hi).c_str());
  return Id;
}

//===----------------------------------------------------------------------===//
// Demo kernels
//===----------------------------------------------------------------------===//
// Ordinary C++ numerics written against native::Real -- each would read
// identically with `double` -- with HG_LOC marking the lines the analysis
// should blame individually.

namespace {

/// (x + 1) - x: the canonical catastrophic cancellation (the quickstart
/// bug), now as plain C++ instead of hand-built IR.
void cancelKernel(Context &C, const double *In, size_t N) {
  (void)In;
  (void)N;
  Real X = C.input(0);
  HG_LOC(C);
  Real Sum = X + 1.0;
  HG_LOC(C);
  Real Diff = Sum - X;
  HG_LOC(C);
  C.output(Diff);
}

/// The quadratic formula's smaller root (-b + sqrt(b^2 - 4ac)) / 2a on a
/// stiff regime (b^2 >> 4ac): sqrt(b^2 - 4ac) lands next to b and the
/// addition cancels catastrophically -- the textbook case Herbie rewrites
/// as 2c / (-b - sqrt(b^2 - 4ac)).
void quadraticKernel(Context &C, const double *In, size_t N) {
  (void)In;
  (void)N;
  Real A = C.input(0), B = C.input(1), Cc = C.input(2);
  HG_LOC(C);
  Real Disc = B * B - 4.0 * A * Cc;
  HG_LOC(C);
  Real Root = (-B + sqrt(Disc)) / (2.0 * A);
  HG_LOC(C);
  C.output(Root);
}

/// A "run for X seconds" accumulation loop stepping by an unrepresentable
/// 0.1 (the Patriot-bug mechanism): the comparison spot diverges when the
/// drifted accumulator crosses the bound a step early or late, and the
/// loop demonstrates dynamic executions merging into one static record.
void stepLoopKernel(Context &C, const double *In, size_t N) {
  (void)In;
  (void)N;
  Real Bound = C.input(0);
  Real T = 0.0;
  Real Steps = 0.0;
  // A loop condition is evaluated under whatever location the body's tail
  // left current; the for-header idiom re-stamps it each trip so the
  // comparison spot keeps one static identity.
  for (HG_LOC(C); T < Bound; HG_LOC(C)) {
    HG_LOC(C);
    T += 0.1;
    HG_LOC(C);
    Steps += 1.0;
  }
  // One HG_LOC per output: spots key on location too, and these two
  // values must not share one record.
  HG_LOC(C);
  C.output(T);
  HG_LOC(C);
  C.output(Steps);
}

} // namespace

const std::vector<Kernel> &herbgrind::native::demoKernels() {
  static const std::vector<Kernel> Kernels = [] {
    std::vector<Kernel> Ks;
    Ks.push_back({"native cancellation",
                  "cancel-v1",
                  {{1.0, 1e18}},
                  cancelKernel});
    Ks.push_back({"native quadratic root",
                  "quadratic-v1",
                  {{1.0, 10.0}, {100.0, 1e6}, {1.0, 10.0}},
                  quadraticKernel});
    Ks.push_back({"native step loop",
                  "step-loop-v1",
                  {{1.0, 30.0}},
                  stepLoopKernel});
    return Ks;
  }();
  return Kernels;
}
