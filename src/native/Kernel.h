//===- native/Kernel.h - Native workloads for the batch engine --*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The registration hook that plugs native C++ workloads into the batch
/// engine: a Kernel names a function over native::Real values plus the
/// input ranges to sample it on, and engine::Engine sweeps it exactly like
/// an FPCore benchmark -- deterministic sharding, `--jobs` byte-identical
/// merging, ResultCache persistence, and `--improve` all apply unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_NATIVE_KERNEL_H
#define HERBGRIND_NATIVE_KERNEL_H

#include <functional>
#include <string>
#include <vector>

namespace herbgrind {
namespace native {

class Context;

/// One registered native workload.
struct Kernel {
  /// A sampling interval for one input (the fpcore::VarRange analogue;
  /// inputs are drawn ordinal-uniformly like every other benchmark's).
  struct InputRange {
    double Lo = -1e9;
    double Hi = 1e9;
  };

  /// Presentation name (report headings, CLI output).
  std::string Name;

  /// Stable cache identity. An FPCore benchmark's identity is its printed
  /// program text; C++ code cannot be printed, so the kernel author owns
  /// this string and MUST change it whenever the kernel's math changes,
  /// or ResultCache will serve stale shard results. Empty derives an
  /// identity from Name and the input ranges (fine until the body is
  /// edited -- set it explicitly for anything cached across commits).
  std::string Identity;

  /// Per-input sampling ranges; the size is the kernel's arity.
  std::vector<InputRange> Inputs;

  /// The workload: reads its sampled input tuple (also bound on the
  /// context, so Context::input(i) / Real::input(i) work), computes on
  /// Real values, and marks results with Context::output. The engine may
  /// invoke Fn concurrently from several workers -- different shards of
  /// the SAME kernel included (work stealing rebalances a benchmark's
  /// shards) -- each call with its own Context; Fn must not touch
  /// mutable state outside the Context it is handed, or `--jobs` output
  /// turns nondeterministic.
  std::function<void(Context &, const double *Inputs, size_t N)> Fn;

  /// The effective cache identity ("native2:" prefixed so it can never
  /// collide with FPCore program text; the "2" retires entries keyed
  /// "native:", whose records carried absolute source paths from builds
  /// without -fmacro-prefix-map, so they miss instead of serving).
  std::string identity() const;
};

/// The bundled demo kernels (the native counterpart of fpcore::corpus()):
/// small real-C++ numerics with known root causes, used by the CLI's
/// `--native` sweep, the tests, and the scaling bench.
const std::vector<Kernel> &demoKernels();

} // namespace native
} // namespace herbgrind

#endif // HERBGRIND_NATIVE_KERNEL_H
