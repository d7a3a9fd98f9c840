//===- tests/DiffHarness.h - Random programs for tiered diffing -*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded random benchmark generation for the tiered-shadowing
/// differential tests: random FPCore cores and random native kernels
/// whose entire shape derives from a seed, so any failing comparison
/// reproduces from the seed alone. The generated programs deliberately
/// mix benign arithmetic with cancellation-, pole-, and domain-edge-prone
/// shapes, since the byte-identity contract is only interesting when some
/// benchmarks are erroneous and some are clean.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_TESTS_DIFFHARNESS_H
#define HERBGRIND_TESTS_DIFFHARNESS_H

#include "engine/Engine.h"
#include "engine/ResultCache.h"
#include "fpcore/Compile.h"
#include "fpcore/FPCore.h"
#include "native/Context.h"
#include "native/Kernel.h"
#include "native/Real.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

namespace herbgrind {
namespace diffharness {

//===----------------------------------------------------------------------===//
// Random FPCore cores
//===----------------------------------------------------------------------===//

/// A random expression over variables v0..vNumVars-1 in FPCore syntax.
/// Leaves favor variables so most draws actually exercise the inputs;
/// binary subtraction and division are weighted up because they are where
/// cancellation and poles (the things tier 0 must not miss) come from.
inline std::string randomFPCoreExpr(Rng &R, unsigned NumVars,
                                    unsigned Depth) {
  if (Depth == 0 || R.chance(1, 5)) {
    if (R.chance(3, 4))
      return format("v%llu",
                    static_cast<unsigned long long>(R.nextBelow(NumVars)));
    return formatDoubleShortest(R.uniformReal(-8.0, 8.0));
  }
  static const char *const Binary[] = {"+", "-", "-", "*", "/"};
  static const char *const Unary[] = {"sqrt", "sin", "cos", "exp",
                                      "log",  "fabs", "cbrt", "atan"};
  if (R.chance(2, 3)) {
    const char *Op = Binary[R.nextBelow(sizeof(Binary) / sizeof(*Binary))];
    std::string A = randomFPCoreExpr(R, NumVars, Depth - 1);
    std::string B = randomFPCoreExpr(R, NumVars, Depth - 1);
    return format("(%s %s %s)", Op, A.c_str(), B.c_str());
  }
  const char *Op = Unary[R.nextBelow(sizeof(Unary) / sizeof(*Unary))];
  return format("(%s %s)", Op,
                randomFPCoreExpr(R, NumVars, Depth - 1).c_str());
}

/// One random compilable core. The salt loop regenerates on the (rare)
/// draw the compiler rejects, so callers always get a benchmark back.
inline fpcore::Core randomCore(uint64_t Seed, unsigned Index) {
  for (uint64_t Salt = 0;; ++Salt) {
    Rng R(Seed ^ (0x9e3779b97f4a7c15ULL * (Index + 1)) ^ (Salt << 32));
    unsigned NumVars = 1 + static_cast<unsigned>(R.nextBelow(3));
    unsigned Depth = 2 + static_cast<unsigned>(R.nextBelow(3));
    std::string Params, Pre;
    for (unsigned V = 0; V < NumVars; ++V) {
      if (V) {
        Params += " ";
        Pre += " ";
      }
      Params += format("v%u", V);
      // Half the variables sample a huge range (cancellation fodder for
      // shapes like (x+1)-x), half a small one (libm domains).
      double Hi = R.chance(1, 2) ? 1e12 : 10.0;
      Pre += format("(<= %s v%u %s)",
                    formatDoubleShortest(-Hi / 100.0).c_str(), V,
                    formatDoubleShortest(Hi).c_str());
    }
    std::string Text = format(
        "(FPCore (%s) :name \"diff-rand-%u\" :pre (and %s) %s)",
        Params.c_str(), Index, Pre.c_str(),
        randomFPCoreExpr(R, NumVars, Depth).c_str());
    fpcore::ParseResult P = fpcore::parse(Text);
    if (P.Ok && fpcore::isCompilable(P.Value))
      return std::move(P.Value);
    assert(Salt < 64 && "random core generation failed to converge");
  }
}

inline std::vector<fpcore::Core> randomCores(uint64_t Seed, size_t Count) {
  std::vector<fpcore::Core> Cores;
  for (size_t I = 0; I < Count; ++I)
    Cores.push_back(randomCore(Seed, static_cast<unsigned>(I)));
  return Cores;
}

//===----------------------------------------------------------------------===//
// Random native kernels
//===----------------------------------------------------------------------===//

/// One step of a random straight-line native program: slot Dst = Op over
/// earlier slots A (and B). The program is data, interpreted over
/// native::Real inside the kernel's Fn, so the kernel's math -- and its
/// cache identity string -- derive entirely from the seed.
struct RandNativeOp {
  enum Kind { Add, Sub, Mul, Div, Sqrt, Sin, Cos, Exp, NumKinds };
  Kind K = Add;
  unsigned A = 0;
  unsigned B = 0;
};

inline std::vector<RandNativeOp> randomNativeProgram(Rng &R, unsigned Arity,
                                                     unsigned NumOps) {
  std::vector<RandNativeOp> Ops;
  for (unsigned I = 0; I < NumOps; ++I) {
    RandNativeOp Op;
    Op.K = static_cast<RandNativeOp::Kind>(
        R.nextBelow(RandNativeOp::NumKinds));
    unsigned Live = Arity + I;
    Op.A = static_cast<unsigned>(R.nextBelow(Live));
    Op.B = static_cast<unsigned>(R.nextBelow(Live));
    Ops.push_back(Op);
  }
  return Ops;
}

/// One random native kernel of 1-3 inputs and 3-8 ops. The identity
/// string spells out the full program, honoring Kernel::Identity's "must
/// change when the math changes" contract for free.
inline native::Kernel randomKernel(uint64_t Seed, unsigned Index) {
  Rng R(Seed ^ (0xbf58476d1ce4e5b9ULL * (Index + 1)));
  native::Kernel K;
  unsigned Arity = 1 + static_cast<unsigned>(R.nextBelow(3));
  unsigned NumOps = 3 + static_cast<unsigned>(R.nextBelow(6));
  std::vector<RandNativeOp> Ops = randomNativeProgram(R, Arity, NumOps);

  K.Name = format("diff-rand-native-%u", Index);
  K.Identity = format("diffharness|v1|arity=%u", Arity);
  for (const RandNativeOp &Op : Ops)
    K.Identity += format("|%d:%u:%u", static_cast<int>(Op.K), Op.A, Op.B);
  for (unsigned V = 0; V < Arity; ++V) {
    native::Kernel::InputRange IR;
    IR.Lo = R.chance(1, 2) ? -10.0 : 1.0;
    IR.Hi = R.chance(1, 2) ? 10.0 : 1e12;
    if (IR.Hi < IR.Lo)
      IR.Hi = IR.Lo + 1.0;
    K.Inputs.push_back(IR);
  }
  K.Fn = [Arity, Ops](native::Context &C, const double *, size_t N) {
    std::vector<native::Real> Slots;
    for (size_t I = 0; I < N && I < Arity; ++I)
      Slots.push_back(C.input(I));
    for (const RandNativeOp &Op : Ops) {
      const native::Real &A = Slots[Op.A % Slots.size()];
      const native::Real &B = Slots[Op.B % Slots.size()];
      switch (Op.K) {
      case RandNativeOp::Add:
        Slots.push_back(A + B);
        break;
      case RandNativeOp::Sub:
        Slots.push_back(A - B);
        break;
      case RandNativeOp::Mul:
        Slots.push_back(A * B);
        break;
      case RandNativeOp::Div:
        Slots.push_back(A / B);
        break;
      case RandNativeOp::Sqrt:
        Slots.push_back(native::sqrt(native::fabs(A)));
        break;
      case RandNativeOp::Sin:
        Slots.push_back(native::sin(A));
        break;
      case RandNativeOp::Cos:
        Slots.push_back(native::cos(A));
        break;
      default:
        Slots.push_back(native::exp(A));
        break;
      }
    }
    C.output(Slots.back());
  };
  return K;
}

inline std::vector<native::Kernel> randomKernels(uint64_t Seed,
                                                 size_t Count) {
  std::vector<native::Kernel> Kernels;
  for (size_t I = 0; I < Count; ++I)
    Kernels.push_back(randomKernel(Seed, static_cast<unsigned>(I)));
  return Kernels;
}

//===----------------------------------------------------------------------===//
// Differential drivers
//===----------------------------------------------------------------------===//

/// One sweep's rendered report under \p Cfg (the byte string the
/// tiered-vs-full comparisons are over).
inline std::string sweepJson(const std::vector<fpcore::Core> &Cores,
                             const std::vector<native::Kernel> &Kernels,
                             engine::EngineConfig Cfg) {
  return engine::Engine(Cfg).run(Cores, Kernels).renderJson();
}

/// A scoped temp directory under the system temp root.
struct ScratchDir {
  std::string Path;
  explicit ScratchDir(const std::string &Tag) {
    Path = (std::filesystem::temp_directory_path() /
            ("herbgrind-diff-" + Tag + "-" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
};

/// Every shard document in \p Dir (emitted shards or cache entries, in
/// either wire format), parsed, in file-name order. A document that fails
/// to parse is returned with an empty result and its error in \p Errors.
inline std::vector<ShardDoc> readShardDocs(const std::string &Dir,
                                           std::string *Errors = nullptr) {
  std::vector<std::string> Paths;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    std::string Name = E.path().filename().string();
    if (Name.rfind("shard-", 0) == 0 ||
        Name.find(".shard.") != std::string::npos)
      Paths.push_back(E.path().string());
  }
  std::sort(Paths.begin(), Paths.end());
  std::vector<ShardDoc> Docs;
  for (const std::string &P : Paths) {
    std::string Text, Err;
    ShardDoc D;
    if ((!engine::readFile(P, Text) || !parseShard(Text, D, Err)) && Errors)
      *Errors += P + ": " + Err + "\n";
    Docs.push_back(std::move(D));
  }
  return Docs;
}

/// The traced oracle's documents: \p Cfg's sweep run as two slices (shard
/// 0, then the rest; JSON, then HGB) emitting into \p Dir. A slice cannot
/// see the merged verdict, so every shard is analyzed traced.
inline std::vector<ShardDoc>
tracedSliceDocs(const std::vector<fpcore::Core> &Cores,
                const std::vector<native::Kernel> &Kernels,
                engine::EngineConfig Cfg, const std::string &Dir) {
  Cfg.CacheDir.clear();
  engine::EngineConfig A = Cfg, B = Cfg;
  A.ShardEnd = 1;
  B.ShardBegin = 1;
  A.EmitShardDir = B.EmitShardDir = Dir;
  B.WireFormat = WireEncoding::Binary;
  engine::Engine(A).run(Cores, Kernels);
  engine::Engine(B).run(Cores, Kernels);
  return readShardDocs(Dir);
}

/// The report the traced oracle folds (mergeShards over the two traced
/// slices' documents). Confirm tier's oracle is the full tier's: the two
/// must agree byte for byte.
inline std::string tracedOracleJson(const std::vector<fpcore::Core> &Cores,
                                    const std::vector<native::Kernel> &Kernels,
                                    engine::EngineConfig Cfg) {
  if (Cfg.Tier == engine::TierMode::Confirm)
    Cfg.Tier = engine::TierMode::Full;
  ScratchDir Dir("oracle");
  engine::BatchResult Merged;
  std::string Err;
  if (!engine::mergeShards(tracedSliceDocs(Cores, Kernels, Cfg, Dir.Path),
                           Merged, Err))
    return "mergeShards failed: " + Err;
  return Merged.renderJson();
}

} // namespace diffharness
} // namespace herbgrind

#endif // HERBGRIND_TESTS_DIFFHARNESS_H
