//===- sweepbench/Sweep.cpp - Sweep benchmark workloads -------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "Sweep.h"

#include "analysis/Serialize.h"
#include "engine/ResultCache.h"
#include "fpcore/Compile.h"
#include "fpcore/Corpus.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

namespace sweepbench {

const std::vector<Workload> &workloads() {
  using engine::TierMode;
  static const std::vector<Workload> W = {
      {"loops-full", "loops", Pick::Loops, TierMode::Full, 1, 16, 16, false},
      {"straight-full", "straight", Pick::Straight, TierMode::Full, 1, 512, 1,
       false},
      {"corpus-confirm", "corpus", Pick::All, TierMode::Confirm, 2, 256, 1,
       false},
      {"warm-cache", "straight", Pick::Straight, TierMode::Full, 1, 512, 1,
       true},
  };
  return W;
}

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : workloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

uint64_t engineSeed(uint64_t Seed, int Set) {
  return (Seed % PinnedSeeds) * 256 + static_cast<uint64_t>(Set);
}

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void removeTree(const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

static bool hasLoop(const fpcore::Expr &E) {
  if (E.K == fpcore::Expr::Kind::While)
    return true;
  for (const auto *Kids : {&E.Args, &E.Inits, &E.Updates})
    for (const fpcore::ExprPtr &K : *Kids)
      if (hasLoop(*K))
        return true;
  return false;
}

/// The native kernels each benchmark selection sweeps.
static bool pickKernel(Pick P, const native::Kernel &K) {
  bool Loop = K.Name == "native step loop";
  return P == Pick::All || (P == Pick::Loops) == Loop;
}

Setup makeSetup(const Workload &W, uint64_t Seed,
                const std::string &CacheDir) {
  Setup S;
  double T0 = now();
  std::vector<fpcore::Core> Parsed;
  for (const std::string &Src : fpcore::corpusSources()) {
    fpcore::ParseResult PR = fpcore::parse(Src);
    if (!PR.Ok) {
      ++S.SourceFailures;
      continue;
    }
    Parsed.push_back(std::move(PR.Value));
  }
  double T1 = now();
  for (fpcore::Core &C : Parsed) {
    bool Loop = hasLoop(*C.Body);
    if ((W.Benchmarks == Pick::Loops && !Loop) ||
        (W.Benchmarks == Pick::Straight && Loop))
      continue;
    if (!fpcore::isCompilable(C)) {
      ++S.SourceFailures;
      continue;
    }
    // Compiled here to time the frontend; the Engine's program cache
    // compiles its own copy on the first sweep.
    (void)fpcore::compile(C);
    S.Cores.push_back(std::move(C));
  }
  double T2 = now();
  for (const native::Kernel &K : native::demoKernels())
    if (pickKernel(W.Benchmarks, K))
      S.Kernels.push_back(K);

  for (int Set = 0; Set < W.Sets; ++Set) {
    engine::EngineConfig Cfg;
    Cfg.Jobs = W.Jobs;
    Cfg.SamplesPerBenchmark = W.Samples;
    Cfg.ShardSize = 16;
    Cfg.Seed = engineSeed(Seed, Set);
    Cfg.Tier = W.Tier;
    if (W.WarmCache) {
      Cfg.CacheDir = CacheDir + "/set" + std::to_string(Set);
      removeTree(Cfg.CacheDir);
      // Half of every benchmark's shard range is stored as JSON, the
      // other half as HGB, so the warm sweep decodes both formats.
      size_t Shards = (static_cast<size_t>(W.Samples) + 15) / 16;
      engine::EngineConfig Json = Cfg, Bin = Cfg;
      Json.ShardEnd = Shards / 2;
      Json.WireFormat = WireEncoding::Json;
      Bin.ShardBegin = Shards / 2;
      Bin.WireFormat = WireEncoding::Binary;
      for (const engine::EngineConfig &Fill : {Json, Bin}) {
        engine::Engine E(Fill);
        engine::BatchResult R = E.run(S.Cores, S.Kernels);
        S.StoreFailures += R.Stats.ResultCacheStoreFailures;
      }
    }
    S.Engines.push_back(std::make_unique<engine::Engine>(Cfg));
  }
  S.ParseSeconds = T1 - T0;
  S.CompileSeconds = T2 - T1;
  S.Seconds = now() - T0;
  return S;
}

SweepOutcome sweep(Setup &S, int Set) {
  SweepOutcome O;
  double T0 = now();
  O.Result = S.Engines[static_cast<size_t>(Set)]->run(S.Cores, S.Kernels);
  {
    trace::Span Render("report.render", "bench");
    O.Doc = O.Result.renderJson();
  }
  O.Seconds = now() - T0;
  return O;
}

//===----------------------------------------------------------------------===//
// Digests and the pinned reference
//===----------------------------------------------------------------------===//

std::string digest(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char Ch : Bytes) {
    H ^= Ch;
    H *= 0x100000001b3ULL;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(H));
  return Buf;
}

std::string sectionDigest(const engine::BenchmarkResult &BR) {
  std::vector<BatchReportEntryRef> Entry{
      {&BR.Name, BR.Shards, BR.Runs, &BR.Rep}};
  return digest(renderBatchReportJson(Entry));
}

std::string referenceKey(const std::string &DigestSet, uint64_t Seed,
                         int Set) {
  return DigestSet + "/" + std::to_string(Seed) + "/" + std::to_string(Set);
}

const Reference *findReference(const References &Refs, const Workload &W,
                               uint64_t Seed, int Set) {
  auto It = Refs.find(referenceKey(W.Reference, Seed % PinnedSeeds, Set));
  return It != Refs.end() && It->second.Samples == W.Samples ? &It->second
                                                             : nullptr;
}

static std::vector<std::string> splitTabs(const std::string &Line) {
  std::vector<std::string> F;
  std::stringstream SS(Line);
  for (std::string Field; std::getline(SS, Field, '\t');)
    F.push_back(Field);
  return F;
}

// File format, one line each:
//   names <digest set> <benchmark name>...
//   ref <digest set> <seed> <input set> <samples> <document digest>
//       <erroneous flags, one 0/1 per benchmark> <section digests, comma
//       separated>
bool loadReferences(const std::string &Path, References &Out,
                    std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read " + Path;
    return false;
  }
  std::map<std::string, std::vector<std::string>> Names;
  std::string Line;
  for (unsigned LineNo = 1; std::getline(In, Line); ++LineNo) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::vector<std::string> F = splitTabs(Line);
    bool Ok = false;
    if (F.size() >= 2 && F[0] == "names") {
      Names[F[1]].assign(F.begin() + 2, F.end());
      Ok = true;
    } else if (F.size() == 8 && F[0] == "ref" && Names.count(F[1])) {
      const std::vector<std::string> &N = Names[F[1]];
      std::vector<std::string> D;
      std::stringstream SS(F[7]);
      for (std::string Digest; std::getline(SS, Digest, ',');)
        D.push_back(Digest);
      if (D.size() == N.size() && F[6].size() == N.size()) {
        Reference &R =
            Out[referenceKey(F[1], std::strtoull(F[2].c_str(), nullptr, 10),
                             std::atoi(F[3].c_str()))];
        R.Samples = std::atoi(F[4].c_str());
        R.DocDigest = F[5];
        for (size_t I = 0; I < N.size(); ++I)
          R.Benchmarks.push_back({N[I], D[I], F[6][I] == '1'});
        Ok = true;
      }
    }
    if (!Ok) {
      Err = Path + ":" + std::to_string(LineNo) + ": malformed line";
      return false;
    }
  }
  return true;
}

void Check::fail(uint64_t N, const std::string &Why) {
  if (N == 0)
    return;
  Failed += N;
  if (FirstProblem.empty())
    FirstProblem = Why;
}

Digests digestsOf(const SweepOutcome &O) {
  Digests D;
  for (const engine::BenchmarkResult &BR : O.Result.Benchmarks) {
    D.Names.push_back(BR.Name);
    D.Sections.push_back(sectionDigest(BR));
  }
  D.Doc = digest(O.Doc);
  D.IoFailures =
      O.Result.Stats.EmitFailures + O.Result.Stats.ResultCacheStoreFailures;
  return D;
}

void checkSweep(const Digests &D, const Reference *Ref, const Digests *Own,
                Check &C) {
  if (!Ref) {
    uint64_t N = std::max<size_t>(D.Names.size(), 1);
    C.Attempted += N;
    C.fail(N, "no pinned reference for this workload and seed");
    return;
  }
  C.Attempted += Ref->Benchmarks.size();
  for (size_t I = 0; I < Ref->Benchmarks.size(); ++I) {
    const Reference::Bench &Want = Ref->Benchmarks[I];
    if (I >= D.Names.size() || D.Names[I] != Want.Name) {
      C.fail(1, "benchmark '" + Want.Name + "' missing from the sweep");
      continue;
    }
    bool OwnDiffers = Own && (I >= Own->Sections.size() ||
                              Own->Sections[I] != D.Sections[I]);
    if (D.Sections[I] != Want.Digest || OwnDiffers)
      C.fail(1, "report of '" + Want.Name + "' differs from its reference");
  }
  if (D.Names.size() > Ref->Benchmarks.size())
    C.fail(D.Names.size() - Ref->Benchmarks.size(),
           "sweep reported benchmarks the reference lacks");
  if (D.IoFailures)
    C.fail(D.IoFailures, "emit/store failure during the sweep");
  if (D.Doc != Ref->DocDigest || (Own && D.Doc != Own->Doc)) {
    C.DocMismatch = true;
    if (C.FirstProblem.empty())
      C.FirstProblem = "report document differs from its reference";
  }
}

bool reportFromCache(const std::string &CacheDir, SweepOutcome &Out,
                     std::string &Err) {
  std::vector<std::string> Paths;
  std::error_code Ec;
  for (const auto &Ent : std::filesystem::directory_iterator(CacheDir, Ec)) {
    std::string P = Ent.path().string();
    auto EndsWith = [&P](const char *Suffix) {
      std::string S(Suffix);
      return P.size() >= S.size() &&
             P.compare(P.size() - S.size(), S.size(), S) == 0;
    };
    if (EndsWith(".shard.json") || EndsWith(".shard.hgb"))
      Paths.push_back(P);
  }
  if (Ec) {
    Err = "cannot list " + CacheDir;
    return false;
  }
  std::vector<ShardDoc> Docs;
  for (const std::string &P : Paths) {
    std::string Text;
    ShardDoc D;
    if (!engine::readFile(P, Text) || !parseShard(Text, D, Err))
      return false;
    Docs.push_back(std::move(D));
  }
  if (!engine::mergeShards(std::move(Docs), Out.Result, Err))
    return false;
  Out.Doc = Out.Result.renderJson();
  return true;
}

//===----------------------------------------------------------------------===//
// Pinning
//===----------------------------------------------------------------------===//

int pinReferences(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return 1;
  }
  Out << "# Pinned report digests of the sweep benchmark (see README.md).\n"
         "# names <digest set> <benchmark>...\n"
         "# ref <digest set> <seed> <input set> <samples> <report digest> "
         "<erroneous flags> <section digests>\n";
  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  std::set<std::string> Done;
  for (Workload W : workloads()) {
    if (!Done.insert(W.Reference).second)
      continue;
    // References are always full-tier: confirm must equal full.
    W.Tier = engine::TierMode::Full;
    W.WarmCache = false;
    W.Jobs = Hw;
    for (uint64_t Seed = 0; Seed < PinnedSeeds; ++Seed) {
      Setup S = makeSetup(W, Seed, "");
      if (S.SourceFailures) {
        std::fprintf(stderr, "error: %llu corpus sources failed to compile\n",
                     static_cast<unsigned long long>(S.SourceFailures));
        return 1;
      }
      for (int Set = 0; Set < W.Sets; ++Set) {
        SweepOutcome O = sweep(S, Set);
        if (Seed == 0 && Set == 0) {
          Out << "names\t" << W.Reference;
          for (const engine::BenchmarkResult &BR : O.Result.Benchmarks)
            Out << '\t' << BR.Name;
          Out << '\n';
        }
        std::string Flags, Sections;
        for (const engine::BenchmarkResult &BR : O.Result.Benchmarks) {
          Flags += BR.Rep.Spots.empty() ? '0' : '1';
          Sections += (Sections.empty() ? "" : ",") + sectionDigest(BR);
        }
        Out << "ref\t" << W.Reference << '\t' << Seed << '\t' << Set << '\t'
            << W.Samples << '\t' << digest(O.Doc) << '\t' << Flags << '\t'
            << Sections << '\n';
      }
      std::fprintf(stderr, "pinned %s seed %llu\n", W.Reference,
                   static_cast<unsigned long long>(Seed));
    }
  }
  Out.close();
  return Out ? 0 : 1;
}

} // namespace sweepbench
