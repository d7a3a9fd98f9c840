//===- tests/test_wirebinary.cpp - HGB binary wire format -----------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The binary backend's contract: (1) every document family round-trips
// through HGB byte-identically AND re-renders the exact JSON bytes the
// JSON backend emits -- the two backends are one schema traversal and
// cannot drift; (2) the sniffing parsers accept either format; (3) every
// truncation or corruption of a binary document fails cleanly (the
// caches treat that as a miss); (4) the decoder bounds nesting depth like
// the JSON parser; (5) a binary-cached sweep and a JSON-cached sweep warm
// each other and produce byte-identical reports; (6) mixed-format shard
// sets merge byte-identically to a direct sweep; (7) randomized report
// documents with NaN / infinities / subnormals / -0.0 round-trip in both
// formats.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "engine/ResultCache.h"
#include "fpcore/Corpus.h"
#include "herbgrind/Herbgrind.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/WireBinary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

using namespace herbgrind;
using namespace herbgrind::engine;

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

namespace {

Program cancellationKernel() {
  ProgramBuilder B;
  auto X = B.input(0);
  auto T = B.op(Opcode::SubF64, B.op(Opcode::AddF64, X, B.constF64(1.0)), X);
  B.out(T);
  B.halt();
  return B.finish();
}

/// One real shard document, produced by actually analyzing something so
/// every schema branch (ops, spots, expressions, input summaries) is
/// populated.
ShardDoc sampleShard() {
  Program P = cancellationKernel();
  Herbgrind HG(P);
  // Above 2^53, (x + 1) - x cancels to 0 while the real value is 1:
  // maximal local error, so the report has spots to serialize.
  for (double X : {1e16, 2.5e17, 3.7e18, 1e16})
    HG.runOnInput({X});
  ShardDoc Doc;
  Doc.ConfigHash = "0123456789abcdef";
  Doc.Benchmark = "cancellation";
  Doc.BenchIndex = 3;
  Doc.ShardIndex = 1;
  Doc.RunBegin = 16;
  Doc.RunEnd = 32;
  Doc.Result = HG.snapshot();
  return Doc;
}

std::vector<fpcore::Core> smallCorpusSubset(size_t MaxBenchmarks) {
  std::vector<fpcore::Core> Cores;
  for (const fpcore::Core &C : fpcore::corpus()) {
    if (!fpcore::isCompilable(C))
      continue;
    Cores.push_back(C.clone());
    if (Cores.size() >= MaxBenchmarks)
      break;
  }
  return Cores;
}

/// A scoped temp directory under the system temp root.
struct TempDir {
  std::string Path;
  explicit TempDir(const std::string &Tag) {
    Path = (std::filesystem::temp_directory_path() /
            ("herbgrind-test-" + Tag + "-" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  return Text;
}

void spew(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trips and cross-renders
//===----------------------------------------------------------------------===//

TEST(WireBinary, ShardDocumentRoundTripsAndCrossRenders) {
  ShardDoc Doc = sampleShard();
  std::string Json = renderShardJson(Doc);
  std::string Bin = renderShardBinary(Doc);
  ASSERT_TRUE(wire::isBinary(Bin));
  ASSERT_FALSE(wire::isBinary(Json));
  EXPECT_LT(Bin.size(), Json.size());

  ShardDoc FromBin, FromJson;
  std::string Err;
  ASSERT_TRUE(parseShard(Bin, FromBin, Err)) << Err;
  ASSERT_TRUE(parseShard(Json, FromJson, Err)) << Err;

  // Both parses re-render byte-identically in BOTH formats: the binary
  // path loses nothing the JSON path carries, and vice versa.
  EXPECT_EQ(renderShardJson(FromBin), Json);
  EXPECT_EQ(renderShardJson(FromJson), Json);
  EXPECT_EQ(renderShardBinary(FromBin), Bin);
  EXPECT_EQ(renderShardBinary(FromJson), Bin);

  // The renderShard dispatcher agrees with the direct renders.
  EXPECT_EQ(renderShard(Doc, WireEncoding::Json), Json);
  EXPECT_EQ(renderShard(Doc, WireEncoding::Binary), Bin);
}

TEST(WireBinary, SniffedHeaderCarriesFamilyAndVersion) {
  std::string Bin = renderShardBinary(sampleShard());
  wire::Family F;
  int Major, Minor;
  ASSERT_TRUE(wire::sniffBinary(Bin, F, Major, Minor));
  EXPECT_EQ(F, wire::Family::Shard);
  EXPECT_EQ(Major, WireFormatMajor);
  EXPECT_EQ(Minor, ShardFormatMinor);
}

TEST(WireBinary, ImproveDocumentRoundTripsAndCrossRenders) {
  ImproveDoc Doc;
  Doc.ConfigHash = "00ff00ff00ff00ff";
  Doc.ImproveHash = "samples=256|seed=51966";
  Doc.ExprIdentity = "(- (+ x0 1) x0)";
  Doc.SpecIdentity = "x0 in [1e8, 1e15]";
  Doc.Record.Original = "(- (+ x0 1) x0)";
  Doc.Record.Rewritten = "1";
  Doc.Record.ErrorBefore = 31.5;
  Doc.Record.ErrorAfter = 0.0;
  Doc.Record.HadSignificantError = true;
  Doc.Record.Improved = true;

  std::string Json = renderImproveDocJson(Doc);
  std::string Bin = renderImproveDocBinary(Doc);
  ImproveDoc Back;
  std::string Err;
  ASSERT_TRUE(parseImproveDoc(Bin, Back, Err)) << Err;
  EXPECT_EQ(renderImproveDocJson(Back), Json);
  EXPECT_EQ(renderImproveDocBinary(Back), Bin);
  ASSERT_TRUE(parseImproveDoc(Json, Back, Err)) << Err;
  EXPECT_EQ(renderImproveDocBinary(Back), Bin);
}

TEST(WireBinary, BatchReportAndTelemetryRoundTripCorpusWide) {
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  Engine Eng(Cfg);
  BatchResult Res = Eng.run(smallCorpusSubset(6));

  std::string Json = Res.renderWire(WireEncoding::Json);
  std::string Bin = Res.renderWire(WireEncoding::Binary);
  EXPECT_EQ(Res.renderJson(), Json);

  BatchReportDoc Doc;
  std::string Err;
  ASSERT_TRUE(parseBatchReport(Bin, Doc, Err)) << Err;
  EXPECT_EQ(renderBatchReportJson(Doc), Json);
  EXPECT_EQ(renderBatchReportBinary(Doc), Bin);
  BatchReportDoc Doc2;
  ASSERT_TRUE(parseBatchReport(Json, Doc2, Err)) << Err;
  EXPECT_EQ(renderBatchReportBinary(Doc2), Bin);

  // Telemetry rides the same codec with its own family and version.
  TelemetryDoc Tel;
  Tel.Metrics = metrics::snapshot();
  std::string TelJson = renderTelemetryJson(Tel);
  std::string TelBin = renderTelemetryBinary(Tel);
  TelemetryDoc TelBack;
  ASSERT_TRUE(parseTelemetry(TelBin, TelBack, Err)) << Err;
  EXPECT_EQ(renderTelemetryJson(TelBack), TelJson);
  EXPECT_EQ(renderTelemetryBinary(TelBack), TelBin);
  wire::Family F;
  int Major, Minor;
  ASSERT_TRUE(wire::sniffBinary(TelBin, F, Major, Minor));
  EXPECT_EQ(F, wire::Family::Telemetry);
  EXPECT_EQ(Major, TelemetryFormatMajor);
}

TEST(WireBinary, BareReportRoundTripsAndCrossRenders) {
  ShardDoc Doc = sampleShard();
  Report R = buildReport(Doc.Result);
  ASSERT_FALSE(R.Spots.empty());
  std::string Json = R.renderJson();
  std::string Bin = renderReportBinary(R);

  Report Back;
  std::string Err;
  ASSERT_TRUE(parseReportDoc(Bin, Back, Err)) << Err;
  EXPECT_EQ(Back.renderJson(), Json);
  EXPECT_EQ(renderReportBinary(Back), Bin);
  Report Back2;
  ASSERT_TRUE(parseReportDoc(Json, Back2, Err)) << Err;
  EXPECT_EQ(renderReportBinary(Back2), Bin);
}

//===----------------------------------------------------------------------===//
// Malformed input
//===----------------------------------------------------------------------===//

TEST(WireBinary, EveryTruncationFailsCleanly) {
  std::string Bin = renderShardBinary(sampleShard());
  ShardDoc Out;
  std::string Err;
  for (size_t Len = 0; Len < Bin.size(); ++Len) {
    EXPECT_FALSE(parseShard(Bin.substr(0, Len), Out, Err))
        << "truncation to " << Len << " of " << Bin.size()
        << " bytes parsed anyway";
  }
}

TEST(WireBinary, RejectsBadMagicFamilyCodecAndTrailingGarbage) {
  std::string Bin = renderShardBinary(sampleShard());
  ShardDoc Out;
  std::string Err;

  std::string BadMagic = Bin;
  BadMagic[0] = '{';
  EXPECT_FALSE(parseShard(BadMagic, Out, Err));

  // magic + family 9 + version 1.1 + raw codec: unknown family tag.
  std::string BadFamily(reinterpret_cast<const char *>(wire::HgbMagic), 4);
  BadFamily += static_cast<char>(9);
  BadFamily += static_cast<char>(1);
  BadFamily += static_cast<char>(1);
  BadFamily += static_cast<char>(0);
  EXPECT_FALSE(parseShard(BadFamily, Out, Err));
  EXPECT_NE(Err.find("family"), std::string::npos) << Err;

  // A wrong family with a valid header must be rejected by the typed
  // parser ("this is an improve doc, not a shard").
  ImproveDoc IDoc;
  IDoc.ConfigHash = "c";
  std::string Improve = renderImproveDocBinary(IDoc);
  EXPECT_FALSE(parseShard(Improve, Out, Err));

  // Unknown codec byte (the byte right after magic + 3 version varints).
  std::string BadCodec = Bin;
  BadCodec[7] = static_cast<char>(0x7e);
  EXPECT_FALSE(parseShard(BadCodec, Out, Err));
  EXPECT_NE(Err.find("codec"), std::string::npos) << Err;

  // An unknown major version is a hard error, like the JSON envelope's.
  std::string BadMajor = Bin;
  BadMajor[5] = static_cast<char>(WireFormatMajor + 9);
  EXPECT_FALSE(parseShard(BadMajor, Out, Err));
  EXPECT_NE(Err.find("major version"), std::string::npos) << Err;

  std::string Trailing = Bin + "x";
  EXPECT_FALSE(parseShard(Trailing, Out, Err));
}

TEST(WireBinary, DecoderBoundsNestingDepth) {
  // Hand-drive the codec: 600 nested single-element arrays encode fine,
  // but the decoder must refuse to recurse past its depth bound (the
  // same contract the JSON parser enforces).
  wire::BinaryEncoder Enc(wire::Family::Report, WireFormatMajor,
                          WireFormatMinor);
  const unsigned Depth = 600;
  for (unsigned I = 0; I < Depth; ++I)
    Enc.beginArray(1);
  Enc.u64(7);
  for (unsigned I = 0; I < Depth; ++I)
    Enc.endArray();
  std::string Doc = Enc.take();

  wire::BinaryDecoder Dec(Doc);
  ASSERT_TRUE(Dec.ok());
  unsigned Reached = 0;
  uint64_t Count;
  while (Reached < Depth && Dec.beginArray(Count))
    ++Reached;
  EXPECT_LT(Reached, Depth);
  EXPECT_GE(Reached, 256u);
  EXPECT_NE(Dec.error().find("deep"), std::string::npos) << Dec.error();
}

//===----------------------------------------------------------------------===//
// The result cache across formats
//===----------------------------------------------------------------------===//

TEST(WireBinary, BinaryAndJsonCachedSweepsWarmEachOther) {
  TempDir Dir("xformat-cache");
  std::vector<fpcore::Core> Cores = smallCorpusSubset(4);

  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  Cfg.CacheDir = Dir.Path;
  Cfg.WireFormat = WireEncoding::Binary;

  Engine Cold(Cfg);
  BatchResult First = Cold.run(Cores);
  EXPECT_GT(First.Stats.AnalyzedShards, 0u);
  EXPECT_EQ(First.Stats.CachedShards, 0u);

  // Entries landed as .hgb.
  bool SawHgb = false;
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    SawHgb |= E.path().extension() == ".hgb";
  EXPECT_TRUE(SawHgb);

  // A JSON-configured sweep over the same cache analyzes nothing: the
  // wire format is not part of the cache identity and lookups sniff.
  Cfg.WireFormat = WireEncoding::Json;
  Engine Warm(Cfg);
  BatchResult Second = Warm.run(Cores);
  EXPECT_EQ(Second.Stats.AnalyzedShards, 0u);
  EXPECT_EQ(Second.Stats.CachedShards, Second.Stats.Shards);
  EXPECT_EQ(Second.renderJson(), First.renderJson());
}

TEST(WireBinary, TruncatedCacheEntriesAreMissesForBothFormats) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(3);
  for (WireEncoding Enc : {WireEncoding::Json, WireEncoding::Binary}) {
    TempDir Dir(Enc == WireEncoding::Json ? "trunc-json" : "trunc-hgb");
    EngineConfig Cfg;
    Cfg.Jobs = 2;
    Cfg.SamplesPerBenchmark = 4;
    Cfg.ShardSize = 2;
    Cfg.CacheDir = Dir.Path;
    Cfg.WireFormat = Enc;

    Engine Cold(Cfg);
    BatchResult First = Cold.run(Cores);
    EXPECT_GT(First.Stats.AnalyzedShards, 0u);

    // Chop every entry in half: atomic stores can never produce this,
    // but a full disk or a copied cache can.
    for (const auto &E : std::filesystem::directory_iterator(Dir.Path)) {
      std::string Text = slurp(E.path().string());
      spew(E.path().string(), Text.substr(0, Text.size() / 2));
    }

    Engine Damaged(Cfg);
    BatchResult Second = Damaged.run(Cores);
    EXPECT_EQ(Second.Stats.CachedShards, 0u);
    EXPECT_EQ(Second.Stats.AnalyzedShards, Second.Stats.Shards);
    EXPECT_EQ(Second.renderJson(), First.renderJson());

    // The re-analysis overwrote the damage: a third run is fully warm.
    Engine Healed(Cfg);
    BatchResult Third = Healed.run(Cores);
    EXPECT_EQ(Third.Stats.AnalyzedShards, 0u);
    EXPECT_EQ(Third.renderJson(), First.renderJson());
  }
}

TEST(WireBinary, GcPrunesBinaryEntries) {
  TempDir Dir("gc-hgb");
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;
  Cfg.CacheDir = Dir.Path;
  Cfg.WireFormat = WireEncoding::Binary;
  Engine Eng(Cfg);
  Eng.run(smallCorpusSubset(3));

  CacheGcStats Stats;
  std::string Err;
  ASSERT_TRUE(gcCacheDir(Dir.Path, 0, Stats, Err)) << Err;
  EXPECT_GT(Stats.Entries, 0u);
  EXPECT_EQ(Stats.PrunedEntries, Stats.Entries);
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    ADD_FAILURE() << "entry survived a zero-byte cap: " << E.path();
}

//===----------------------------------------------------------------------===//
// Mixed-format merging
//===----------------------------------------------------------------------===//

TEST(WireBinary, MixedFormatShardSetMergesByteIdentically) {
  std::vector<fpcore::Core> Cores = smallCorpusSubset(4);
  EngineConfig Cfg;
  Cfg.Jobs = 2;
  Cfg.SamplesPerBenchmark = 4;
  Cfg.ShardSize = 2;

  TempDir Emit("mixed-emit");
  EngineConfig EmitCfg = Cfg;
  EmitCfg.EmitShardDir = Emit.Path;
  Engine Direct(EmitCfg);
  BatchResult Reference = Direct.run(Cores);

  // Re-encode every other emitted document as HGB, then merge the mixed
  // set: same report bytes as the direct sweep.
  std::vector<std::string> Paths;
  for (const auto &E : std::filesystem::directory_iterator(Emit.Path))
    Paths.push_back(E.path().string());
  std::sort(Paths.begin(), Paths.end());
  ASSERT_GT(Paths.size(), 1u);

  std::vector<ShardDoc> Docs;
  std::string Err;
  for (size_t I = 0; I < Paths.size(); ++I) {
    std::string Text = slurp(Paths[I]);
    ShardDoc Doc;
    ASSERT_TRUE(parseShard(Text, Doc, Err)) << Paths[I] << ": " << Err;
    if (I % 2 == 1) {
      std::string Bin = renderShardBinary(Doc);
      ShardDoc Again;
      ASSERT_TRUE(parseShard(Bin, Again, Err)) << Err;
      Docs.push_back(std::move(Again));
    } else {
      Docs.push_back(std::move(Doc));
    }
  }

  BatchResult Merged;
  ASSERT_TRUE(mergeShards(std::move(Docs), Merged, Err)) << Err;
  EXPECT_EQ(Merged.renderJson(), Reference.renderJson());
}

//===----------------------------------------------------------------------===//
// Randomized documents (special doubles included)
//===----------------------------------------------------------------------===//

namespace {

double specialDouble(Rng &R) {
  switch (R.nextBelow(8)) {
  case 0:
    return std::numeric_limits<double>::quiet_NaN();
  case 1:
    return std::numeric_limits<double>::infinity();
  case 2:
    return -std::numeric_limits<double>::infinity();
  case 3:
    return -0.0;
  case 4:
    return std::numeric_limits<double>::denorm_min(); // 5e-324
  case 5:
    return -2.2250738585072009e-308; // largest-magnitude subnormal
  default:
    return R.anyFiniteDouble();
  }
}

Report randomReport(Rng &R) {
  Report Rep;
  size_t NumSpots = R.nextBelow(4);
  for (size_t S = 0; S < NumSpots; ++S) {
    SpotReport SR;
    SR.PC = static_cast<uint32_t>(R.nextBelow(1000));
    SR.Kind = static_cast<SpotKind>(R.nextBelow(3));
    SR.Loc = SourceLoc("kernel.cpp", static_cast<int>(R.nextBelow(500)),
                       "fn" + std::to_string(R.nextBelow(3)));
    SR.Executions = R.nextBelow(1 << 20);
    SR.Erroneous = R.nextBelow(SR.Executions + 1);
    SR.MaxErrorBits = specialDouble(R);
    size_t NumCauses = R.nextBelow(3);
    for (size_t C = 0; C < NumCauses; ++C) {
      RootCauseReport RC;
      RC.PC = static_cast<uint32_t>(R.nextBelow(1000));
      RC.Loc = SR.Loc;
      RC.FPCore = "(FPCore (x0)\n  (- (+ x0 1) x0))";
      RC.Body = "(- (+ x0 1) x0)";
      RC.NumVars = 1;
      RC.OpCount = static_cast<unsigned>(R.nextBelow(50));
      RC.Flagged = R.nextBelow(1 << 16);
      RC.MaxLocalError = specialDouble(R);
      RC.AvgLocalError = specialDouble(R);
      RC.ExampleInput = "(" + std::to_string(R.nextUnit()) + ")";
      SR.RootCauses.push_back(std::move(RC));
    }
    Rep.Spots.push_back(std::move(SR));
  }
  size_t NumImprovements = R.nextBelow(3);
  for (size_t I = 0; I < NumImprovements; ++I) {
    ImproveRecord IR;
    IR.PC = static_cast<uint32_t>(R.nextBelow(1000));
    IR.Original = "(- (+ x0 1) x0)";
    IR.Rewritten = R.chance(1, 2) ? "1" : "";
    IR.ErrorBefore = specialDouble(R);
    IR.ErrorAfter = specialDouble(R);
    IR.HadSignificantError = R.chance(1, 2);
    IR.Improved = R.chance(1, 2);
    Rep.Improvements.push_back(std::move(IR));
  }
  return Rep;
}

} // namespace

TEST(WireBinary, RandomizedReportsRoundTripInBothFormats) {
  Rng R(0x5eed);
  for (int Iter = 0; Iter < 200; ++Iter) {
    Report Rep = randomReport(R);
    std::string Json = Rep.renderJson();
    std::string Bin = renderReportBinary(Rep);

    Report FromJson, FromBin;
    std::string Err;
    ASSERT_TRUE(parseReportJson(Json, FromJson, Err))
        << "iter " << Iter << ": " << Err;
    ASSERT_TRUE(parseReportDoc(Bin, FromBin, Err))
        << "iter " << Iter << ": " << Err;

    // JSON re-render is byte-stable through either decode path (NaN
    // payloads canonicalize to the NAN token either way).
    EXPECT_EQ(FromJson.renderJson(), Json) << "iter " << Iter;
    EXPECT_EQ(FromBin.renderJson(), Json) << "iter " << Iter;
    // Binary re-render of the binary decode is exact to the byte: raw
    // IEEE-754 storage preserves even NaN payloads.
    EXPECT_EQ(renderReportBinary(FromBin), Bin) << "iter " << Iter;
  }
}
