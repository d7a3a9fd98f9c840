//===- analysis/Serialize.cpp - Result wire format ------------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Every document family below is ONE schema traversal, written against the
// abstract wire::Encoder/wire::Decoder interface. The JSON backend
// reproduces the historical hand-rendered bytes exactly; the HGB binary
// backend reads/writes the same traversal positionally. Field order in the
// encode functions IS the wire format -- both the JSON byte layout and the
// binary field sequence -- so changing it is a format change.
//
//===----------------------------------------------------------------------===//

#include "analysis/Serialize.h"

#include "support/Format.h"
#include "support/Wire.h"
#include "support/WireBinary.h"

#include <cassert>

using namespace herbgrind;

//===----------------------------------------------------------------------===//
// Small enum/value helpers shared by render and parse
//===----------------------------------------------------------------------===//

const char *herbgrind::spotKindName(SpotKind K) {
  switch (K) {
  case SpotKind::Output:
    return "Output";
  case SpotKind::Comparison:
    return "Compare";
  case SpotKind::Conversion:
    return "Conversion";
  }
  return "?";
}

static bool parseSpotKind(const std::string &Name, SpotKind &Out) {
  for (SpotKind K :
       {SpotKind::Output, SpotKind::Comparison, SpotKind::Conversion})
    if (Name == spotKindName(K)) {
      Out = K;
      return true;
    }
  return false;
}

static const char *rangeModeName(RangeMode M) {
  switch (M) {
  case RangeMode::Off:
    return "off";
  case RangeMode::Single:
    return "single";
  case RangeMode::SignSplit:
    return "sign-split";
  }
  return "?";
}

static bool parseRangeMode(const std::string &Name, RangeMode &Out) {
  for (RangeMode M : {RangeMode::Off, RangeMode::Single, RangeMode::SignSplit})
    if (Name == rangeModeName(M)) {
      Out = M;
      return true;
    }
  return false;
}

/// Opcode from its IR mnemonic (the unique "add.f64"-style name).
static bool parseOpcode(const std::string &Name, Opcode &Out) {
  for (unsigned I = 0; I < static_cast<unsigned>(Opcode::NumOpcodes); ++I) {
    Opcode Op = static_cast<Opcode>(I);
    if (Name == opInfo(Op).Name) {
      Out = Op;
      return true;
    }
  }
  return false;
}

namespace {

/// Names the decoder's schema context ("op record", "loc", ...) for the
/// dynamic extent of one decode function, restoring the caller's on exit
/// so nested decodes don't mislabel the fields that follow them.
struct ScopedCtx {
  wire::Decoder &D;
  const char *Saved;
  ScopedCtx(wire::Decoder &Dec, const char *C) : D(Dec), Saved(Dec.context()) {
    D.setContext(C);
  }
  ~ScopedCtx() { D.setContext(Saved); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Source locations
//===----------------------------------------------------------------------===//

static void encodeSourceLoc(wire::Encoder &E, const SourceLoc &Loc) {
  E.beginObject();
  E.key("file");
  E.str(Loc.File);
  E.key("line");
  E.i64(Loc.Line);
  E.key("func");
  E.str(Loc.Function);
  E.endObject();
}

static bool decodeSourceLoc(wire::Decoder &D, SourceLoc &Out) {
  ScopedCtx C(D, "loc");
  int64_t Line = 0;
  if (!D.beginObject() || !D.key("file") || !D.str(Out.File) ||
      !D.key("line") || !D.i64(Line) || !D.key("func") ||
      !D.str(Out.Function))
    return false;
  Out.Line = static_cast<int>(Line);
  return D.endObject();
}

std::string herbgrind::renderSourceLocJson(const SourceLoc &Loc) {
  wire::JsonEncoder E;
  encodeSourceLoc(E, Loc);
  return E.take();
}

//===----------------------------------------------------------------------===//
// Running statistics
//===----------------------------------------------------------------------===//

static void encodeStat(wire::Encoder &E, const RunningStat &S) {
  E.beginObject();
  E.key("count");
  E.u64(S.count());
  E.key("sum");
  E.dbl(S.sum());
  E.key("max");
  E.dbl(S.max());
  E.endObject();
}

static bool decodeStat(wire::Decoder &D, RunningStat &Out) {
  ScopedCtx C(D, "stat");
  uint64_t Count = 0;
  double Sum = 0, Max = 0;
  if (!D.beginObject() || !D.key("count") || !D.u64(Count) || !D.key("sum") ||
      !D.dbl(Sum) || !D.key("max") || !D.dbl(Max) || !D.endObject())
    return false;
  Out = RunningStat::fromParts(Count, Sum, Max);
  return true;
}

//===----------------------------------------------------------------------===//
// Input summaries
//===----------------------------------------------------------------------===//

static void encodeVarSummary(wire::Encoder &E, const VarSummary &S) {
  E.beginObject();
  E.key("count");
  E.u64(S.Count);
  E.key("sawNaN");
  E.boolean(S.SawNaN);
  E.key("sawZero");
  E.boolean(S.SawZero);
  E.key("example");
  E.dbl(S.Example);
  auto Range = [&](const char *Key, bool Has, double Lo, double Hi) {
    E.present(Has);
    if (!Has)
      return;
    E.key(Key);
    E.beginArray(2);
    E.dbl(Lo);
    E.dbl(Hi);
    E.endArray();
  };
  Range("range", S.HasRange, S.Lo, S.Hi);
  Range("neg", S.HasNeg, S.NegLo, S.NegHi);
  Range("pos", S.HasPos, S.PosLo, S.PosHi);
  E.endObject();
}

static bool decodeVarSummary(wire::Decoder &D, VarSummary &Out) {
  ScopedCtx C(D, "varSummary");
  if (!D.beginObject() || !D.key("count") || !D.u64(Out.Count) ||
      !D.key("sawNaN") || !D.boolean(Out.SawNaN) || !D.key("sawZero") ||
      !D.boolean(Out.SawZero) || !D.key("example") || !D.dbl(Out.Example))
    return false;
  auto Range = [&](const char *Key, bool &Has, double &Lo, double &Hi) {
    if (!D.present(Key, Has))
      return false;
    if (!Has)
      return true; // absent range: the flag stays false
    uint64_t N = 0;
    if (!D.key(Key) || !D.beginArray(N))
      return false;
    if (N != 2)
      return D.failOver(
          format("varSummary: field '%s' not a [lo, hi] number pair", Key));
    return D.element() && D.dbl(Lo) && D.element() && D.dbl(Hi) &&
           D.endArray();
  };
  return Range("range", Out.HasRange, Out.Lo, Out.Hi) &&
         Range("neg", Out.HasNeg, Out.NegLo, Out.NegHi) &&
         Range("pos", Out.HasPos, Out.PosLo, Out.PosHi) && D.endObject();
}

// Defined here rather than in InputSummary.cpp so the schema exists
// exactly once, in the traversal above.
std::string VarSummary::renderJson() const {
  wire::JsonEncoder E;
  encodeVarSummary(E, *this);
  return E.take();
}

static void encodeInputs(wire::Encoder &E, const InputCharacteristics &C) {
  E.beginArray(C.Vars.size());
  for (const VarSummary &V : C.Vars)
    encodeVarSummary(E, V);
  E.endArray();
}

static bool decodeInputs(wire::Decoder &D, InputCharacteristics &Out) {
  ScopedCtx C(D, "inputs");
  uint64_t N = 0;
  if (!D.beginArray(N))
    return false;
  Out.Vars.clear();
  for (uint64_t I = 0; I < N; ++I) {
    VarSummary V;
    if (!D.element() || !decodeVarSummary(D, V))
      return false;
    Out.Vars.push_back(std::move(V));
  }
  return D.endArray();
}

//===----------------------------------------------------------------------===//
// Symbolic expressions
//===----------------------------------------------------------------------===//

static const char *const SymExprKeys[] = {"const", "var"};

static void encodeSymExpr(wire::Encoder &E, const SymExpr &Ex) {
  E.beginObject();
  switch (Ex.Kind) {
  case SymExpr::SEKind::Const:
    E.variantTag(0);
    E.key("const");
    E.dbl(Ex.ConstVal);
    break;
  case SymExpr::SEKind::Var:
    E.variantTag(1);
    E.key("var");
    E.u32(Ex.VarIdx);
    break;
  case SymExpr::SEKind::Op:
    E.variantTag(2);
    E.key("op");
    E.str(opInfo(Ex.Op).Name);
    E.key("site");
    E.u32(Ex.Site);
    E.key("kids");
    E.beginArray(Ex.Kids.size());
    for (const auto &Kid : Ex.Kids)
      encodeSymExpr(E, *Kid);
    E.endArray();
    break;
  }
  E.endObject();
}

static std::unique_ptr<SymExpr> decodeSymExpr(wire::Decoder &D) {
  ScopedCtx C(D, "expr");
  if (!D.beginObject())
    return nullptr;
  unsigned Tag = 0;
  if (!D.variant(SymExprKeys, 2, Tag))
    return nullptr;
  std::unique_ptr<SymExpr> Node;
  switch (Tag) {
  case 0: {
    double V = 0;
    if (!D.key("const") || !D.dbl(V))
      return nullptr;
    Node = SymExpr::makeConst(V);
    break;
  }
  case 1: {
    uint32_t Idx = 0;
    if (!D.key("var") || !D.u32(Idx))
      return nullptr;
    Node = SymExpr::makeVar(Idx);
    break;
  }
  default: {
    std::string OpName;
    uint32_t Site = 0;
    if (!D.key("op") || !D.str(OpName) || !D.key("site") || !D.u32(Site))
      return nullptr;
    Opcode Op;
    if (!parseOpcode(OpName, Op)) {
      D.failOver(format("expr: unknown opcode '%s'", OpName.c_str()));
      return nullptr;
    }
    Node = SymExpr::makeOp(Op, Site);
    uint64_t N = 0;
    if (!D.key("kids") || !D.beginArray(N))
      return nullptr;
    for (uint64_t I = 0; I < N; ++I) {
      if (!D.element())
        return nullptr;
      std::unique_ptr<SymExpr> Kid = decodeSymExpr(D);
      if (!Kid)
        return nullptr;
      Node->Kids.push_back(std::move(Kid));
    }
    if (!D.endArray())
      return nullptr;
    break;
  }
  }
  if (!D.endObject())
    return nullptr;
  return Node;
}

std::string herbgrind::renderSymExprJson(const SymExpr &E) {
  wire::JsonEncoder Enc;
  encodeSymExpr(Enc, E);
  return Enc.take();
}

//===----------------------------------------------------------------------===//
// Operation and spot records
//===----------------------------------------------------------------------===//

static void encodeOpRecord(wire::Encoder &E, uint32_t PC, const OpRecord &Rec) {
  E.beginObject();
  E.key("pc");
  E.u32(PC);
  E.key("op");
  E.str(opInfo(Rec.Op).Name);
  E.key("loc");
  encodeSourceLoc(E, Rec.Loc);
  E.key("executions");
  E.u64(Rec.Executions);
  E.key("flagged");
  E.u64(Rec.Flagged);
  E.key("compensations");
  E.u64(Rec.CompensationsDetected);
  E.key("localError");
  encodeStat(E, Rec.LocalError);
  E.key("maxFlaggedLocalError");
  E.dbl(Rec.MaxFlaggedLocalError);
  E.key("nextVarIdx");
  E.u32(Rec.NextVarIdx);
  E.present(Rec.Expr != nullptr);
  if (Rec.Expr) {
    E.key("expr");
    encodeSymExpr(E, *Rec.Expr);
  }
  E.key("totalInputs");
  encodeInputs(E, Rec.TotalInputs);
  E.key("problematicInputs");
  encodeInputs(E, Rec.ProblematicInputs);
  E.key("exampleProblematic");
  E.beginArray(Rec.ExampleProblematic.size());
  for (const VarBinding &B : Rec.ExampleProblematic) {
    E.beginObject();
    E.key("var");
    E.u32(B.Idx);
    E.key("value");
    E.dbl(B.Value);
    E.endObject();
  }
  E.endArray();
  E.endObject();
}

static bool decodeOpRecord(wire::Decoder &D, uint32_t &PC, OpRecord &Rec) {
  ScopedCtx C(D, "op record");
  std::string OpName;
  if (!D.beginObject() || !D.key("pc") || !D.u32(PC) || !D.key("op") ||
      !D.str(OpName))
    return false;
  if (!parseOpcode(OpName, Rec.Op))
    return D.failOver(
        format("op record: unknown opcode '%s'", OpName.c_str()));
  if (!D.key("loc") || !decodeSourceLoc(D, Rec.Loc))
    return false;
  if (!D.key("executions") || !D.u64(Rec.Executions) || !D.key("flagged") ||
      !D.u64(Rec.Flagged) || !D.key("compensations") ||
      !D.u64(Rec.CompensationsDetected))
    return false;
  if (!D.key("localError") || !decodeStat(D, Rec.LocalError))
    return false;
  if (!D.key("maxFlaggedLocalError") || !D.dbl(Rec.MaxFlaggedLocalError) ||
      !D.key("nextVarIdx") || !D.u32(Rec.NextVarIdx))
    return false;
  bool HasExpr = false;
  if (!D.present("expr", HasExpr))
    return false;
  if (HasExpr) {
    if (!D.key("expr"))
      return false;
    Rec.Expr = decodeSymExpr(D);
    if (!Rec.Expr)
      return false;
  }
  if (!D.key("totalInputs") || !decodeInputs(D, Rec.TotalInputs) ||
      !D.key("problematicInputs") || !decodeInputs(D, Rec.ProblematicInputs))
    return false;
  uint64_t N = 0;
  if (!D.key("exampleProblematic") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    ScopedCtx BC(D, "example binding");
    VarBinding B{0, 0.0};
    if (!D.element() || !D.beginObject() || !D.key("var") || !D.u32(B.Idx) ||
        !D.key("value") || !D.dbl(B.Value) || !D.endObject())
      return false;
    Rec.ExampleProblematic.push_back(B);
  }
  return D.endArray() && D.endObject();
}

static void encodeSpotRecord(wire::Encoder &E, uint32_t PC,
                             const SpotRecord &Spot) {
  E.beginObject();
  E.key("pc");
  E.u32(PC);
  E.key("kind");
  E.str(spotKindName(Spot.Kind));
  E.key("loc");
  encodeSourceLoc(E, Spot.Loc);
  E.key("executions");
  E.u64(Spot.Executions);
  E.key("erroneous");
  E.u64(Spot.Erroneous);
  E.key("errorBits");
  encodeStat(E, Spot.ErrorBits);
  E.key("influencingOps");
  E.beginArray(Spot.InfluencingOps.size());
  for (uint32_t Op : Spot.InfluencingOps)
    E.u32(Op);
  E.endArray();
  E.endObject();
}

static bool decodeSpotRecord(wire::Decoder &D, uint32_t &PC,
                             SpotRecord &Spot) {
  ScopedCtx C(D, "spot record");
  std::string KindName;
  if (!D.beginObject() || !D.key("pc") || !D.u32(PC) || !D.key("kind") ||
      !D.str(KindName))
    return false;
  if (!parseSpotKind(KindName, Spot.Kind))
    return D.failOver(
        format("spot record: unknown kind '%s'", KindName.c_str()));
  if (!D.key("loc") || !decodeSourceLoc(D, Spot.Loc))
    return false;
  if (!D.key("executions") || !D.u64(Spot.Executions) ||
      !D.key("erroneous") || !D.u64(Spot.Erroneous))
    return false;
  if (!D.key("errorBits") || !decodeStat(D, Spot.ErrorBits))
    return false;
  uint64_t N = 0;
  if (!D.key("influencingOps") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    uint32_t Op = 0;
    if (!D.element() || !D.u32(Op))
      return false;
    Spot.InfluencingOps.insert(Op);
  }
  return D.endArray() && D.endObject();
}

//===----------------------------------------------------------------------===//
// Analysis results
//===----------------------------------------------------------------------===//

static void encodeAnalysisResult(wire::Encoder &E, const AnalysisResult &R) {
  E.beginObject();
  E.key("ranges");
  E.str(rangeModeName(R.Ranges));
  E.key("equivDepth");
  E.u32(R.EquivDepth);
  E.key("ops");
  E.beginArray(R.Ops.size());
  for (const auto &[PC, Rec] : R.Ops)
    encodeOpRecord(E, PC, Rec);
  E.endArray();
  E.key("spots");
  E.beginArray(R.Spots.size());
  for (const auto &[PC, Spot] : R.Spots)
    encodeSpotRecord(E, PC, Spot);
  E.endArray();
  E.endObject();
}

static bool decodeAnalysisResult(wire::Decoder &D, AnalysisResult &Out) {
  ScopedCtx C(D, "result");
  std::string RangesName;
  if (!D.beginObject() || !D.key("ranges") || !D.str(RangesName) ||
      !D.key("equivDepth") || !D.u32(Out.EquivDepth))
    return false;
  if (!parseRangeMode(RangesName, Out.Ranges))
    return D.failOver(
        format("result: unknown range mode '%s'", RangesName.c_str()));
  uint64_t NumOps = 0;
  if (!D.key("ops") || !D.beginArray(NumOps))
    return false;
  for (uint64_t I = 0; I < NumOps; ++I) {
    uint32_t PC = 0;
    OpRecord Rec;
    if (!D.element() || !decodeOpRecord(D, PC, Rec))
      return false;
    if (!Out.Ops.emplace(PC, std::move(Rec)).second)
      return D.failOver(format("result: duplicate op record for pc %u", PC));
  }
  if (!D.endArray())
    return false;
  uint64_t NumSpots = 0;
  if (!D.key("spots") || !D.beginArray(NumSpots))
    return false;
  for (uint64_t I = 0; I < NumSpots; ++I) {
    uint32_t PC = 0;
    SpotRecord Spot;
    if (!D.element() || !decodeSpotRecord(D, PC, Spot))
      return false;
    if (!Out.Spots.emplace(PC, std::move(Spot)).second)
      return D.failOver(
          format("result: duplicate spot record for pc %u", PC));
  }
  return D.endArray() && D.endObject();
}

std::string herbgrind::renderAnalysisResultJson(const AnalysisResult &R) {
  wire::JsonEncoder E;
  encodeAnalysisResult(E, R);
  return E.take();
}

bool herbgrind::parseAnalysisResultJson(const JsonValue &V, AnalysisResult &Out,
                                        std::string &Err) {
  wire::JsonDecoder D(V);
  if (!decodeAnalysisResult(D, Out)) {
    Err = D.error();
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Envelopes: JSON {"format","version"} keys, HGB header fields
//===----------------------------------------------------------------------===//

/// Writes the JSON document envelope. The binary backend never calls
/// this: the HGB header already carries family + major + minor, and
/// duplicating them as body fields would tax every small document.
static void encodeJsonEnvelope(wire::JsonEncoder &E, const char *Fmt,
                               int Major, int Minor) {
  E.key("format");
  E.str(Fmt);
  E.key("version");
  E.beginObject();
  E.key("major");
  E.i64(Major);
  E.key("minor");
  E.i64(Minor);
  E.endObject();
}

/// Checks a JSON document's {"format","version"} envelope: the tag must
/// match and the major version must equal \p ExpectedMajor (the report
/// wire format and the telemetry document version independently). Minor
/// versions are additive, so any minor of a known major is accepted --
/// including a missing "minor" from a hypothetical older writer.
static bool decodeJsonEnvelope(wire::JsonDecoder &D, const char *Fmt,
                               int ExpectedMajor, int *MinorOut = nullptr) {
  std::string Tag;
  if (!D.key("format") || !D.str(Tag) || Tag != Fmt)
    return D.failOver(
        format("document is not a %s file (bad or missing 'format')", Fmt));
  if (!D.key("version") || !D.beginObject())
    return D.failOver("missing 'version' object");
  int64_t Major = 0;
  if (!D.key("major") || !D.i64(Major))
    return D.failOver("missing 'version.major'");
  if (Major != ExpectedMajor)
    return D.failOver(format("unsupported %s major version %lld (this "
                             "reader understands %d)",
                             Fmt, static_cast<long long>(Major),
                             ExpectedMajor));
  // Callers that decode minor-gated optional fields need the document's
  // own minor; a missing "minor" (hypothetical older writer) reads as 0.
  if (MinorOut) {
    bool HasMinor = false;
    int64_t Minor = 0;
    if (!D.present("minor", HasMinor))
      return false;
    if (HasMinor && (!D.key("minor") || !D.i64(Minor)))
      return false;
    *MinorOut = static_cast<int>(Minor);
  }
  return D.endObject();
}

/// The binary counterpart: validates the already-parsed HGB header
/// against the expected family and major version.
static bool checkBinaryHeader(wire::BinaryDecoder &D, wire::Family F,
                              const char *Fmt, int ExpectedMajor,
                              std::string &Err) {
  if (!D.ok()) {
    Err = D.error();
    return false;
  }
  if (D.family() != F) {
    Err = format("document is not a %s file (HGB family '%s')", Fmt,
                 wire::familyName(D.family()));
    return false;
  }
  if (D.major() != ExpectedMajor) {
    Err = format("unsupported %s major version %d (this reader "
                 "understands %d)",
                 Fmt, D.major(), ExpectedMajor);
    return false;
  }
  return true;
}

/// Wraps parseJson with the uniform offset-bearing error message.
static bool parseJsonText(const std::string &Text, JsonParseResult &R,
                          std::string &Err) {
  R = parseJson(Text);
  if (!R.Ok) {
    Err = format("JSON parse error at offset %zu: %s", R.ErrorOffset,
                 R.Error.c_str());
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Shard documents
//===----------------------------------------------------------------------===//

static void encodeShardBody(wire::Encoder &E, const std::string &ConfigHash,
                            const std::string &Benchmark, uint64_t BenchIndex,
                            uint64_t ShardIndex, uint64_t RunBegin,
                            uint64_t RunEnd, const AnalysisResult &Result) {
  E.key("configHash");
  E.str(ConfigHash);
  E.key("benchmark");
  E.str(Benchmark);
  E.key("benchIndex");
  E.u64(BenchIndex);
  E.key("shardIndex");
  E.u64(ShardIndex);
  E.key("runBegin");
  E.u64(RunBegin);
  E.key("runEnd");
  E.u64(RunEnd);
  E.key("result");
  encodeAnalysisResult(E, Result);
  // 1.2: records from the trace-free pass are marked, so no reader can
  // take them for traced ones.
  const bool TraceFree = Result.traceFree();
  E.present(TraceFree);
  if (TraceFree) {
    E.key("traceFree");
    E.boolean(true);
  }
}

/// \p DocMinor is the document's own minor version: the trace-free mark
/// exists from 1.2 on (an older document is traced by construction).
static bool decodeShardBody(wire::Decoder &D, ShardDoc &Out, int DocMinor) {
  ScopedCtx C(D, "shard");
  if (!D.key("configHash") || !D.str(Out.ConfigHash) || !D.key("benchmark") ||
      !D.str(Out.Benchmark) || !D.key("benchIndex") ||
      !D.u64(Out.BenchIndex) || !D.key("shardIndex") ||
      !D.u64(Out.ShardIndex) || !D.key("runBegin") || !D.u64(Out.RunBegin) ||
      !D.key("runEnd") || !D.u64(Out.RunEnd))
    return false;
  if (Out.RunEnd < Out.RunBegin)
    return D.failOver(
        format("shard: runEnd (%llu) precedes runBegin (%llu)",
               static_cast<unsigned long long>(Out.RunEnd),
               static_cast<unsigned long long>(Out.RunBegin)));
  if (!D.key("result") || !decodeAnalysisResult(D, Out.Result))
    return false;
  bool TraceFree = false;
  if (DocMinor >= 2) {
    if (!D.present("traceFree", TraceFree))
      return false;
    if (TraceFree && (!D.key("traceFree") || !D.boolean(TraceFree)))
      return false;
  }
  // The mark must agree with every executed record: a traced document
  // whose expressions went missing is corrupt, not trace-free.
  for (const auto &[PC, Rec] : Out.Result.Ops)
    if (Rec.Executions > 0 && (Rec.Expr == nullptr) != TraceFree)
      return D.failOver(format(
          TraceFree ? "shard: op record at pc %u carries an expression in "
                      "a document marked trace-free"
                    : "shard: op record at pc %u has no expression in a "
                      "document not marked trace-free",
          PC));
  return true;
}

std::string herbgrind::renderShardJson(const std::string &ConfigHash,
                                       const std::string &Benchmark,
                                       uint64_t BenchIndex,
                                       uint64_t ShardIndex, uint64_t RunBegin,
                                       uint64_t RunEnd,
                                       const AnalysisResult &Result) {
  wire::JsonEncoder E;
  E.beginObject();
  encodeJsonEnvelope(E, "herbgrind-shard", WireFormatMajor,
                     ShardFormatMinor);
  encodeShardBody(E, ConfigHash, Benchmark, BenchIndex, ShardIndex, RunBegin,
                  RunEnd, Result);
  E.endObject();
  return E.take();
}

std::string herbgrind::renderShardJson(const ShardDoc &Doc) {
  return renderShardJson(Doc.ConfigHash, Doc.Benchmark, Doc.BenchIndex,
                         Doc.ShardIndex, Doc.RunBegin, Doc.RunEnd, Doc.Result);
}

std::string herbgrind::renderShardBinary(const std::string &ConfigHash,
                                         const std::string &Benchmark,
                                         uint64_t BenchIndex,
                                         uint64_t ShardIndex,
                                         uint64_t RunBegin, uint64_t RunEnd,
                                         const AnalysisResult &Result) {
  wire::BinaryEncoder E(wire::Family::Shard, WireFormatMajor,
                        ShardFormatMinor);
  encodeShardBody(E, ConfigHash, Benchmark, BenchIndex, ShardIndex, RunBegin,
                  RunEnd, Result);
  return E.take();
}

std::string herbgrind::renderShardBinary(const ShardDoc &Doc) {
  return renderShardBinary(Doc.ConfigHash, Doc.Benchmark, Doc.BenchIndex,
                           Doc.ShardIndex, Doc.RunBegin, Doc.RunEnd,
                           Doc.Result);
}

std::string herbgrind::renderShard(const ShardDoc &Doc, WireEncoding Enc) {
  return Enc == WireEncoding::Binary ? renderShardBinary(Doc)
                                     : renderShardJson(Doc);
}

bool herbgrind::parseShardJson(const std::string &Text, ShardDoc &Out,
                               std::string &Err) {
  JsonParseResult R;
  if (!parseJsonText(Text, R, Err))
    return false;
  if (!R.Value.isObject()) {
    Err = "shard document is not an object";
    return false;
  }
  wire::JsonDecoder D(R.Value);
  int DocMinor = 0;
  if (!D.beginObject() ||
      !decodeJsonEnvelope(D, "herbgrind-shard", WireFormatMajor,
                          &DocMinor) ||
      !decodeShardBody(D, Out, DocMinor) || !D.endObject()) {
    Err = D.error();
    return false;
  }
  return true;
}

static bool parseShardBinary(const std::string &Text, ShardDoc &Out,
                             std::string &Err) {
  wire::BinaryDecoder D(Text);
  if (!checkBinaryHeader(D, wire::Family::Shard, "herbgrind-shard",
                         WireFormatMajor, Err))
    return false;
  if (!decodeShardBody(D, Out, D.minor())) {
    Err = D.error();
    return false;
  }
  if (!D.atEnd()) {
    Err = "shard: trailing bytes after HGB document";
    return false;
  }
  return true;
}

bool herbgrind::parseShard(const std::string &Text, ShardDoc &Out,
                           std::string &Err) {
  return wire::isBinary(Text) ? parseShardBinary(Text, Out, Err)
                              : parseShardJson(Text, Out, Err);
}

//===----------------------------------------------------------------------===//
// Improver records and the improve cache document
//===----------------------------------------------------------------------===//

static void encodeImproveOutcome(wire::Encoder &E, const ImproveRecord &R) {
  E.key("original");
  E.str(R.Original);
  E.key("rewritten");
  E.str(R.Rewritten);
  E.key("errorBefore");
  E.dbl(R.ErrorBefore);
  E.key("errorAfter");
  E.dbl(R.ErrorAfter);
  E.key("significant");
  E.boolean(R.HadSignificantError);
  E.key("improved");
  E.boolean(R.Improved);
}

static bool decodeImproveOutcome(wire::Decoder &D, ImproveRecord &Out) {
  ScopedCtx C(D, "improve record");
  return D.key("original") && D.str(Out.Original) && D.key("rewritten") &&
         D.str(Out.Rewritten) && D.key("errorBefore") &&
         D.dbl(Out.ErrorBefore) && D.key("errorAfter") &&
         D.dbl(Out.ErrorAfter) && D.key("significant") &&
         D.boolean(Out.HadSignificantError) && D.key("improved") &&
         D.boolean(Out.Improved);
}

std::string herbgrind::renderImproveOutcomeJson(const ImproveRecord &R) {
  wire::JsonEncoder E;
  E.beginObject();
  encodeImproveOutcome(E, R);
  E.endObject();
  std::string S = E.take();
  // Callers splice the fragment into their own object, so strip the
  // braces the encoder needs for key bookkeeping.
  return S.substr(1, S.size() - 2);
}

static void encodeImproveDocBody(wire::Encoder &E, const ImproveDoc &Doc) {
  E.key("configHash");
  E.str(Doc.ConfigHash);
  E.key("improveHash");
  E.str(Doc.ImproveHash);
  E.key("expr");
  E.str(Doc.ExprIdentity);
  E.key("specs");
  E.str(Doc.SpecIdentity);
  E.key("record");
  E.beginObject();
  encodeImproveOutcome(E, Doc.Record);
  E.endObject();
}

static bool decodeImproveDocBody(wire::Decoder &D, ImproveDoc &Out) {
  ScopedCtx C(D, "improve");
  if (!D.key("configHash") || !D.str(Out.ConfigHash) ||
      !D.key("improveHash") || !D.str(Out.ImproveHash) || !D.key("expr") ||
      !D.str(Out.ExprIdentity) || !D.key("specs") || !D.str(Out.SpecIdentity))
    return false;
  return D.key("record") && D.beginObject() &&
         decodeImproveOutcome(D, Out.Record) && D.endObject();
}

std::string herbgrind::renderImproveDocJson(const ImproveDoc &Doc) {
  wire::JsonEncoder E;
  E.beginObject();
  encodeJsonEnvelope(E, "herbgrind-improve", WireFormatMajor, WireFormatMinor);
  encodeImproveDocBody(E, Doc);
  E.endObject();
  return E.take();
}

std::string herbgrind::renderImproveDocBinary(const ImproveDoc &Doc) {
  wire::BinaryEncoder E(wire::Family::Improve, WireFormatMajor,
                        WireFormatMinor);
  encodeImproveDocBody(E, Doc);
  return E.take();
}

std::string herbgrind::renderImproveDoc(const ImproveDoc &Doc,
                                        WireEncoding Enc) {
  return Enc == WireEncoding::Binary ? renderImproveDocBinary(Doc)
                                     : renderImproveDocJson(Doc);
}

bool herbgrind::parseImproveDocJson(const std::string &Text, ImproveDoc &Out,
                                    std::string &Err) {
  JsonParseResult R;
  if (!parseJsonText(Text, R, Err))
    return false;
  if (!R.Value.isObject()) {
    Err = "improve document is not an object";
    return false;
  }
  wire::JsonDecoder D(R.Value);
  if (!D.beginObject() ||
      !decodeJsonEnvelope(D, "herbgrind-improve", WireFormatMajor) ||
      !decodeImproveDocBody(D, Out) || !D.endObject()) {
    Err = D.error();
    return false;
  }
  return true;
}

static bool parseImproveDocBinary(const std::string &Text, ImproveDoc &Out,
                                  std::string &Err) {
  wire::BinaryDecoder D(Text);
  if (!checkBinaryHeader(D, wire::Family::Improve, "herbgrind-improve",
                         WireFormatMajor, Err))
    return false;
  if (!decodeImproveDocBody(D, Out)) {
    Err = D.error();
    return false;
  }
  if (!D.atEnd()) {
    Err = "improve: trailing bytes after HGB document";
    return false;
  }
  return true;
}

bool herbgrind::parseImproveDoc(const std::string &Text, ImproveDoc &Out,
                                std::string &Err) {
  return wire::isBinary(Text) ? parseImproveDocBinary(Text, Out, Err)
                              : parseImproveDocJson(Text, Out, Err);
}

//===----------------------------------------------------------------------===//
// Presentation-level reports
//===----------------------------------------------------------------------===//

static void encodeReportBody(wire::Encoder &E, const Report &R) {
  E.beginObject();
  E.key("spots");
  E.beginArray(R.Spots.size());
  for (const SpotReport &SR : R.Spots) {
    E.beginObject();
    E.key("kind");
    E.str(spotKindName(SR.Kind));
    E.key("pc");
    E.u32(SR.PC);
    E.key("loc");
    encodeSourceLoc(E, SR.Loc);
    E.key("executions");
    E.u64(SR.Executions);
    E.key("erroneous");
    E.u64(SR.Erroneous);
    E.key("maxErrorBits");
    E.dbl(SR.MaxErrorBits);
    E.key("rootCauses");
    E.beginArray(SR.RootCauses.size());
    for (const RootCauseReport &RC : SR.RootCauses) {
      E.beginObject();
      E.key("pc");
      E.u32(RC.PC);
      E.key("loc");
      encodeSourceLoc(E, RC.Loc);
      E.key("fpcore");
      E.str(RC.FPCore);
      E.key("body");
      E.str(RC.Body);
      E.key("numVars");
      E.u32(RC.NumVars);
      E.key("opCount");
      E.u64(RC.OpCount);
      E.key("flagged");
      E.u64(RC.Flagged);
      E.key("maxLocalError");
      E.dbl(RC.MaxLocalError);
      E.key("avgLocalError");
      E.dbl(RC.AvgLocalError);
      E.key("exampleInput");
      E.str(RC.ExampleInput);
      E.endObject();
    }
    E.endArray();
    E.endObject();
  }
  E.endArray();
  // The improvements section is emitted only when an improver pass ran:
  // an empty vector renders the exact pre-1.1 bytes, so reports without
  // improver results stay byte-identical to older writers'.
  E.present(!R.Improvements.empty());
  if (!R.Improvements.empty()) {
    E.key("improvements");
    E.beginArray(R.Improvements.size());
    for (const ImproveRecord &IR : R.Improvements) {
      E.beginObject();
      E.key("pc");
      E.u32(IR.PC);
      encodeImproveOutcome(E, IR);
      E.endObject();
    }
    E.endArray();
  }
  E.endObject();
}

static bool decodeReportBody(wire::Decoder &D, Report &Out) {
  ScopedCtx C(D, "report");
  if (!D.beginObject())
    return false;
  uint64_t NumSpots = 0;
  if (!D.key("spots") || !D.beginArray(NumSpots))
    return false;
  for (uint64_t I = 0; I < NumSpots; ++I) {
    ScopedCtx SC(D, "report spot");
    SpotReport SR;
    std::string KindName;
    if (!D.element() || !D.beginObject() || !D.key("kind") ||
        !D.str(KindName))
      return false;
    if (!parseSpotKind(KindName, SR.Kind))
      return D.failOver(
          format("report: unknown spot kind '%s'", KindName.c_str()));
    if (!D.key("pc") || !D.u32(SR.PC) || !D.key("loc") ||
        !decodeSourceLoc(D, SR.Loc) || !D.key("executions") ||
        !D.u64(SR.Executions) || !D.key("erroneous") ||
        !D.u64(SR.Erroneous) || !D.key("maxErrorBits") ||
        !D.dbl(SR.MaxErrorBits))
      return false;
    uint64_t NumCauses = 0;
    if (!D.key("rootCauses") || !D.beginArray(NumCauses))
      return false;
    for (uint64_t J = 0; J < NumCauses; ++J) {
      ScopedCtx CC(D, "root cause");
      RootCauseReport RC;
      uint64_t OpCount = 0;
      if (!D.element() || !D.beginObject() || !D.key("pc") || !D.u32(RC.PC) ||
          !D.key("loc") || !decodeSourceLoc(D, RC.Loc) || !D.key("fpcore") ||
          !D.str(RC.FPCore) || !D.key("body") || !D.str(RC.Body) ||
          !D.key("numVars") || !D.u32(RC.NumVars) || !D.key("opCount") ||
          !D.u64(OpCount) || !D.key("flagged") || !D.u64(RC.Flagged) ||
          !D.key("maxLocalError") || !D.dbl(RC.MaxLocalError) ||
          !D.key("avgLocalError") || !D.dbl(RC.AvgLocalError) ||
          !D.key("exampleInput") || !D.str(RC.ExampleInput) ||
          !D.endObject())
        return false;
      RC.OpCount = static_cast<unsigned>(OpCount);
      SR.RootCauses.push_back(std::move(RC));
    }
    if (!D.endArray() || !D.endObject())
      return false;
    Out.Spots.push_back(std::move(SR));
  }
  if (!D.endArray())
    return false;
  // Optional improvements section (absent from pre-1.1 writers and from
  // reports no improver pass ran over); absence round-trips to absence.
  bool HasImp = false;
  if (!D.present("improvements", HasImp))
    return false;
  if (HasImp) {
    uint64_t N = 0;
    if (!D.key("improvements") || !D.beginArray(N))
      return false;
    for (uint64_t I = 0; I < N; ++I) {
      ImproveRecord IR;
      if (!D.element() || !D.beginObject() || !D.key("pc") || !D.u32(IR.PC) ||
          !decodeImproveOutcome(D, IR) || !D.endObject())
        return false;
      Out.Improvements.push_back(std::move(IR));
    }
    if (!D.endArray())
      return false;
  }
  return D.endObject();
}

// Defined here rather than in Report.cpp so the schema exists exactly
// once, in the traversal above.
std::string Report::renderJson() const {
  wire::JsonEncoder E;
  encodeReportBody(E, *this);
  return E.take();
}

bool herbgrind::parseReport(const JsonValue &V, Report &Out,
                            std::string &Err) {
  wire::JsonDecoder D(V);
  if (!decodeReportBody(D, Out)) {
    Err = D.error();
    return false;
  }
  return true;
}

bool herbgrind::parseReportJson(const std::string &Text, Report &Out,
                                std::string &Err) {
  JsonParseResult R;
  if (!parseJsonText(Text, R, Err))
    return false;
  return parseReport(R.Value, Out, Err);
}

std::string herbgrind::renderReportBinary(const Report &R) {
  wire::BinaryEncoder E(wire::Family::Report, WireFormatMajor,
                        WireFormatMinor);
  encodeReportBody(E, R);
  return E.take();
}

bool herbgrind::parseReportDoc(const std::string &Text, Report &Out,
                               std::string &Err) {
  if (!wire::isBinary(Text))
    return parseReportJson(Text, Out, Err);
  wire::BinaryDecoder D(Text);
  if (!checkBinaryHeader(D, wire::Family::Report, "report", WireFormatMajor,
                         Err))
    return false;
  if (!decodeReportBody(D, Out)) {
    Err = D.error();
    return false;
  }
  if (!D.atEnd()) {
    Err = "report: trailing bytes after HGB document";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Batch report documents
//===----------------------------------------------------------------------===//

static void encodeBatchBody(wire::Encoder &E,
                            const std::vector<BatchReportEntryRef> &Entries) {
  E.key("benchmarks");
  E.beginArray(Entries.size());
  for (const BatchReportEntryRef &En : Entries) {
    E.beginObject();
    E.key("name");
    E.str(*En.Name);
    E.key("shards");
    E.u64(En.Shards);
    E.key("runs");
    E.u64(En.Runs);
    E.key("report");
    encodeReportBody(E, *En.Rep);
    E.endObject();
  }
  E.endArray();
}

static bool decodeBatchBody(wire::Decoder &D, BatchReportDoc &Out) {
  ScopedCtx C(D, "batch report");
  uint64_t N = 0;
  if (!D.key("benchmarks") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    ScopedCtx BC(D, "benchmark entry");
    BatchReportDoc::Entry En;
    if (!D.element() || !D.beginObject() || !D.key("name") ||
        !D.str(En.Name) || !D.key("shards") || !D.u64(En.Shards) ||
        !D.key("runs") || !D.u64(En.Runs))
      return false;
    if (!D.key("report") || !decodeReportBody(D, En.Rep) || !D.endObject())
      return false;
    Out.Benchmarks.push_back(std::move(En));
  }
  return D.endArray();
}

std::string herbgrind::renderBatchReportJson(
    const std::vector<BatchReportEntryRef> &Entries) {
  wire::JsonEncoder E;
  E.beginObject();
  encodeJsonEnvelope(E, "herbgrind-report", WireFormatMajor, WireFormatMinor);
  encodeBatchBody(E, Entries);
  E.endObject();
  return E.take();
}

std::string herbgrind::renderBatchReportBinary(
    const std::vector<BatchReportEntryRef> &Entries) {
  wire::BinaryEncoder E(wire::Family::BatchReport, WireFormatMajor,
                        WireFormatMinor);
  encodeBatchBody(E, Entries);
  return E.take();
}

static std::vector<BatchReportEntryRef>
batchRefs(const BatchReportDoc &Doc) {
  std::vector<BatchReportEntryRef> Entries;
  Entries.reserve(Doc.Benchmarks.size());
  for (const BatchReportDoc::Entry &En : Doc.Benchmarks)
    Entries.push_back({&En.Name, En.Shards, En.Runs, &En.Rep});
  return Entries;
}

std::string herbgrind::renderBatchReportJson(const BatchReportDoc &Doc) {
  return renderBatchReportJson(batchRefs(Doc));
}

std::string herbgrind::renderBatchReportBinary(const BatchReportDoc &Doc) {
  return renderBatchReportBinary(batchRefs(Doc));
}

bool herbgrind::parseBatchReportJson(const std::string &Text,
                                     BatchReportDoc &Out, std::string &Err) {
  JsonParseResult R;
  if (!parseJsonText(Text, R, Err))
    return false;
  if (!R.Value.isObject()) {
    Err = "batch report document is not an object";
    return false;
  }
  wire::JsonDecoder D(R.Value);
  if (!D.beginObject() ||
      !decodeJsonEnvelope(D, "herbgrind-report", WireFormatMajor) ||
      !decodeBatchBody(D, Out) || !D.endObject()) {
    Err = D.error();
    return false;
  }
  return true;
}

bool herbgrind::parseBatchReport(const std::string &Text, BatchReportDoc &Out,
                                 std::string &Err) {
  if (!wire::isBinary(Text))
    return parseBatchReportJson(Text, Out, Err);
  wire::BinaryDecoder D(Text);
  if (!checkBinaryHeader(D, wire::Family::BatchReport, "herbgrind-report",
                         WireFormatMajor, Err))
    return false;
  if (!decodeBatchBody(D, Out)) {
    Err = D.error();
    return false;
  }
  if (!D.atEnd()) {
    Err = "batch report: trailing bytes after HGB document";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Telemetry documents
//===----------------------------------------------------------------------===//

/// The counters/gauges/timers sections, shared verbatim by the telemetry
/// document and the run-ledger envelope (one schema, two containers).
static void encodeMetricsSnapshot(wire::Encoder &E,
                                  const metrics::Snapshot &S) {
  E.key("counters");
  E.beginArray(S.Counters.size());
  for (const metrics::CounterSample &Cs : S.Counters) {
    E.beginObject();
    E.key("name");
    E.str(Cs.Name);
    E.key("value");
    E.u64(Cs.Value);
    E.endObject();
  }
  E.endArray();
  E.key("gauges");
  E.beginArray(S.Gauges.size());
  for (const metrics::GaugeSample &G : S.Gauges) {
    E.beginObject();
    E.key("name");
    E.str(G.Name);
    E.key("value");
    E.i64(G.Value);
    E.key("max");
    E.i64(G.Max);
    E.endObject();
  }
  E.endArray();
  E.key("timers");
  E.beginArray(S.Timers.size());
  for (const metrics::TimerSample &T : S.Timers) {
    E.beginObject();
    E.key("name");
    E.str(T.Name);
    E.key("count");
    E.u64(T.Count);
    E.key("sumNs");
    E.u64(T.SumNanos);
    E.key("maxNs");
    E.u64(T.MaxNanos);
    E.key("buckets");
    E.beginArray(metrics::TimerBuckets);
    for (unsigned B = 0; B < metrics::TimerBuckets; ++B)
      E.u64(T.Buckets[B]);
    E.endArray();
    E.endObject();
  }
  E.endArray();
}

static bool decodeMetricsSnapshot(wire::Decoder &D, metrics::Snapshot &Out) {
  uint64_t N = 0;
  if (!D.key("counters") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    ScopedCtx CC(D, "metrics counter");
    metrics::CounterSample Cs;
    if (!D.element() || !D.beginObject() || !D.key("name") ||
        !D.str(Cs.Name) || !D.key("value") || !D.u64(Cs.Value) ||
        !D.endObject())
      return false;
    Out.Counters.push_back(std::move(Cs));
  }
  if (!D.endArray())
    return false;
  if (!D.key("gauges") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    ScopedCtx GC(D, "metrics gauge");
    metrics::GaugeSample G;
    if (!D.element() || !D.beginObject() || !D.key("name") || !D.str(G.Name) ||
        !D.key("value") || !D.i64(G.Value) || !D.key("max") ||
        !D.i64(G.Max) || !D.endObject())
      return false;
    Out.Gauges.push_back(std::move(G));
  }
  if (!D.endArray())
    return false;
  if (!D.key("timers") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    ScopedCtx TC(D, "metrics timer");
    metrics::TimerSample T;
    if (!D.element() || !D.beginObject() || !D.key("name") || !D.str(T.Name) ||
        !D.key("count") || !D.u64(T.Count) || !D.key("sumNs") ||
        !D.u64(T.SumNanos) || !D.key("maxNs") || !D.u64(T.MaxNanos))
      return false;
    uint64_t NumBuckets = 0;
    if (!D.key("buckets") || !D.beginArray(NumBuckets))
      return false;
    if (NumBuckets != metrics::TimerBuckets)
      return D.failOver(
          format("metrics timer '%s': expected %u buckets, got %zu",
                 T.Name.c_str(), metrics::TimerBuckets,
                 static_cast<size_t>(NumBuckets)));
    for (unsigned B = 0; B < metrics::TimerBuckets; ++B)
      if (!D.element() || !D.u64(T.Buckets[B]))
        return false;
    if (!D.endArray() || !D.endObject())
      return false;
    Out.Timers.push_back(std::move(T));
  }
  return D.endArray();
}

static void encodeTelemetryBody(wire::Encoder &E, const TelemetryDoc &Doc) {
  // The 1.1 meta block is optional so a doc parsed from a minor-0 writer
  // re-renders its exact bytes (absence round-trips to absence).
  E.present(Doc.HasMeta);
  if (Doc.HasMeta) {
    E.key("meta");
    E.beginObject();
    E.key("host");
    E.str(Doc.Meta.Host);
    E.key("timestamp");
    E.str(Doc.Meta.Timestamp);
    E.key("mergedDocs");
    E.u64(Doc.Meta.MergedDocs);
    E.endObject();
  }
  encodeMetricsSnapshot(E, Doc.Metrics);
  E.key("profile");
  E.beginObject();
  E.key("totalNs");
  E.u64(Doc.ProfileTotalNanos);
  E.key("ops");
  E.beginArray(Doc.Profile.size());
  for (const opprof::OpProfileRow &R : Doc.Profile) {
    E.beginObject();
    E.key("op");
    E.str(opInfo(R.Op).Name);
    E.key("loc");
    encodeSourceLoc(E, R.Loc);
    E.key("executions");
    E.u64(R.Executions);
    E.key("samples");
    E.u64(R.Samples);
    E.key("ns");
    E.u64(R.Nanos);
    E.key("limbAllocs");
    E.u64(R.LimbAllocs);
    E.key("limbHits");
    E.u64(R.LimbHits);
    E.endObject();
  }
  E.endArray();
  E.endObject();
}

/// \p DocMinor is the document's own minor version: a minor-0 binary doc
/// carries no meta presence byte, so the read must be version-gated (the
/// JSON backend resolves presence by name and tolerates either minor).
static bool decodeTelemetryBody(wire::Decoder &D, TelemetryDoc &Out,
                                int DocMinor) {
  ScopedCtx C(D, "telemetry");
  if (DocMinor >= 1) {
    if (!D.present("meta", Out.HasMeta))
      return false;
    if (Out.HasMeta) {
      ScopedCtx MC(D, "telemetry meta");
      if (!D.key("meta") || !D.beginObject() || !D.key("host") ||
          !D.str(Out.Meta.Host) || !D.key("timestamp") ||
          !D.str(Out.Meta.Timestamp) || !D.key("mergedDocs") ||
          !D.u64(Out.Meta.MergedDocs) || !D.endObject())
        return false;
    }
  }
  if (!decodeMetricsSnapshot(D, Out.Metrics))
    return false;
  uint64_t N = 0;
  ScopedCtx PC(D, "telemetry profile");
  if (!D.key("profile") || !D.beginObject() || !D.key("totalNs") ||
      !D.u64(Out.ProfileTotalNanos))
    return false;
  if (!D.key("ops") || !D.beginArray(N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    ScopedCtx RC(D, "telemetry profile row");
    opprof::OpProfileRow Row;
    std::string OpName;
    if (!D.element() || !D.beginObject() || !D.key("op") || !D.str(OpName))
      return false;
    if (!parseOpcode(OpName, Row.Op))
      return D.failOver(format("telemetry profile row: unknown opcode '%s'",
                               OpName.c_str()));
    if (!D.key("loc") || !decodeSourceLoc(D, Row.Loc))
      return false;
    if (!D.key("executions") || !D.u64(Row.Executions) ||
        !D.key("samples") || !D.u64(Row.Samples) || !D.key("ns") ||
        !D.u64(Row.Nanos) || !D.key("limbAllocs") ||
        !D.u64(Row.LimbAllocs) || !D.key("limbHits") ||
        !D.u64(Row.LimbHits) || !D.endObject())
      return false;
    Out.Profile.push_back(std::move(Row));
  }
  return D.endArray() && D.endObject();
}

std::string herbgrind::renderTelemetryJson(const TelemetryDoc &Doc) {
  wire::JsonEncoder E;
  E.beginObject();
  encodeJsonEnvelope(E, "herbgrind-telemetry", TelemetryFormatMajor,
                     TelemetryFormatMinor);
  encodeTelemetryBody(E, Doc);
  E.endObject();
  return E.take();
}

std::string herbgrind::renderTelemetryBinary(const TelemetryDoc &Doc) {
  wire::BinaryEncoder E(wire::Family::Telemetry, TelemetryFormatMajor,
                        TelemetryFormatMinor);
  encodeTelemetryBody(E, Doc);
  return E.take();
}

bool herbgrind::parseTelemetryJson(const std::string &Text, TelemetryDoc &Out,
                                   std::string &Err) {
  JsonParseResult R;
  if (!parseJsonText(Text, R, Err))
    return false;
  if (!R.Value.isObject()) {
    Err = "telemetry document is not an object";
    return false;
  }
  wire::JsonDecoder D(R.Value);
  int DocMinor = 0;
  if (!D.beginObject() ||
      !decodeJsonEnvelope(D, "herbgrind-telemetry", TelemetryFormatMajor,
                          &DocMinor) ||
      !decodeTelemetryBody(D, Out, DocMinor) || !D.endObject()) {
    Err = D.error();
    return false;
  }
  return true;
}

bool herbgrind::parseTelemetry(const std::string &Text, TelemetryDoc &Out,
                               std::string &Err) {
  if (!wire::isBinary(Text))
    return parseTelemetryJson(Text, Out, Err);
  wire::BinaryDecoder D(Text);
  if (!checkBinaryHeader(D, wire::Family::Telemetry, "herbgrind-telemetry",
                         TelemetryFormatMajor, Err))
    return false;
  if (!decodeTelemetryBody(D, Out, D.minor())) {
    Err = D.error();
    return false;
  }
  if (!D.atEnd()) {
    Err = "telemetry: trailing bytes after HGB document";
    return false;
  }
  return true;
}

void TelemetryDoc::mergeFrom(const TelemetryDoc &Other) {
  // A doc that never passed through a merge counts as one process.
  auto LeafCount = [](const TelemetryDoc &D) {
    return D.HasMeta && D.Meta.MergedDocs > 0 ? D.Meta.MergedDocs
                                              : uint64_t(1);
  };
  Meta.MergedDocs = LeafCount(*this) + LeafCount(Other);
  HasMeta = true;
  Metrics.mergeFrom(Other.Metrics);
  opprof::mergeOpProfileRows(Profile, Other.Profile);
  opprof::finalizeOpProfile(Profile);
  ProfileTotalNanos += Other.ProfileTotalNanos;
}

bool herbgrind::mergeTelemetry(const std::vector<std::string> &DocTexts,
                               TelemetryDoc &Out, std::string &Err) {
  if (DocTexts.empty()) {
    Err = "no telemetry documents to merge";
    return false;
  }
  Out = TelemetryDoc();
  for (size_t I = 0; I < DocTexts.size(); ++I) {
    TelemetryDoc Doc;
    if (!parseTelemetry(DocTexts[I], Doc, Err)) {
      Err = format("telemetry document %zu: %s", I, Err.c_str());
      return false;
    }
    if (I == 0)
      Out = std::move(Doc);
    else
      Out.mergeFrom(Doc);
  }
  // A single-doc "merge" still marks the result as merged provenance;
  // Host/Timestamp stay empty either way so the result is deterministic
  // given the inputs (callers stamp provenance before writing).
  if (Out.HasMeta && DocTexts.size() == 1)
    Out.Meta.MergedDocs = std::max<uint64_t>(Out.Meta.MergedDocs, 1);
  if (!Out.HasMeta) {
    Out.HasMeta = true;
    Out.Meta.MergedDocs = 1;
  }
  Out.Meta.Host.clear();
  Out.Meta.Timestamp.clear();
  return true;
}

//===----------------------------------------------------------------------===//
// Run-ledger documents
//===----------------------------------------------------------------------===//

static void encodeLedgerBody(wire::Encoder &E, const LedgerEntry &L) {
  E.key("meta");
  E.beginObject();
  E.key("host");
  E.str(L.Host);
  E.key("timestamp");
  E.str(L.Timestamp);
  E.key("timestampNs");
  E.u64(L.TimestampNanos);
  E.key("label");
  E.str(L.Label);
  E.endObject();
  E.key("config");
  E.beginObject();
  E.key("hash");
  E.str(L.ConfigHash);
  E.key("wireFormat");
  E.str(L.WireFormat);
  E.key("tier");
  E.str(L.Tier);
  E.key("jobs");
  E.u64(L.Jobs);
  E.key("samples");
  E.u64(L.Samples);
  E.key("shardSize");
  E.u64(L.ShardSize);
  E.endObject();
  E.key("stats");
  E.beginObject();
  E.key("benchmarks");
  E.u64(L.Benchmarks);
  E.key("shards");
  E.u64(L.Shards);
  E.key("runs");
  E.u64(L.Runs);
  E.key("analyzedShards");
  E.u64(L.AnalyzedShards);
  E.key("cachedShards");
  E.u64(L.CachedShards);
  E.key("rcacheHits");
  E.u64(L.ResultCacheHits);
  E.key("rcacheMisses");
  E.u64(L.ResultCacheMisses);
  E.key("limbHeapAllocs");
  E.u64(L.LimbHeapAllocs);
  E.key("limbCacheHits");
  E.u64(L.LimbCacheHits);
  E.key("tier0Runs");
  E.u64(L.Tier0Runs);
  E.key("escalatedRuns");
  E.u64(L.EscalatedRuns);
  E.key("poolTasks");
  E.u64(L.PoolTasks);
  E.key("poolSteals");
  E.u64(L.PoolSteals);
  E.key("wallSeconds");
  E.dbl(L.WallSeconds);
  E.endObject();
  encodeMetricsSnapshot(E, L.Metrics);
}

/// \p DocMinor is the document's own minor version: a 1.0 entry still
/// carries the retired "batchLanes" knob, which is read and discarded.
static bool decodeLedgerBody(wire::Decoder &D, LedgerEntry &Out,
                             int DocMinor) {
  ScopedCtx C(D, "ledger");
  {
    ScopedCtx MC(D, "ledger meta");
    if (!D.key("meta") || !D.beginObject() || !D.key("host") ||
        !D.str(Out.Host) || !D.key("timestamp") || !D.str(Out.Timestamp) ||
        !D.key("timestampNs") || !D.u64(Out.TimestampNanos) ||
        !D.key("label") || !D.str(Out.Label) || !D.endObject())
      return false;
  }
  {
    ScopedCtx CC(D, "ledger config");
    if (!D.key("config") || !D.beginObject() || !D.key("hash") ||
        !D.str(Out.ConfigHash) || !D.key("wireFormat") ||
        !D.str(Out.WireFormat) || !D.key("tier") || !D.str(Out.Tier) ||
        !D.key("jobs") || !D.u64(Out.Jobs) || !D.key("samples") ||
        !D.u64(Out.Samples) || !D.key("shardSize") || !D.u64(Out.ShardSize))
      return false;
    uint64_t Discarded = 0;
    if (DocMinor < 1 && (!D.key("batchLanes") || !D.u64(Discarded)))
      return false;
    if (!D.endObject())
      return false;
  }
  {
    ScopedCtx SC(D, "ledger stats");
    if (!D.key("stats") || !D.beginObject() || !D.key("benchmarks") ||
        !D.u64(Out.Benchmarks) || !D.key("shards") || !D.u64(Out.Shards) ||
        !D.key("runs") || !D.u64(Out.Runs) || !D.key("analyzedShards") ||
        !D.u64(Out.AnalyzedShards) || !D.key("cachedShards") ||
        !D.u64(Out.CachedShards) || !D.key("rcacheHits") ||
        !D.u64(Out.ResultCacheHits) || !D.key("rcacheMisses") ||
        !D.u64(Out.ResultCacheMisses) || !D.key("limbHeapAllocs") ||
        !D.u64(Out.LimbHeapAllocs) || !D.key("limbCacheHits") ||
        !D.u64(Out.LimbCacheHits) || !D.key("tier0Runs") ||
        !D.u64(Out.Tier0Runs) || !D.key("escalatedRuns") ||
        !D.u64(Out.EscalatedRuns) || !D.key("poolTasks") ||
        !D.u64(Out.PoolTasks) || !D.key("poolSteals") ||
        !D.u64(Out.PoolSteals) || !D.key("wallSeconds") ||
        !D.dbl(Out.WallSeconds) || !D.endObject())
      return false;
  }
  return decodeMetricsSnapshot(D, Out.Metrics);
}

std::string herbgrind::renderLedgerEntryJson(const LedgerEntry &E) {
  wire::JsonEncoder Enc;
  Enc.beginObject();
  encodeJsonEnvelope(Enc, "herbgrind-ledger", LedgerFormatMajor,
                     LedgerFormatMinor);
  encodeLedgerBody(Enc, E);
  Enc.endObject();
  return Enc.take();
}

std::string herbgrind::renderLedgerEntryBinary(const LedgerEntry &E) {
  wire::BinaryEncoder Enc(wire::Family::Ledger, LedgerFormatMajor,
                          LedgerFormatMinor);
  encodeLedgerBody(Enc, E);
  return Enc.take();
}

std::string herbgrind::renderLedgerEntry(const LedgerEntry &E,
                                         WireEncoding Enc) {
  return Enc == WireEncoding::Binary ? renderLedgerEntryBinary(E)
                                     : renderLedgerEntryJson(E);
}

bool herbgrind::parseLedgerEntry(const std::string &Text, LedgerEntry &Out,
                                 std::string &Err) {
  if (!wire::isBinary(Text)) {
    JsonParseResult R;
    if (!parseJsonText(Text, R, Err))
      return false;
    if (!R.Value.isObject()) {
      Err = "ledger document is not an object";
      return false;
    }
    wire::JsonDecoder D(R.Value);
    int DocMinor = 0;
    if (!D.beginObject() ||
        !decodeJsonEnvelope(D, "herbgrind-ledger", LedgerFormatMajor,
                            &DocMinor) ||
        !decodeLedgerBody(D, Out, DocMinor) || !D.endObject()) {
      Err = D.error();
      return false;
    }
    return true;
  }
  wire::BinaryDecoder D(Text);
  if (!checkBinaryHeader(D, wire::Family::Ledger, "herbgrind-ledger",
                         LedgerFormatMajor, Err))
    return false;
  if (!decodeLedgerBody(D, Out, D.minor())) {
    Err = D.error();
    return false;
  }
  if (!D.atEnd()) {
    Err = "ledger: trailing bytes after HGB document";
    return false;
  }
  return true;
}
