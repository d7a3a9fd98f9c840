//===- shadow/ShadowState.cpp - Shadow values and shadow storage ----------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "shadow/ShadowState.h"

#include <cassert>

using namespace herbgrind;

ShadowState::~ShadowState() { reset(); }

void ShadowState::reset() {
  for (auto &Lanes : Temps)
    for (ShadowValue *&SV : Lanes) {
      if (SV)
        release(SV);
      SV = nullptr;
    }
  for (auto &[Off, C] : ThreadState)
    if (C.SV)
      release(C.SV);
  ThreadState.clear();
  for (auto &[Addr, C] : Memory)
    if (C.SV)
      release(C.SV);
  Memory.clear();
}

ShadowValue *ShadowState::create(BigFloat Real, TraceNode *Trace,
                                 const InflSet *Infl, ValueType Ty) {
  assert(Trace && Infl && "shadow value needs trace and influences");
  assert((Ty == ValueType::F64 || Ty == ValueType::F32) &&
         "only scalar floats are shadowed");
  ShadowValue *SV = ValuePool.create();
  SV->Real = std::move(Real);
  SV->Trace = Trace; // takes over the caller's reference
  SV->Influences = Infl;
  SV->PredDelta = 0.0;
  SV->PredNoise = 0.0;
  SV->Ty = Ty;
  SV->RefCount = 1;
  return SV;
}

ShadowValue *ShadowState::createPredicate(double PredDelta, double PredNoise,
                                          ValueType Ty) {
  assert((Ty == ValueType::F64 || Ty == ValueType::F32) &&
         "only scalar floats are shadowed");
  // The pool slot's Real keeps whatever limbs it last held; predicate
  // values never read it, and skipping the BigFloat store is the point.
  ShadowValue *SV = ValuePool.create();
  SV->Trace = nullptr;
  SV->Influences = nullptr;
  SV->PredDelta = PredDelta;
  SV->PredNoise = PredNoise;
  SV->Ty = Ty;
  SV->RefCount = 1;
  return SV;
}

void ShadowState::retain(ShadowValue *SV) {
  assert(SV && SV->RefCount > 0 && "retain of dead shadow value");
  ++SV->RefCount;
}

void ShadowState::release(ShadowValue *SV) {
  assert(SV && SV->RefCount > 0 && "release of dead shadow value");
  if (--SV->RefCount > 0)
    return;
  if (SV->Trace)
    Arena.release(SV->Trace);
  ValuePool.destroy(SV);
}

ShadowValue *ShadowState::share(ShadowValue *SV) {
  assert(SV && "sharing null shadow value");
  if (ShareValues) {
    retain(SV);
    return SV;
  }
  // Sharing disabled (optimization ablation): deep-copy the shadow value.
  if (!SV->Trace)
    return createPredicate(SV->PredDelta, SV->PredNoise, SV->Ty);
  Arena.retain(SV->Trace);
  return create(SV->Real, SV->Trace, SV->Influences, SV->Ty);
}

//===----------------------------------------------------------------------===//
// Temporaries
//===----------------------------------------------------------------------===//

ShadowValue *ShadowState::tempLane(uint32_t Temp, unsigned Lane) const {
  assert(Temp < Temps.size() && Lane < 4 && "temp lane out of range");
  return Temps[Temp][Lane];
}

void ShadowState::setTempLane(uint32_t Temp, unsigned Lane, ShadowValue *SV) {
  assert(Temp < Temps.size() && Lane < 4 && "temp lane out of range");
  ShadowValue *Old = Temps[Temp][Lane];
  Temps[Temp][Lane] = SV;
  if (Old)
    release(Old);
}

void ShadowState::clearTemp(uint32_t Temp) {
  for (unsigned Lane = 0; Lane < 4; ++Lane)
    setTempLane(Temp, Lane, nullptr);
}

//===----------------------------------------------------------------------===//
// Thread state
//===----------------------------------------------------------------------===//

void ShadowState::invalidateThreadState(int64_t Offset, unsigned Size) {
  // Any cell starting in [Offset - 15, Offset + Size) could overlap the
  // written range (cells are at most 16 bytes wide).
  auto It = ThreadState.lower_bound(Offset - 15);
  while (It != ThreadState.end() && It->first < Offset + Size) {
    int64_t CellEnd = It->first + It->second.Size;
    if (CellEnd > Offset) {
      if (It->second.SV)
        release(It->second.SV);
      It = ThreadState.erase(It);
    } else {
      ++It;
    }
  }
}

ShadowValue *ShadowState::getThreadState(int64_t Offset,
                                         unsigned Size) const {
  auto It = ThreadState.find(Offset);
  if (It == ThreadState.end() || It->second.Size != Size)
    return nullptr; // misaligned or size-mismatched reads see no shadow
  return It->second.SV;
}

void ShadowState::putThreadState(int64_t Offset, unsigned Size,
                                 ShadowValue *SV) {
  invalidateThreadState(Offset, Size);
  if (!SV)
    return;
  ThreadState[Offset] = Cell{SV, Size};
}

//===----------------------------------------------------------------------===//
// Memory
//===----------------------------------------------------------------------===//

ShadowValue *ShadowState::getMemory(uint64_t Addr, unsigned Size) const {
  auto It = Memory.find(Addr);
  if (It == Memory.end() || It->second.Size != Size)
    return nullptr;
  return It->second.SV;
}

void ShadowState::invalidateMemory(uint64_t Addr, unsigned Size) {
  // Cells are at most 16 bytes wide; scan the bounded window of starts
  // that could overlap [Addr, Addr + Size).
  for (uint64_t Start = Addr >= 15 ? Addr - 15 : 0; Start < Addr + Size;
       ++Start) {
    auto It = Memory.find(Start);
    if (It == Memory.end())
      continue;
    uint64_t CellEnd = Start + It->second.Size;
    if (CellEnd <= Addr)
      continue;
    if (It->second.SV)
      release(It->second.SV);
    Memory.erase(It);
  }
}

void ShadowState::putMemory(uint64_t Addr, unsigned Size, ShadowValue *SV) {
  invalidateMemory(Addr, Size);
  if (!SV)
    return;
  Memory[Addr] = Cell{SV, Size};
}
