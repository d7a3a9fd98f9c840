//===- trace/TraceNode.cpp - Concrete expression traces -------------------===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceNode.h"

#include "support/FloatBits.h"

#include <algorithm>
#include <cassert>

using namespace herbgrind;

TraceNode *TraceArena::leaf(double Value) {
  TraceNode *N = NodePool.create();
  N->Kind = TraceNode::TNKind::Leaf;
  N->Value = Value;
  N->RefCount = 1;
  return N;
}

TraceNode *TraceArena::node(Opcode Op, uint32_t Site, double Value,
                            TraceNode *const *Kids, unsigned NumKids) {
  assert(NumKids <= 3 && "too many children");
  TraceNode *N = NodePool.create();
  N->Kind = TraceNode::TNKind::Op;
  N->Op = Op;
  N->Site = Site;
  N->Value = Value;
  N->NumKids = static_cast<uint8_t>(NumKids);
  N->RefCount = 1;
  // Readers see a kid through at most rootBudget()-1 levels, so trimming
  // it to MaxDepth-1 (a leaf at depth 1) hides nothing. Waiting until it
  // is twice that tall before trimming makes each trim pay for MaxDepth
  // ops of growth.
  uint32_t Height = 1;
  for (unsigned I = 0; I < NumKids; ++I) {
    TraceNode *Kid = Kids[I];
    if (Kid->Height >= 2 * uint64_t(MaxDepth))
      Kid = trim(Kid, std::max(MaxDepth - 1, 1u)); // owned by Kids[I]
    retain(Kid);
    N->Kids[I] = Kid;
    Height = std::max(Height, Kid->Height + 1);
  }
  N->Height = Height;
  N->Depth = std::min(Height, rootBudget());
  return N;
}

TraceNode *TraceArena::trim(TraceNode *N, uint32_t ToDepth) {
  assert(ToDepth >= 1 && "cannot trim below depth 1");
  if (N->Height <= ToDepth)
    return N;
  // A trimmed copy is exactly ToDepth tall, so its height names it.
  for (TraceNode *C = N->Copies; C; C = C->NextCopy)
    if (C->Height == ToDepth)
      return C;

  TraceNode *Copy;
  if (ToDepth == 1) {
    Copy = leaf(N->Value);
  } else {
    Copy = NodePool.create();
    Copy->Kind = TraceNode::TNKind::Op;
    Copy->Op = N->Op;
    Copy->Site = N->Site;
    Copy->Value = N->Value;
    Copy->NumKids = N->NumKids;
    Copy->RefCount = 1;
    uint32_t Height = 1;
    for (unsigned I = 0; I < N->NumKids; ++I) {
      TraceNode *Kid = trim(N->Kids[I], ToDepth - 1);
      retain(Kid);
      Copy->Kids[I] = Kid;
      Height = std::max(Height, Kid->Height + 1);
    }
    Copy->Height = Height;
    assert(Height == ToDepth && "trimmed copy of the wrong height");
  }
  Copy->Depth = ToDepth;
  // N keeps the copy's single reference (callers borrow) and releases it
  // when N dies, so every trim of N to this depth shares one copy.
  Copy->NextCopy = N->Copies;
  N->Copies = Copy;
  return Copy;
}

void TraceArena::retain(TraceNode *N) {
  assert(N && N->RefCount > 0 && "retaining a dead node");
  ++N->RefCount;
}

void TraceArena::release(TraceNode *N) {
  assert(N && "releasing null");
  // Iterative release keeps deep chains off the C++ stack.
  ReleaseStack.push_back(N);
  while (!ReleaseStack.empty()) {
    TraceNode *Cur = ReleaseStack.back();
    ReleaseStack.pop_back();
    assert(Cur->RefCount > 0 && "double release");
    if (--Cur->RefCount > 0)
      continue;
    for (unsigned I = 0; I < Cur->NumKids; ++I)
      ReleaseStack.push_back(Cur->Kids[I]);
    for (TraceNode *C = Cur->Copies; C; C = C->NextCopy)
      ReleaseStack.push_back(C);
    NodePool.destroy(Cur);
  }
}

//===----------------------------------------------------------------------===//
// Bounded-depth fingerprints and equivalence (Section 6.1)
//===----------------------------------------------------------------------===//

static uint64_t hashMix(uint64_t H, uint64_t X) {
  H ^= X + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

uint64_t TraceArena::fingerprintRec(TraceNode *N, uint32_t DepthLeft,
                                    uint32_t Budget) {
  if (N->leafAt(Budget))
    return hashMix(0x1eaf, bitsOfDouble(N->Value));
  uint64_t H = hashMix(0x0b5, static_cast<uint64_t>(N->Op));
  if (DepthLeft == 0) {
    // Below the bounded depth, only the carried value distinguishes.
    return hashMix(H, bitsOfDouble(N->Value));
  }
  for (unsigned I = 0; I < N->NumKids; ++I)
    H = hashMix(H, fingerprintRec(N->Kids[I], DepthLeft - 1, Budget - 1));
  return H;
}

uint64_t TraceArena::fingerprint(TraceNode *N, uint32_t Budget) {
  // The walk reads EquivDepth+1 levels, so a budget of EquivDepth+2 or
  // more cuts nothing it looks at and one cached value serves every such
  // position. Closer to the budget floor the cut shows: compute afresh.
  if (Budget - 1 <= EquivDepth)
    return fingerprintRec(N, EquivDepth, Budget);
  if (!N->FPValid) {
    N->CachedFP = fingerprintRec(N, EquivDepth, Budget);
    N->FPValid = true;
  }
  return N->CachedFP;
}

bool TraceArena::equivalentRec(TraceNode *A, TraceNode *B, uint32_t DepthLeft,
                               uint32_t Budget) {
  if (A == B)
    return true;
  bool ALeaf = A->leafAt(Budget);
  if (ALeaf != B->leafAt(Budget))
    return false;
  if (ALeaf)
    return bitsOfDouble(A->Value) == bitsOfDouble(B->Value);
  if (A->Op != B->Op || A->NumKids != B->NumKids)
    return false;
  if (DepthLeft == 0)
    return bitsOfDouble(A->Value) == bitsOfDouble(B->Value);
  for (unsigned I = 0; I < A->NumKids; ++I)
    if (!equivalentRec(A->Kids[I], B->Kids[I], DepthLeft - 1, Budget - 1))
      return false;
  return true;
}

bool TraceArena::equivalent(TraceNode *A, TraceNode *B) {
  uint32_t Budget = rootBudget();
  if (fingerprint(A, Budget) != fingerprint(B, Budget))
    return false;
  return equivalentRec(A, B, EquivDepth, Budget);
}
