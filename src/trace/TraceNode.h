//===- trace/TraceNode.h - Concrete expression traces -----------*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete expression traces (Section 4.3): every shadowed float value
/// carries a DAG recording the float operations that built it. Nodes are
/// reference-counted and pool-allocated (Section 6 "Sharing"), shared
/// across copies through temporaries, thread state, and memory. Function
/// boundaries and heap traffic are deliberately *not* recorded: copying a
/// value shares its trace node, so the trace abstracts over them exactly as
/// the paper describes.
///
/// Depth bounding (Section 6.1) happens when a trace is read, not when it
/// is built. A reader walks a root with a depth budget of max(MaxDepth, 2)
/// and sees a node reached at budget 1 as a leaf carrying its value, so it
/// sees the trace cut off at MaxDepth levels (2 when MaxDepth is 1).
/// Construction only keeps the stored history finite: an op node trims a
/// kid whose stored height exceeds 2*MaxDepth-1 down to MaxDepth-1 levels,
/// which cuts nothing any reader can see and costs O(1) amortized per op
/// on a chain. A trimmed copy is owned by the node it copies (one per
/// depth) and dies with it, so repeated trims of one node share their
/// copies and memory stays bounded however long a loop runs.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_TRACE_TRACENODE_H
#define HERBGRIND_TRACE_TRACENODE_H

#include "ir/Opcode.h"
#include "support/Pool.h"

#include <cstdint>
#include <vector>

namespace herbgrind {

/// One node of a concrete expression trace. Leaves are values with no
/// recorded float provenance: program inputs, literals, values loaded from
/// unshadowed memory, integer-to-float conversions, or subtrees truncated
/// by trimming.
struct TraceNode {
  enum class TNKind : uint8_t { Op, Leaf };

  TNKind Kind = TNKind::Leaf;
  Opcode Op = Opcode::AddF64; ///< Valid when Kind == Op.
  uint8_t NumKids = 0;
  bool FPValid = false; ///< Whether CachedFP is populated.
  uint32_t RefCount = 0;
  uint32_t Height = 1; ///< Longest stored path to a leaf, counting this node.
  uint32_t Depth = 1;  ///< Depth readers see: min(Height, root budget).
  uint32_t Site = UINT32_MAX; ///< Producing pc (UINT32_MAX for leaves).
  double Value = 0.0; ///< The concrete double this node carried.
  TraceNode *Kids[3] = {nullptr, nullptr, nullptr};
  /// Trimmed copies of this node, at most one per depth, each holding one
  /// reference owned by this node; NextCopy links the copies.
  TraceNode *Copies = nullptr;
  TraceNode *NextCopy = nullptr;
  /// Cached fingerprint at budgets that cannot cut it (see
  /// TraceArena::fingerprint).
  uint64_t CachedFP = 0;

  /// Whether a reader reaching this node with \p Budget sees a leaf.
  bool leafAt(uint32_t Budget) const {
    return Kind == TNKind::Leaf || Budget <= 1;
  }
};

/// Owns trace nodes: pool allocation, reference counting, construction
/// with amortized trimming, and the depth-budgeted fingerprints behind the
/// anti-unification equivalence classes (Section 6.1).
class TraceArena {
public:
  /// \p MaxDepth bounds the trace depth readers see (Fig 5c/d sweep knob);
  /// \p EquivDepth bounds the equivalence fingerprint; \p UsePool toggles
  /// the Section 6 pool-allocator optimization for the ablation bench.
  explicit TraceArena(uint32_t MaxDepth = 64, uint32_t EquivDepth = 5,
                      bool UsePool = true)
      : NodePool(UsePool), MaxDepth(MaxDepth ? MaxDepth : 1),
        EquivDepth(EquivDepth) {}

  TraceArena(const TraceArena &) = delete;
  TraceArena &operator=(const TraceArena &) = delete;

  /// Creates a provenance-free leaf carrying \p Value. The caller receives
  /// one reference.
  TraceNode *leaf(double Value);

  /// Creates an op node. A kid whose stored height exceeds 2*MaxDepth-1 is
  /// replaced by its trimmed copy of MaxDepth-1 levels (at least 1), which
  /// no reader can tell apart from the kid. Takes no ownership of the kid
  /// references passed in (it retains its own); the caller receives one
  /// reference to the result.
  TraceNode *node(Opcode Op, uint32_t Site, double Value, TraceNode *const *Kids,
                  unsigned NumKids);

  void retain(TraceNode *N);
  void release(TraceNode *N);

  /// Recycles the arena for a fresh analysis round by rewinding the node
  /// pool's slabs; every node must already have been released. This is
  /// what lets the batch engine reuse a shard-local arena across shards
  /// instead of rebuilding it.
  void resetForReuse() { NodePool.reset(); }

  /// The depth budget a reader gives a root. A node reached with budget B
  /// shows B levels; its kids are read with budget B-1.
  uint32_t rootBudget() const { return MaxDepth < 2 ? 2 : MaxDepth; }

  /// Structural fingerprint to EquivDepth levels of \p N as seen with
  /// \p Budget, used to decide which subtrees anti-unification may map to
  /// the same variable.
  uint64_t fingerprint(TraceNode *N, uint32_t Budget);

  /// Structural equality of two roots to EquivDepth levels (guards against
  /// fingerprint collisions).
  bool equivalent(TraceNode *A, TraceNode *B);

  size_t liveNodes() const { return NodePool.live(); }
  size_t totalAllocated() const { return NodePool.totalAllocated(); }
  uint32_t maxDepth() const { return MaxDepth; }
  uint32_t equivDepth() const { return EquivDepth; }

private:
  TraceNode *trim(TraceNode *N, uint32_t ToDepth);
  uint64_t fingerprintRec(TraceNode *N, uint32_t DepthLeft, uint32_t Budget);
  bool equivalentRec(TraceNode *A, TraceNode *B, uint32_t DepthLeft,
                     uint32_t Budget);

  Pool<TraceNode> NodePool;
  uint32_t MaxDepth;
  uint32_t EquivDepth;
  std::vector<TraceNode *> ReleaseStack; ///< release()'s reused work stack.
};

} // namespace herbgrind

#endif // HERBGRIND_TRACE_TRACENODE_H
