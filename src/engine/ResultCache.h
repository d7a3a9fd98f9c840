//===- engine/ResultCache.h - Persistent shard-result cache -----*- C++ -*-===//
//
// Part of herbgrind-cpp. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent shard-result cache: per-(benchmark, seed, sample-range,
/// config) `AnalysisResult`s stored as shard wire-format documents in a
/// cache directory, so a repeated sweep analyzes only new or invalidated
/// shards and merges cached + fresh results through the same in-order
/// deterministic fold.
///
/// Keying mirrors `fpcore::ProgramCache`: a benchmark is identified by its
/// printed FPCore text (canonical for parsed cores), combined with the
/// shard's derived sampling seed, its sample range, and a hash of every
/// configuration knob that can change analysis output (including the wire
/// format's major version, so a format bump invalidates stale entries).
/// Entries are validated on read -- a corrupt, truncated, or foreign file
/// is a miss, never an error -- and written atomically (temp file +
/// rename), so concurrent sweeps sharing a directory are safe.
///
//===----------------------------------------------------------------------===//

#ifndef HERBGRIND_ENGINE_RESULTCACHE_H
#define HERBGRIND_ENGINE_RESULTCACHE_H

#include "analysis/Serialize.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace herbgrind {
namespace engine {

struct EngineConfig;

/// Hashes every `EngineConfig` knob that influences analysis output
/// (thresholds, precision, depths, sampling seed and counts, the wire
/// format major version; NOT the worker count or shard-range selection,
/// which never change result values). Shards merge only when their
/// config hashes match.
std::string configHash(const EngineConfig &Cfg);

/// Writes a file atomically: the content lands under a temporary name in
/// the target directory and is renamed into place, so concurrent writers
/// of the same (deterministic) entry race benignly. Returns false on IO
/// failure.
bool writeFileAtomic(const std::string &Path, const std::string &Data);

/// Reads a whole file; returns false when it does not exist or cannot be
/// read.
bool readFile(const std::string &Path, std::string &Out);

/// Outcome of a cache garbage collection pass.
struct CacheGcStats {
  uint64_t Entries = 0;       ///< Cache entries found before pruning.
  uint64_t Bytes = 0;         ///< Their total size in bytes.
  uint64_t PrunedEntries = 0; ///< Entries deleted by this pass.
  uint64_t PrunedBytes = 0;   ///< Bytes reclaimed by this pass.
};

/// Prunes a cache directory's entries (`*.shard.json` / `*.shard.hgb`
/// shard results and `*.improve.json` / `*.improve.hgb` improver
/// outcomes) down to at most
/// \p MaxBytes, deleting least-recently-used entries first (mtime order;
/// caches with touch-on-hit enabled refresh entries on lookup, so hot
/// shards survive). MaxBytes 0 empties the cache. Tolerates concurrent writers: entries that vanish
/// mid-scan are skipped. Returns false only when the directory itself
/// cannot be read.
bool gcCacheDir(const std::string &Dir, uint64_t MaxBytes, CacheGcStats &Stats,
                std::string &Err);

/// The persistent cache. One instance serves all of an engine's workers
/// concurrently; the only shared mutable state is the hit/miss counters.
class ResultCache {
public:
  /// Opens (creating if needed) \p Dir for a sweep whose configuration
  /// hashes to \p ConfigHash. Every entry this cache touches is bound to
  /// that hash.
  ResultCache(std::string Dir, std::string ConfigHash);

  /// Identity of one shard's work, sufficient to reproduce it.
  struct ShardKey {
    std::string CoreIdentity; ///< Printed FPCore (ProgramCache's key).
    uint64_t DerivedSeed = 0; ///< Per-benchmark sampling seed.
    uint64_t BenchIndex = 0;  ///< Position in the sweep's core list.
    uint64_t ShardIndex = 0;  ///< Shard number within the benchmark.
    uint64_t RunBegin = 0;    ///< Sample range (inclusive begin).
    uint64_t RunEnd = 0;      ///< Sample range (exclusive end).
  };

  /// Looks a shard up; on a hit fills \p Out with a result that folds
  /// byte-identically to a fresh analysis. Any validation failure
  /// (missing file, parse error, version or config-hash mismatch, wrong
  /// sample range) is a miss. Both the JSON and the HGB entry file are
  /// consulted (format sniffed from content, whatever the extension
  /// claims), so sweeps configured for different encodings warm each
  /// other. A trace-free entry (ShardDoc's "traceFree" mark) is a miss
  /// unless \p AcceptTraceFree: only a benchmark the engine still runs
  /// trace-free can use one; a traced entry serves every lookup.
  bool lookup(const ShardKey &Key, AnalysisResult &Out,
              bool AcceptTraceFree);

  /// Persists a freshly analyzed shard. IO failures are counted but
  /// otherwise ignored -- the cache is an accelerator, never a
  /// correctness dependency.
  void store(const ShardKey &Key, const std::string &BenchName,
             const AnalysisResult &Result);

  /// The entry file a store() would write for a key under the configured
  /// encoding (deterministic; exposed for tests and debugging). lookup()
  /// additionally consults the other encoding's file.
  std::string entryPath(const ShardKey &Key) const;

  /// Identity of one batch-improver outcome: the exact expression and
  /// sampling specs the improver ran on plus the improver-config hash
  /// (improve::improveConfigHash). The sweep config hash this cache was
  /// opened with is folded in implicitly, so entries never leak across
  /// sweep configurations.
  struct ImproveKey {
    std::string ExprIdentity; ///< Printed FPCore expression fragment.
    std::string SpecIdentity; ///< improve::specIdentity() of the specs.
    std::string ImproveHash;  ///< Canonical improver-config string.
  };

  /// Looks an improver outcome up; on a hit fills \p Out with the cached
  /// record (its PC field is meaningless -- callers re-stamp identity).
  /// Any validation failure (missing file, parse error, version or
  /// config/improve-hash mismatch, different expression or specs) is a
  /// miss.
  bool lookupImprove(const ImproveKey &Key, ImproveRecord &Out);

  /// Persists one improver outcome. IO failures are counted but
  /// otherwise ignored, like store().
  void storeImprove(const ImproveKey &Key, const ImproveRecord &Rec);

  /// The entry file for an improver outcome (deterministic; exposed for
  /// tests and debugging).
  std::string improveEntryPath(const ImproveKey &Key) const;

  /// Prunes this cache's directory to \p MaxBytes (LRU by mtime); see
  /// gcCacheDir.
  bool gc(uint64_t MaxBytes, CacheGcStats &Stats, std::string &Err) const {
    return gcCacheDir(Dir, MaxBytes, Stats, Err);
  }

  /// Enables refreshing an entry's mtime on every hit so LRU pruning sees
  /// true recency. Off by default: without a size cap the extra metadata
  /// write per hit buys nothing and perturbs mtimes that rsync-shared
  /// caches compare. When left off, gcCacheDir's LRU order degrades to
  /// FIFO-by-store-time, which is still a correct pruning order.
  void setTouchOnHit(bool Enabled) { TouchOnHit = Enabled; }

  /// Selects the encoding store()/storeImprove() write (JSON by
  /// default). Purely a writer-side knob: lookups sniff and accept
  /// either format regardless.
  void setWireEncoding(WireEncoding E) { Enc = E; }
  WireEncoding wireEncoding() const { return Enc; }

  const std::string &directory() const { return Dir; }
  const std::string &configHash() const { return Hash; }
  uint64_t hits() const { return Hits.load(); }
  uint64_t misses() const { return Misses.load(); }
  uint64_t storeFailures() const { return StoreFailures.load(); }

private:
  /// The suffix-free entry paths the per-encoding files hang off.
  std::string entryBase(const ShardKey &Key) const;
  std::string improveEntryBase(const ImproveKey &Key) const;

  std::string Dir;
  std::string Hash;
  bool TouchOnHit = false;
  WireEncoding Enc = WireEncoding::Json;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> StoreFailures{0};
};

} // namespace engine
} // namespace herbgrind

#endif // HERBGRIND_ENGINE_RESULTCACHE_H
