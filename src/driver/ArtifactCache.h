//===- ArtifactCache.h - Content-addressed artifact cache ------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A two-layer content-addressed store for pipeline artifacts (summary
/// files, program databases, object files). Keys are derived from
/// content hashes (source text × configuration fingerprint × database
/// slice), so entries never go stale — a changed input simply misses.
///
///  - The in-memory layer lives for the lifetime of the cache object.
///    It is sharded (per-shard mutex, shard chosen by key hash) so the
///    module-parallel phases and the build service's concurrent
///    sessions do not serialize on one lock, and its values are
///    interned by content: identical artifact bytes stored under
///    different keys (the runtime module's summary across every
///    program a daemon serves, say) share one allocation. When a
///    memory budget is configured the layer is a sharded LRU: each
///    shard keeps a recency list and evicts least-recently-used
///    entries once its slice of the budget overflows. Eviction is
///    always safe — a later probe for an evicted key is an ordinary
///    miss that recomputes (or re-reads from disk) the same bytes.
///  - The optional on-disk layer (one file per entry under a cache
///    directory) persists across processes; disk hits are promoted into
///    memory. Disk I/O happens outside the shard locks. Writes go
///    through a temp-file + rename where the temp name is unique per
///    writer (pid × per-cache sequence number), so two threads or two
///    processes racing on the same key each write a private temp file
///    and the atomic renames publish whole entries in either order —
///    never a torn file. (The temp name used to hash the thread id,
///    which can collide across processes: two single-threaded mcc
///    processes sharing a cache dir could interleave writes into the
///    same temp file and publish garbage.) A capacity budget and/or
///    TTL turns the layer into a bounded store: a periodic sweep
///    deletes expired entries first, then the oldest entries until the
///    directory fits the budget.
///
/// The cache stores artifacts verbatim; callers validate entries by
/// parsing them (a corrupted or truncated disk entry fails its parse
/// and is treated as a miss, then overwritten by the recompute).
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_DRIVER_ARTIFACTCACHE_H
#define IPRA_DRIVER_ARTIFACTCACHE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace ipra {

/// Size/lifetime policy for one cache instance. Zero always means
/// "unbounded"/"disabled", which reproduces the historical behavior.
struct ArtifactCacheConfig {
  std::string DiskDir;        ///< Empty means memory-only.
  size_t MemBudgetBytes = 0;  ///< LRU-evict memory entries over this.
  size_t DiskBudgetBytes = 0; ///< Sweep deletes oldest files over this.
  unsigned DiskTTLSeconds = 0; ///< Sweep deletes files older than this.
};

/// Counters for one cache instance, cumulative across builds.
struct ArtifactCacheStats {
  unsigned MemHits = 0;
  unsigned DiskHits = 0;
  unsigned Misses = 0;
  size_t BytesRead = 0;    ///< Artifact bytes served from the cache.
  size_t BytesWritten = 0; ///< Artifact bytes stored into the cache.
  /// Value interning: distinct artifact contents resident, put() calls
  /// that reused an already-interned value, and the bytes those reuses
  /// did not duplicate.
  size_t InternedValues = 0;
  unsigned InternHits = 0;
  size_t InternBytesSaved = 0;
  /// Memory-layer LRU accounting. MemBytes is the resident total now;
  /// PeakMemBytes the high-water mark; Evictions/EvictedBytes count
  /// entries dropped to stay under the budget.
  size_t MemBytes = 0;
  size_t PeakMemBytes = 0;
  unsigned Evictions = 0;
  size_t EvictedBytes = 0;
  /// Disk-layer sweep accounting.
  unsigned DiskSweeps = 0;
  unsigned DiskEvictions = 0;
  size_t DiskEvictedBytes = 0;

  /// Every field with its key (support/Json.h's Record).
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("mem-hits", S.MemHits);
    V("disk-hits", S.DiskHits);
    V("misses", S.Misses);
    V("bytes-read", S.BytesRead);
    V("bytes-written", S.BytesWritten);
    V("interned-values", S.InternedValues);
    V("intern-hits", S.InternHits);
    V("intern-bytes-saved", S.InternBytesSaved);
    V("mem-bytes", S.MemBytes);
    V("peak-mem-bytes", S.PeakMemBytes);
    V("evictions", S.Evictions);
    V("evicted-bytes", S.EvictedBytes);
    V("disk-sweeps", S.DiskSweeps);
    V("disk-evictions", S.DiskEvictions);
    V("disk-evicted-bytes", S.DiskEvictedBytes);
  }
};

/// Thread-safe two-layer (sharded memory + optional disk) artifact
/// store with content-interned values and optional size bounds.
class ArtifactCache {
public:
  /// \p DiskDir empty means memory-only. The directory is created on
  /// the first put(). This historical constructor builds an unbounded
  /// cache.
  explicit ArtifactCache(std::string DiskDir = "");

  /// Budgeted construction; see ArtifactCacheConfig.
  explicit ArtifactCache(ArtifactCacheConfig Config);

  /// Looks \p Key up in memory, then on disk. Counts a hit or miss.
  std::optional<std::string> get(const std::string &Key);

  /// Like get(), but shares the interned value instead of copying it.
  std::shared_ptr<const std::string> getShared(const std::string &Key);

  /// Stores \p Value under \p Key in both layers.
  void put(const std::string &Key, const std::string &Value);

  /// Drops \p Key from both layers (used when a cached entry fails
  /// validation).
  void invalidate(const std::string &Key);

  /// Forgets the in-memory layer (disk entries survive). For tests.
  void clearMemory();

  /// Runs one disk sweep now (also triggered automatically every few
  /// writes when a disk budget or TTL is configured). Safe to call
  /// concurrently; extra callers return without sweeping.
  void sweepDisk();

  ArtifactCacheStats stats() const;
  const std::string &diskDir() const { return Config.DiskDir; }

private:
  static constexpr size_t NumShards = 16;
  /// Automatic sweep cadence: one sweep per this many disk writes.
  static constexpr std::uint64_t SweepEveryWrites = 64;

  struct Shard {
    std::mutex Mutex;
    struct Entry {
      std::shared_ptr<const std::string> Value;
      std::list<std::string>::iterator LruIt;
    };
    std::map<std::string, Entry> Mem;
    std::list<std::string> Lru; ///< Front is most recently used.
    size_t Bytes = 0;           ///< Sum of resident value sizes.
  };

  Shard &shardFor(const std::string &Key);
  std::string pathFor(const std::string &Key) const;
  /// Interns \p Value: returns the resident copy with identical
  /// contents, registering \p Value if it is the first. The intern
  /// table holds weak references, so evicting the last cache entry for
  /// a value actually releases its bytes.
  std::shared_ptr<const std::string> intern(std::string Value);
  /// Inserts (or refreshes) \p Key -> \p Value in \p S and evicts from
  /// the LRU tail while the shard is over its budget slice. Caller
  /// must hold the shard lock.
  void insertLocked(Shard &S, const std::string &Key,
                    std::shared_ptr<const std::string> Value);
  void accountMemBytes(size_t Added, size_t Removed);
  bool ensureDir();
  void writeDiskEntry(const std::string &Key, const std::string &Value);

  ArtifactCacheConfig Config;
  size_t ShardBudget = 0; ///< MemBudgetBytes / NumShards (0 = unbounded).
  Shard Shards[NumShards];
  /// Content-hash -> resident values (a bucket list per hash so a
  /// 64-bit collision degrades to a linear compare, never to aliasing
  /// different contents). Weak so eviction frees memory; expired
  /// entries are pruned on the next intern() of the same hash.
  mutable std::mutex InternMutex;
  std::map<std::uint64_t, std::vector<std::weak_ptr<const std::string>>>
      Interned;
  std::mutex DirMutex;
  std::mutex SweepMutex; ///< At most one disk sweep at a time.
  std::atomic<bool> DirReady{false}; ///< Created (or found) the dir.
  std::atomic<std::uint64_t> DiskWrites{0};
  /// Counters (atomic: get/put run concurrently under different shard
  /// locks).
  mutable std::atomic<unsigned> MemHits{0}, DiskHits{0}, Misses{0},
      InternHits{0}, Evictions{0}, DiskSweeps{0}, DiskEvictions{0};
  mutable std::atomic<size_t> BytesRead{0}, BytesWritten{0},
      InternBytesSaved{0}, MemBytes{0}, PeakMemBytes{0}, EvictedBytes{0},
      DiskEvictedBytes{0};
};

} // namespace ipra

#endif // IPRA_DRIVER_ARTIFACTCACHE_H
