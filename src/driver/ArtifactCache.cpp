//===- ArtifactCache.cpp - Content-addressed artifact cache ---------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "driver/ArtifactCache.h"

#include "support/FileIO.h"
#include "support/Hash.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>

using namespace ipra;

namespace fs = std::filesystem;

ArtifactCache::ArtifactCache(std::string DiskDir)
    : ArtifactCache(ArtifactCacheConfig{std::move(DiskDir), 0, 0, 0}) {}

ArtifactCache::ArtifactCache(ArtifactCacheConfig C) : Config(std::move(C)) {
  if (Config.MemBudgetBytes)
    ShardBudget = std::max<size_t>(Config.MemBudgetBytes / NumShards, 1);
}

ArtifactCache::Shard &ArtifactCache::shardFor(const std::string &Key) {
  return Shards[fnv1a64(Key) % NumShards];
}

std::string ArtifactCache::pathFor(const std::string &Key) const {
  return (fs::path(Config.DiskDir) / (Key + ".art")).string();
}

std::shared_ptr<const std::string> ArtifactCache::intern(std::string Value) {
  std::uint64_t H = fnv1a64(Value);
  std::lock_guard<std::mutex> Lock(InternMutex);
  auto &Bucket = Interned[H];
  // Prune entries whose last cache reference was evicted, and reuse a
  // still-live value with identical contents.
  std::shared_ptr<const std::string> Found;
  size_t Live = 0;
  for (auto &Weak : Bucket) {
    auto Existing = Weak.lock();
    if (!Existing)
      continue;
    Bucket[Live++] = Weak;
    if (!Found && *Existing == Value)
      Found = std::move(Existing);
  }
  Bucket.resize(Live);
  if (Found) {
    ++InternHits;
    InternBytesSaved += Value.size();
    return Found;
  }
  auto Fresh = std::make_shared<const std::string>(std::move(Value));
  Bucket.push_back(Fresh);
  return Fresh;
}

void ArtifactCache::accountMemBytes(size_t Added, size_t Removed) {
  size_t Now = MemBytes.fetch_add(Added, std::memory_order_relaxed) + Added;
  if (Removed)
    Now = MemBytes.fetch_sub(Removed, std::memory_order_relaxed) - Removed;
  // Racy-but-monotone peak update; exactness is not required.
  size_t Peak = PeakMemBytes.load(std::memory_order_relaxed);
  while (Now > Peak &&
         !PeakMemBytes.compare_exchange_weak(Peak, Now,
                                             std::memory_order_relaxed))
    ;
}

void ArtifactCache::insertLocked(Shard &S, const std::string &Key,
                                 std::shared_ptr<const std::string> Value) {
  size_t Added = 0, Removed = 0;
  auto It = S.Mem.find(Key);
  if (It != S.Mem.end()) {
    // Refresh: same key, possibly different bytes (callers overwrite
    // after invalidation). Update bytes and move to the front.
    S.Bytes -= It->second.Value->size();
    Removed += It->second.Value->size();
    S.Bytes += Value->size();
    Added += Value->size();
    It->second.Value = std::move(Value);
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second.LruIt);
  } else {
    S.Lru.push_front(Key);
    S.Bytes += Value->size();
    Added += Value->size();
    S.Mem.emplace(Key, Shard::Entry{std::move(Value), S.Lru.begin()});
  }
  // Evict least-recently-used entries while over this shard's budget
  // slice, always keeping the entry just touched (so one artifact
  // larger than the whole budget still serves the current build; the
  // shard simply runs over budget by that one entry).
  if (ShardBudget)
    while (S.Bytes > ShardBudget && S.Mem.size() > 1) {
      const std::string &Victim = S.Lru.back();
      auto VIt = S.Mem.find(Victim);
      size_t Size = VIt->second.Value->size();
      S.Bytes -= Size;
      Removed += Size;
      Evictions.fetch_add(1, std::memory_order_relaxed);
      EvictedBytes.fetch_add(Size, std::memory_order_relaxed);
      S.Mem.erase(VIt);
      S.Lru.pop_back();
    }
  accountMemBytes(Added, Removed);
}

std::shared_ptr<const std::string>
ArtifactCache::getShared(const std::string &Key) {
  Shard &S = shardFor(Key);
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Mem.find(Key);
    if (It != S.Mem.end()) {
      ++MemHits;
      BytesRead += It->second.Value->size();
      S.Lru.splice(S.Lru.begin(), S.Lru, It->second.LruIt); // Touch.
      return It->second.Value;
    }
  }
  if (!Config.DiskDir.empty()) {
    // Disk read outside the shard lock; a racing writer publishes via
    // atomic rename, so the file is whole or absent, never torn.
    if (std::string Bytes; readFile(pathFor(Key), Bytes)) {
      auto Value = intern(std::move(Bytes));
      ++DiskHits;
      BytesRead += Value->size();
      std::lock_guard<std::mutex> Lock(S.Mutex);
      insertLocked(S, Key, Value); // Promote: later probes hit memory.
      return Value;
    }
  }
  ++Misses;
  return nullptr;
}

std::optional<std::string> ArtifactCache::get(const std::string &Key) {
  if (auto Value = getShared(Key))
    return *Value;
  return std::nullopt;
}

bool ArtifactCache::ensureDir() {
  if (DirReady.load(std::memory_order_acquire))
    return true;
  std::lock_guard<std::mutex> Lock(DirMutex);
  if (DirReady.load(std::memory_order_relaxed))
    return true;
  std::error_code EC;
  fs::create_directories(Config.DiskDir, EC);
  if (EC)
    return false; // Unwritable cache dir degrades to memory-only.
  DirReady.store(true, std::memory_order_release);
  return true;
}

void ArtifactCache::writeDiskEntry(const std::string &Key,
                                   const std::string &Value) {
  if (Config.DiskDir.empty() || !ensureDir())
    return;
  // Keys are content hashes, so concurrent writers racing on one key
  // publish the same bytes, whichever rename wins.
  if (!writeFileAtomic(pathFor(Key), Value))
    return;
  if ((Config.DiskBudgetBytes || Config.DiskTTLSeconds) &&
      DiskWrites.fetch_add(1, std::memory_order_relaxed) % SweepEveryWrites ==
          SweepEveryWrites - 1)
    sweepDisk();
}

void ArtifactCache::sweepDisk() {
  if (Config.DiskDir.empty() ||
      (!Config.DiskBudgetBytes && !Config.DiskTTLSeconds))
    return;
  // One sweeper at a time; concurrent callers simply skip (the next
  // write cadence will sweep again).
  std::unique_lock<std::mutex> Lock(SweepMutex, std::try_to_lock);
  if (!Lock.owns_lock())
    return;
  DiskSweeps.fetch_add(1, std::memory_order_relaxed);
  struct File {
    fs::path Path;
    fs::file_time_type MTime;
    std::uintmax_t Size;
  };
  std::vector<File> Files;
  std::uintmax_t Total = 0;
  std::error_code EC;
  for (fs::directory_iterator It(Config.DiskDir, EC), End; !EC && It != End;
       It.increment(EC)) {
    const fs::directory_entry &E = *It;
    if (!E.is_regular_file(EC) || EC)
      continue;
    // Only published entries; in-flight temp files are someone else's.
    if (E.path().extension() != ".art")
      continue;
    std::uintmax_t Size = E.file_size(EC);
    if (EC)
      continue;
    fs::file_time_type MTime = E.last_write_time(EC);
    if (EC)
      continue;
    Files.push_back({E.path(), MTime, Size});
    Total += Size;
  }
  auto remove = [&](const File &F) {
    std::error_code REC;
    if (fs::remove(F.Path, REC) && !REC) {
      DiskEvictions.fetch_add(1, std::memory_order_relaxed);
      DiskEvictedBytes.fetch_add(F.Size, std::memory_order_relaxed);
      Total -= F.Size;
      return true;
    }
    return false;
  };
  // Pass 1: TTL expiry.
  if (Config.DiskTTLSeconds) {
    auto Cutoff = fs::file_time_type::clock::now() -
                  std::chrono::seconds(Config.DiskTTLSeconds);
    std::vector<File> Alive;
    Alive.reserve(Files.size());
    for (const File &F : Files)
      if (F.MTime < Cutoff)
        remove(F);
      else
        Alive.push_back(F);
    Files = std::move(Alive);
  }
  // Pass 2: capacity, oldest first.
  if (Config.DiskBudgetBytes && Total > Config.DiskBudgetBytes) {
    std::sort(Files.begin(), Files.end(),
              [](const File &A, const File &B) { return A.MTime < B.MTime; });
    for (const File &F : Files) {
      if (Total <= Config.DiskBudgetBytes)
        break;
      remove(F);
    }
  }
}

void ArtifactCache::put(const std::string &Key, const std::string &Value) {
  auto Shared = intern(Value);
  {
    Shard &S = shardFor(Key);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    insertLocked(S, Key, Shared);
  }
  BytesWritten += Shared->size();
  writeDiskEntry(Key, *Shared);
}

void ArtifactCache::invalidate(const std::string &Key) {
  Shard &S = shardFor(Key);
  {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto It = S.Mem.find(Key);
    if (It != S.Mem.end()) {
      size_t Size = It->second.Value->size();
      S.Bytes -= Size;
      S.Lru.erase(It->second.LruIt);
      S.Mem.erase(It);
      accountMemBytes(0, Size);
    }
  }
  if (!Config.DiskDir.empty())
    std::remove(pathFor(Key).c_str());
}

void ArtifactCache::clearMemory() {
  size_t Removed = 0;
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mutex);
    Removed += S.Bytes;
    S.Mem.clear();
    S.Lru.clear();
    S.Bytes = 0;
  }
  accountMemBytes(0, Removed);
  std::lock_guard<std::mutex> Lock(InternMutex);
  Interned.clear();
}

ArtifactCacheStats ArtifactCache::stats() const {
  ArtifactCacheStats Out;
  Out.MemHits = MemHits.load();
  Out.DiskHits = DiskHits.load();
  Out.Misses = Misses.load();
  Out.BytesRead = BytesRead.load();
  Out.BytesWritten = BytesWritten.load();
  Out.InternHits = InternHits.load();
  Out.InternBytesSaved = InternBytesSaved.load();
  Out.MemBytes = MemBytes.load();
  Out.PeakMemBytes = PeakMemBytes.load();
  Out.Evictions = Evictions.load();
  Out.EvictedBytes = EvictedBytes.load();
  Out.DiskSweeps = DiskSweeps.load();
  Out.DiskEvictions = DiskEvictions.load();
  Out.DiskEvictedBytes = DiskEvictedBytes.load();
  {
    std::lock_guard<std::mutex> Lock(InternMutex);
    for (const auto &[H, Bucket] : Interned)
      for (const auto &Weak : Bucket)
        if (!Weak.expired())
          ++Out.InternedValues;
  }
  return Out;
}
