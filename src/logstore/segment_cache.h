// Process-wide buffer pool for mmap'd sealed segments (ROADMAP "Query
// engine: indexed reads + bounded page cache"; ARCHITECTURE.md §8).
//
// Before this cache every SegmentedDiskBackend kept a private mmap of
// every sealed segment forever — fine for one topic, hostile at fleet
// scale. Now each backend registers its sealed segment files here and
// maps them on demand through Acquire(), which returns a Pin: an RAII
// lease on the mapping. The cache keeps total resident (mapped) bytes
// under a configurable budget by munmap'ing the least-recently-used
// UNPINNED entries; pinned entries are never evicted, so a training
// snapshot or long scan holding pins stays valid no matter how much
// pressure other topics generate (the budget is a target, exceeded
// only while pins demand it).
//
// Eviction only drops the mapping, never the file descriptor (the
// owning SealedSegment keeps the fd for template-id pwrites), so a
// later Acquire simply remaps. MAP_SHARED + the kernel page cache keep
// remapped reads coherent with any pwrites issued while unmapped.
//
// Threading: internally synchronized — one mutex guards the LRU list,
// residency accounting, and every Entry's state. Pins can be taken and
// dropped from any thread. The cache never calls back into a backend,
// so the process-wide lock order is: topic/backend lock -> cache
// mutex. The cache must outlive every backend (and every
// SealedRecordView) registered with it; Global() is never destroyed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>

#include "util/status.h"

namespace bytebrain {

class SegmentCache {
 public:
  /// Cache traffic and residency: the whole cache's (totals()) or one
  /// owner's slice of it (owner_stats()), so topic stats can attribute
  /// hits/misses/evictions/resident bytes to one topic. An owner's
  /// slice is owned jointly by the backend and its cache entries; every
  /// instance the cache updates is guarded by the cache mutex.
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t resident_bytes = 0;
  };

  /// One registered segment file. Opaque outside the cache: backends
  /// hold EntryPtrs in their SealedSegment structs and hand them to
  /// Acquire(). The last EntryPtr release (segment retired and every
  /// view gone) unmaps and forgets the entry.
  class Entry {
   public:
    ~Entry();
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;

   private:
    friend class SegmentCache;
    Entry() = default;

    SegmentCache* cache_ = nullptr;
    int fd_ = -1;
    size_t len_ = 0;
    std::shared_ptr<Counters> owner_;
    // All below guarded by cache_->mu_.
    const char* map_ = nullptr;
    uint32_t pins_ = 0;
    bool resident_ = false;
    std::list<Entry*>::iterator lru_it_;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  /// RAII mapping lease. While any Pin on an entry is alive the
  /// mapping cannot be evicted, so data() stays valid. Move-only.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept { *this = std::move(other); }
    Pin& operator=(Pin&& other) noexcept;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

    /// Mapped segment bytes; nullptr for an empty (zero-length) file.
    const char* data() const { return data_; }
    size_t size() const { return size_; }
    bool valid() const { return entry_ != nullptr; }
    void Release();

   private:
    friend class SegmentCache;
    EntryPtr entry_;
    const char* data_ = nullptr;
    size_t size_ = 0;
  };

  static constexpr uint64_t kDefaultBudgetBytes = 1ull << 30;  // 1 GiB

  explicit SegmentCache(uint64_t budget_bytes = kDefaultBudgetBytes);
  ~SegmentCache();
  SegmentCache(const SegmentCache&) = delete;
  SegmentCache& operator=(const SegmentCache&) = delete;

  /// The process-wide cache every backend uses unless its
  /// StorageConfig names another. Created on first use, never
  /// destroyed (backends and views may outlive static destructors).
  static SegmentCache* Global();

  void set_budget_bytes(uint64_t budget);
  uint64_t budget_bytes() const;

  /// Registers a segment file without mapping it. `fd` must stay open
  /// (and the file contents meaningful) for the entry's lifetime; the
  /// cache never closes it. `owner` may be null.
  EntryPtr Register(int fd, size_t len, std::shared_ptr<Counters> owner);

  /// Maps the entry if needed (counting a miss, then evicting LRU
  /// unpinned entries down to budget) or bumps it in the LRU (a hit),
  /// and hands out a Pin. Fails only if mmap itself fails.
  Status Acquire(const EntryPtr& entry, Pin* pin);

  /// Consistent snapshots of one owner's counters and of the whole
  /// cache's.
  Counters owner_stats(const std::shared_ptr<Counters>& owner) const;
  Counters totals() const;

 private:
  void EvictDownToBudgetLocked(const Entry* keep);
  void ReleasePin(Entry* entry);

  mutable std::mutex mu_;
  uint64_t budget_;
  Counters totals_;
  // Resident entries only, least recently used at the front. Raw
  // pointers: an entry removes itself under mu_ before destruction.
  std::list<Entry*> lru_;
};

}  // namespace bytebrain
