#include "logstore/segment_cache.h"

#include <sys/mman.h>

namespace bytebrain {

SegmentCache::Entry::~Entry() {
  // Last reference: the owning segment and every view are gone, so no
  // Pin can exist and nobody else can reach this entry. Still take the
  // cache mutex — eviction on another thread may be walking the LRU.
  if (cache_ == nullptr) return;
  std::lock_guard<std::mutex> lock(cache_->mu_);
  if (!resident_) return;
  cache_->lru_.erase(lru_it_);
  cache_->totals_.resident_bytes -= len_;
  if (owner_) owner_->resident_bytes -= len_;
  if (map_ != nullptr) ::munmap(const_cast<char*>(map_), len_);
}

SegmentCache::Pin& SegmentCache::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    Release();
    entry_ = std::move(other.entry_);
    data_ = other.data_;
    size_ = other.size_;
    other.entry_.reset();
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void SegmentCache::Pin::Release() {
  if (entry_) {
    entry_->cache_->ReleasePin(entry_.get());
    entry_.reset();
  }
  data_ = nullptr;
  size_ = 0;
}

SegmentCache::SegmentCache(uint64_t budget_bytes) : budget_(budget_bytes) {}

SegmentCache::~SegmentCache() = default;

SegmentCache* SegmentCache::Global() {
  static SegmentCache* const cache = new SegmentCache();  // leaked on purpose
  return cache;
}

void SegmentCache::set_budget_bytes(uint64_t budget) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = budget;
  EvictDownToBudgetLocked(nullptr);
}

uint64_t SegmentCache::budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_;
}

SegmentCache::EntryPtr SegmentCache::Register(
    int fd, size_t len, std::shared_ptr<Counters> owner) {
  EntryPtr entry(new Entry());
  entry->cache_ = this;
  entry->fd_ = fd;
  entry->len_ = len;
  entry->owner_ = std::move(owner);
  return entry;
}

Status SegmentCache::Acquire(const EntryPtr& e, Pin* pin) {
  pin->Release();
  Entry* entry = e.get();
  std::lock_guard<std::mutex> lock(mu_);
  if (!entry->resident_) {
    if (entry->len_ > 0) {
      void* map = ::mmap(nullptr, entry->len_, PROT_READ, MAP_SHARED,
                         entry->fd_, 0);
      if (map == MAP_FAILED) {
        return Status::IOError("cannot map sealed segment");
      }
      entry->map_ = static_cast<const char*>(map);
    }
    entry->resident_ = true;
    entry->lru_it_ = lru_.insert(lru_.end(), entry);
    totals_.resident_bytes += entry->len_;
    ++totals_.misses;
    if (entry->owner_) {
      ++entry->owner_->misses;
      entry->owner_->resident_bytes += entry->len_;
    }
    EvictDownToBudgetLocked(entry);
  } else {
    lru_.splice(lru_.end(), lru_, entry->lru_it_);
    ++totals_.hits;
    if (entry->owner_) ++entry->owner_->hits;
  }
  ++entry->pins_;
  pin->entry_ = e;
  pin->data_ = entry->map_;
  pin->size_ = entry->len_;
  return Status::OK();
}

void SegmentCache::EvictDownToBudgetLocked(const Entry* keep) {
  auto it = lru_.begin();
  while (totals_.resident_bytes > budget_ && it != lru_.end()) {
    Entry* victim = *it;
    if (victim->pins_ > 0 || victim == keep) {
      ++it;
      continue;
    }
    it = lru_.erase(it);
    victim->resident_ = false;
    totals_.resident_bytes -= victim->len_;
    ++totals_.evictions;
    if (victim->owner_) {
      ++victim->owner_->evictions;
      victim->owner_->resident_bytes -= victim->len_;
    }
    if (victim->map_ != nullptr) {
      ::munmap(const_cast<char*>(victim->map_), victim->len_);
      victim->map_ = nullptr;
    }
  }
}

void SegmentCache::ReleasePin(Entry* entry) {
  std::lock_guard<std::mutex> lock(mu_);
  --entry->pins_;
  // Pins can push residency over budget; settle back under it as soon
  // as the pin that demanded the overage lets go.
  if (entry->pins_ == 0 && totals_.resident_bytes > budget_) {
    EvictDownToBudgetLocked(nullptr);
  }
}

SegmentCache::Counters SegmentCache::owner_stats(
    const std::shared_ptr<Counters>& owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  return owner ? *owner : Counters{};
}

SegmentCache::Counters SegmentCache::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

}  // namespace bytebrain
