// Pluggable record storage for a topic (paper §3 "the system stores
// logs in append-only topics"; ROADMAP "Multi-topic storage backends").
//
// A StorageBackend owns the record bytes of one topic. Two
// implementations:
//   * MemoryBackend — the original in-memory segmented vector; fast,
//     volatile, bounded by RAM.
//   * SegmentedDiskBackend (disk_backend.h) — append-only checksummed
//     segment files with mmap'd sealed segments and a manifest, so
//     training windows can grow far past RAM and a topic survives
//     process restarts.
//
// Threading contract: a backend takes no lock of its own — its owner
// (ManagedTopic) calls it under the topic's one lock, `mu_`:
//   * writers — AppendBatch, AssignTemplates, SealActive and the
//     training snapshot (SnapshotSealed) — run under `mu_` EXCLUSIVE;
//   * const readers — Read, Scan, the query primitives, the three
//     replication reads and stats() — run under `mu_` SHARED,
//     concurrently with each other, so a const method may mutate only
//     internally synchronized state (the SegmentCache, the WAL, the
//     relaxed scan-visit tally);
//   * WaitDurable() needs no lock: the WAL is internally synchronized,
//     and holding the lock through a group-commit fsync wait would
//     serialize the very batches it coalesces;
//   * Checkpoint() runs under `mu_` SHARED, one at a time (the owner's
//     checkpoint mutex): shared excludes every writer, and a
//     checkpoint (with the Flush inside it) mutates only write-path
//     state no reader touches — the write buffer, the dirty template
//     ids, the metadata blob (read back only by recovery, before the
//     topic is shared), the manifest generation, the index-dirty flags
//     and the sticky IO error.
// A SealedRecordView needs no lock at all: it is immutable by
// construction (sealed segments never change after sealing and the
// view keeps them alive via shared ownership).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "logstore/log_record.h"
#include "util/status.h"

namespace bytebrain {

class FileOps;       // fault_injection.h
class SegmentCache;  // segment_cache.h

/// What "acknowledged" means for an append (kSegmentedDisk only; see
/// logstore/wal.h and ARCHITECTURE.md §Durability).
enum class DurabilityMode : uint32_t {
  /// Buffered segment writes, fsync at seal/checkpoint — a crash loses
  /// the unflushed tail (PR 4 behavior; the fastest mode).
  kNone = 0,
  /// Every batch's frames are also written to a write-ahead log; a
  /// background thread fsyncs it continuously but acks never wait. A
  /// crash loses at most the bytes between the last background fsync
  /// and the crash.
  kWalAsync = 1,
  /// As kWalAsync, plus each batch blocks until a group-commit fsync
  /// covers its frames: acknowledged ⇒ durable.
  kWalGroupCommit = 2,
};

/// Storage selection for one topic.
struct StorageConfig {
  enum class Kind {
    kMemory,         // in-memory segments (the default; volatile)
    kSegmentedDisk,  // on-disk segment files + manifest, mmap scans
  };
  Kind kind = Kind::kMemory;
  /// Root directory of the topic's segment files; required (and created
  /// if missing) for kSegmentedDisk, ignored for kMemory.
  std::string directory;
  /// Seal threshold: once the active segment holds this many frame
  /// bytes it is fsynced, mmap'd read-only, and a new active segment
  /// opens. Smaller segments seal (and hit the manifest) more often.
  uint64_t segment_data_bytes = 8ull * 1024 * 1024;
  /// Records per in-memory segment (kMemory only; scan locality knob).
  size_t memory_segment_capacity = 65536;
  /// Tail durability (kSegmentedDisk only; ignored for kMemory).
  DurabilityMode durability = DurabilityMode::kNone;
  /// Syscall shim for the storage data path (write/pwrite/fsync).
  /// nullptr means real syscalls; tests point it at a
  /// FaultInjectingFileOps (fault_injection.h). Not owned; must outlive
  /// the backend.
  FileOps* file_ops = nullptr;
  /// Buffer pool that sealed-segment mmaps are charged against
  /// (kSegmentedDisk only). nullptr means the process-wide
  /// SegmentCache::Global(). Not owned; must outlive the backend and
  /// every SealedRecordView taken from it.
  SegmentCache* segment_cache = nullptr;
};

/// One chunk of a topic's replication stream (frame bytes addressed by
/// {segment_index, offset} — the resume key). `data` always holds WHOLE
/// record frames (logstore/frame_format.h), readable with ParseFrame and
/// verified by the per-frame checksum, whether they came from a sealed
/// segment file or were re-framed from the active tail (the WAL frame
/// format IS the segment frame format, so the follower replays both the
/// same way). The source totals let a follower compute its lag without
/// a second round trip.
struct ReplicationChunk {
  uint64_t segment_index = 0;
  /// Byte offset of data[0] within that segment.
  uint64_t offset = 0;
  std::string data;
  /// True when `segment_index` is sealed on the source; the three
  /// fields below then carry its manifest entry so the follower can
  /// verify its own seal byte-for-byte (checksums exclude template ids,
  /// which retraining rewrites in place on either side).
  bool segment_sealed = false;
  uint64_t segment_records = 0;
  uint64_t segment_checksum = 0;
  uint64_t segment_data_len = 0;
  /// Source state at read time (replication lag = source - applied).
  uint64_t source_records = 0;
  uint64_t source_segments = 0;  // sealed segments
  uint64_t source_bytes = 0;     // sealed frame bytes + active tail bytes
};

/// An immutable snapshot of the records that were SEALED at snapshot
/// time: [0, end_seq()). Safe to scan with NO topic lock held — sealed
/// segments never mutate their text bytes, and the view shares
/// ownership of the underlying maps, so it stays valid even if the
/// backend is cleared or sealed further while the scan runs. This is
/// what lets a training thread read its window off-lock (zero-copy, via
/// mmap) instead of the snapshot copying the window under the lock.
class SealedRecordView {
 public:
  virtual ~SealedRecordView() = default;
  /// Records [0, end_seq()) are readable through this view.
  virtual uint64_t end_seq() const = 0;
  /// Invokes fn(seq, text) for each record in [begin, end); the views
  /// point into the mapped segment bytes and are valid for the lifetime
  /// of this SealedRecordView. Template ids are deliberately NOT
  /// exposed: they are the one mutable field of a sealed record
  /// (AssignTemplates), and off-lock readers must not race it.
  virtual Status ScanTexts(
      uint64_t begin, uint64_t end,
      const std::function<void(uint64_t, std::string_view)>& fn) const = 0;
};

/// A backend's counters, read as one snapshot by StorageBackend::stats().
/// TopicStats derives from this struct, so each field reaches GetStats
/// and the benches under the name it has here. Zero where a backend
/// keeps no such state: MemoryBackend fills only
/// storage_scan_record_visits, and the wal_* fields need a WAL
/// (DurabilityMode other than kNone).
struct StorageStats {
  /// Sealed (immutable, mmap'd) segment files.
  uint64_t storage_sealed_segments = 0;
  /// Bytes of sealed-segment data the segment cache currently holds
  /// resident (pinned or reclaimable) for this backend — truthful under
  /// eviction, not the sum of all sealed files.
  uint64_t storage_mapped_bytes = 0;
  /// Segment-cache traffic attributed to this backend: pin requests
  /// served by an already-resident mapping vs ones that had to mmap,
  /// and mappings dropped by LRU eviction under the process-wide
  /// budget. Read with storage_mapped_bytes under one cache lock, so
  /// the four cache fields describe the same moment.
  uint64_t storage_cache_hits = 0;
  uint64_t storage_cache_misses = 0;
  uint64_t storage_cache_evictions = 0;
  /// Retired: always 0. It counted persisted sparse-index files
  /// rebuilt at Open; the index now lives only in memory and is built
  /// at every Open. The field and its wire tag stay so that existing
  /// decoders and the benchmark's readers of it keep working.
  uint64_t storage_index_rebuilds = 0;
  /// Records individually visited since Open by Scan and by the
  /// per-record portions of ScanTemplates and partial TemplateCounts —
  /// the regression budget for "page N does O(page) work":
  /// postings-answered counts and postings-skipped segments add NOTHING
  /// here.
  uint64_t storage_scan_record_visits = 0;
  /// Frame bytes appended to the tail WAL since the last seal/rotation.
  uint64_t wal_bytes = 0;
  /// Acknowledged group-commit waits (each one covered by some fsync);
  /// group_commits / fsyncs is the amortization ratio under load.
  uint64_t wal_group_commits = 0;
  /// WAL fsyncs issued by the commit thread.
  uint64_t wal_fsyncs = 0;
  /// Records replayed from the WAL (beyond the segment file's own tail)
  /// at Open.
  uint64_t wal_replayed_records = 0;
};

/// Append-only record store for one topic. Callers hold the owning
/// topic's lock as the threading contract above prescribes.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Loads existing state (disk: manifest replay, sealed verification,
  /// torn-tail truncation). Must be called once before any other
  /// method; a fresh store opens empty.
  virtual Status Open() = 0;

  /// Appends a batch as sequence numbers [size(), size() + n) — one
  /// interface crossing and one error check for the whole batch (the
  /// ingest hot path). On an IO failure every record is still retained
  /// in memory (fail-soft; see the backend docs) and the Status reports
  /// the first error.
  virtual Status AppendBatch(std::vector<LogRecord> records) = 0;

  virtual uint64_t size() const = 0;
  virtual uint64_t text_bytes() const = 0;

  /// Copies the record at `seq` into `*out`; NotFound past the end.
  virtual Status Read(uint64_t seq, LogRecord* out) const = 0;

  /// Invokes fn(seq, record) for each record in [begin, end) (clamped
  /// to size()). The record reference is only valid during the call.
  virtual Status Scan(
      uint64_t begin, uint64_t end,
      const std::function<void(uint64_t, const LogRecord&)>& fn) const = 0;

  /// Rewrites the template ids of the contiguous range [begin_seq,
  /// begin_seq + ids.size()) (retraining refines assignments; the text
  /// is immutable); NotFound, touching nothing, when the range passes
  /// size(). Records whose id is unchanged are skipped (after a model
  /// merge most established assignments are). A record whose rewrite
  /// fails keeps its old id; the rest are still applied and the first
  /// error is returned — the same contract as AppendBatch.
  virtual Status AssignTemplates(uint64_t begin_seq,
                                 const std::vector<TemplateId>& ids) = 0;

  // --- queries --------------------------------------------------------
  // Both primitives visit the records in [begin, end) (clamped to
  // size()) whose timestamp lies in [min_ts_us, max_ts_us] ([0,
  // UINT64_MAX] is the whole topic), under one rule per segment: a
  // segment whose [min, max] timestamps miss the window is skipped
  // unread, and one whose records all fall in both windows is answered
  // from its template postings where the primitive allows it.

  /// Adds the number of matching records carrying each template id into
  /// `*counts` — the count-only query path. Fully-covered segments add
  /// their postings without touching (or, on disk, even mapping) the
  /// record bytes.
  virtual Status TemplateCounts(
      uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
      std::unordered_map<TemplateId, uint64_t>* counts) const = 0;

  /// Invokes fn(seq, template_id) for each matching record whose
  /// CURRENT template id is in `ids` — the template-filtered query path
  /// (sequence-number collection). Segments whose postings contain none
  /// of `ids` are skipped; the rest are read header-only.
  virtual Status ScanTemplates(
      uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
      const std::unordered_set<TemplateId>& ids,
      const std::function<void(uint64_t, TemplateId)>& fn) const = 0;

  // --- replication (primary/replica pairs; see src/replication/) -----

  /// Reads up to `max_bytes` of whole record frames starting at
  /// {segment_index, offset} into `*out` (at least one frame when any
  /// remain at that position, so a tiny max_bytes still progresses).
  /// `offset` must be a frame boundary — anything else is
  /// InvalidArgument, and an offset past the segment/tail end is
  /// Corruption (the follower diverged; it must resync). NotSupported
  /// for backends with no replicable representation (MemoryBackend).
  virtual Status ReplicationRead(uint64_t segment_index, uint64_t offset,
                                 uint64_t max_bytes,
                                 ReplicationChunk* out) const {
    (void)segment_index, (void)offset, (void)max_bytes, (void)out;
    return Status::NotSupported("backend does not support replication reads");
  }

  /// The position ReplicationRead would append at next: the active
  /// segment's index and its current frame-byte length. A restarted
  /// follower derives its resume key from this.
  virtual Status ReplicationPosition(uint64_t* segment_index,
                                     uint64_t* offset) const {
    (void)segment_index, (void)offset;
    return Status::NotSupported("backend does not support replication reads");
  }

  /// Verifies that sealed segment `segment_index` matches the given
  /// manifest entry (record count + checksum fold); Corruption on any
  /// mismatch. The follower's apply loop calls this after its own seal
  /// to prove byte-level convergence with the primary.
  virtual Status VerifySealedSegment(uint64_t segment_index,
                                     uint64_t expect_records,
                                     uint64_t expect_checksum) const {
    (void)segment_index, (void)expect_records, (void)expect_checksum;
    return Status::NotSupported("backend does not support replication reads");
  }

  /// Seals the active segment NOW regardless of its size (no-op when it
  /// is empty) — promote's "seal the tail" step, giving the new primary
  /// a manifested boundary for everything applied before the failover.
  virtual Status SealActive() {
    return Status::NotSupported("backend does not support explicit seals");
  }

  /// Pushes buffered appends to durable storage (disk: flush + fsync of
  /// the active segment). No-op for volatile backends.
  virtual Status Flush() = 0;

  /// Durably records `metadata` (an opaque blob — the service stores
  /// the topic's serialized model here) alongside the current segment
  /// state; recovered by the next Open and returned by metadata().
  virtual Status Checkpoint(std::string_view metadata) = 0;

  /// The last checkpointed metadata blob (empty if none).
  virtual const std::string& metadata() const = 0;

  /// Snapshot of the currently sealed records, or nullptr when the
  /// backend has no off-lock-stable representation (MemoryBackend).
  virtual std::shared_ptr<const SealedRecordView> SnapshotSealed() const {
    return nullptr;
  }

  /// True when records survive process restarts.
  virtual bool persistent() const = 0;

  /// Blocks until every record appended before this call is durable
  /// (DurabilityMode::kWalGroupCommit); immediate OK for every other
  /// mode/backend. Called with NO lock held (see the threading
  /// contract).
  virtual Status WaitDurable() { return Status::OK(); }

  /// One snapshot of the backend's counters; a const reader (see the
  /// threading contract).
  virtual StorageStats stats() const = 0;
};

/// Tallies one const call's record visits (storage_scan_record_visits)
/// in a local and publishes them with ONE relaxed add on every return
/// path: const readers run concurrently, so a shared counter bumped per
/// record would be a data race and a contended cache line.
class ScanVisitTally {
 public:
  explicit ScanVisitTally(std::atomic<uint64_t>* total) : total_(total) {}
  ~ScanVisitTally() { total_->fetch_add(count, std::memory_order_relaxed); }
  ScanVisitTally(const ScanVisitTally&) = delete;
  ScanVisitTally& operator=(const ScanVisitTally&) = delete;

  uint64_t count = 0;

 private:
  std::atomic<uint64_t>* total_;
};

/// The original in-memory store: fixed-capacity segments of LogRecords.
class MemoryBackend : public StorageBackend {
 public:
  explicit MemoryBackend(size_t segment_capacity);

  Status Open() override { return Status::OK(); }
  Status AppendBatch(std::vector<LogRecord> records) override;
  uint64_t size() const override { return count_; }
  uint64_t text_bytes() const override { return text_bytes_; }
  Status Read(uint64_t seq, LogRecord* out) const override;
  Status Scan(uint64_t begin, uint64_t end,
              const std::function<void(uint64_t, const LogRecord&)>& fn)
      const override;
  Status AssignTemplates(uint64_t begin_seq,
                         const std::vector<TemplateId>& ids) override;
  Status TemplateCounts(
      uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
      std::unordered_map<TemplateId, uint64_t>* counts) const override;
  Status ScanTemplates(
      uint64_t begin, uint64_t end, uint64_t min_ts_us, uint64_t max_ts_us,
      const std::unordered_set<TemplateId>& ids,
      const std::function<void(uint64_t, TemplateId)>& fn) const override;
  Status Flush() override { return Status::OK(); }
  Status Checkpoint(std::string_view metadata) override;
  const std::string& metadata() const override { return metadata_; }
  bool persistent() const override { return false; }
  StorageStats stats() const override {
    return {.storage_scan_record_visits =
                scan_visits_.load(std::memory_order_relaxed)};
  }

 private:
  struct Segment {
    std::vector<LogRecord> records;
    // Per-segment template-id counts and timestamp range, maintained by
    // AppendBatch and AssignTemplates — the in-memory analogue of the
    // disk backend's sealed-segment index, so memory topics answer
    // queries under the same postings and time-pruning rule.
    std::unordered_map<TemplateId, uint64_t> postings;
    uint64_t min_timestamp_us = UINT64_MAX;
    uint64_t max_timestamp_us = 0;
  };

  const LogRecord* Locate(uint64_t seq) const;

  size_t segment_capacity_;
  std::vector<std::unique_ptr<Segment>> segments_;
  uint64_t count_ = 0;
  uint64_t text_bytes_ = 0;
  std::string metadata_;
  mutable std::atomic<uint64_t> scan_visits_{0};
};

/// Builds the backend selected by `config` (not yet Open()ed).
std::unique_ptr<StorageBackend> CreateStorageBackend(
    const StorageConfig& config);

}  // namespace bytebrain
